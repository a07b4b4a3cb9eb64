"""Host-speed probe: puts timings measured on a drifting host on one scale.

A shared 2-vCPU Intel Xeon VM (2.1 GHz) runs in two speed states that
last from a second to minutes: in the slow one every kind of work (a
pure-Python loop, a numpy gather, a pickle round trip, and each workload)
takes about 1.3-1.5x as long. No statistic of a 10-second run escapes a
state that outlasts it, so runs minutes apart disagree by more than any
useful bound.

:func:`probe` times a fixed ~1 ms kernel of those three kinds of work. It
shares no code with the library, so no change to the program moves it.
The harness probes right after every timed op (outside the op's clock),
and :func:`to_reference` turns each measured interval into *reference
seconds*: the interval times ``REFERENCE_S`` over the mean of the probes
that bracket it. A state change then scales an op and its probes alike
and cancels out, while a change to the program moves only the op.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

#: Probe time that defines one reference second: the probe's typical time
#: on a 2-vCPU Intel Xeon VM (2.1 GHz) in its fast state.
#: Any fixed value works; it only sets the scale of every timing metric.
REFERENCE_S = 1.0e-3

_rows = np.random.default_rng(0).random((2000, 10))
_order = np.random.default_rng(1).permutation(2000)
_records = [(i, float(i), str(i)) for i in range(600)]


def probe() -> float:
    """Seconds one run of the fixed reference kernel takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(8000):
        total += i * i
    for _ in range(4):
        (_rows[_order] * 2.0).sum(axis=0)
    pickle.loads(pickle.dumps(_records))
    return time.perf_counter() - start


def to_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
