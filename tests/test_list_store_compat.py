"""Snapshots of the list-store families still restore on the array store.

Before :class:`UnbiasedReservoir`, :class:`SkipUnbiasedReservoir`,
:class:`WindowBuffer`, :class:`TimestampedExponentialReservoir`,
:class:`TimeDecayReservoir` and :class:`GeneralBiasSampler` moved onto the
array store, they kept their residents (and timestamps, insertion
probabilities) in parallel lists, and their snapshots had no
``global_arrivals`` field. The pickles under
``tests/data/parent_list_store/`` were written by that layout, together
with what it reported about itself: entries, counters, the snapshot
extras and the RNG state, and the state reached after 150 more per-item
offers. Restoring them must land on exactly that state, and the per-item
steps are unchanged, so continuing must reproduce the recorded snapshot
byte for byte (less the ``global_arrivals`` field the array store adds).
Point payloads now snapshot as columns, so for them the continuation is
compared by entries, counters and RNG state.

Regenerate the fixtures by running this file as a script with the
writing release's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=<checkout>/src python tests/test_list_store_compat.py OUT_DIR
"""

import io
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    ExponentialBias,
    GeneralBiasSampler,
    SkipUnbiasedReservoir,
    TimeDecayReservoir,
    TimestampedExponentialReservoir,
    UnbiasedReservoir,
    WindowBuffer,
    from_state_dict,
)
from repro.streams import StreamPoint

FIXTURES = Path(__file__).parent / "data" / "parent_list_store"

#: Fixture name -> sampler factory.
CONFIGS = {
    "unbiased": lambda: UnbiasedReservoir(20, rng=11),
    "unbiased_points": lambda: UnbiasedReservoir(20, rng=17),
    "skip_unbiased": lambda: SkipUnbiasedReservoir(20, rng=12),
    "window": lambda: WindowBuffer(20, rng=13),
    "timestamped": lambda: TimestampedExponentialReservoir(0.01, 20, rng=14),
    "time_decay": lambda: TimeDecayReservoir(
        0.02, 20, rate_memory=0.1, rng=15
    ),
    "general_bias": lambda: GeneralBiasSampler(
        ExponentialBias(0.05), 10, rng=16
    ),
}

#: Snapshot extras per family, recorded and compared after a restore.
EXTRAS = {
    "skip_unbiased": ("skip",),
    "timestamped": ("now", "timestamps"),
    "time_decay": ("now", "mean_gap", "timestamps", "insert_probs"),
    "general_bias": ("weight_sum", "probs"),
}


def _payload(name, i):
    """Ints with every fifth a tuple (must stay whole), or points whose
    labels include ``None`` and ``-1``."""
    if name.endswith("_points"):
        return StreamPoint(
            i + 1, np.array([i * 0.5, -i]), None if i % 3 else i % 4 - 1
        )
    return ("x", i) if i % 5 == 0 else i


def _stamp(i):
    """Non-decreasing wall clock with a long pause every 37 arrivals."""
    return 0.5 * i + 10.0 * (i // 37)


def _offer(sampler, name, lo, hi):
    """Per-item offers ``lo .. hi``, timed for the decay families."""
    for i in range(lo, hi):
        if name in ("timestamped", "time_decay"):
            sampler.offer_at(_payload(name, i), _stamp(i))
        else:
            sampler.offer(_payload(name, i))


def _canon(state):
    """Pickle bytes without the memo: compare state, not object sharing
    (a restored payload and a fresh one are equal but not the same)."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, 4)
    pickler.fast = True
    pickler.dump(state)
    return buffer.getvalue()


def _key(payload):
    if isinstance(payload, StreamPoint):
        return (payload.index, payload.values.tolist(), payload.label)
    return payload


def _report(sampler, name):
    """What a sampler says about itself: entries, counters, extras, RNG."""
    state = sampler.state_dict()
    return {
        "entries": [
            (int(e.arrival), _key(e.payload)) for e in sampler.entries()
        ],
        "counters": (
            sampler.t,
            sampler.offers,
            sampler.insertions,
            sampler.ejections,
        ),
        "extras": {field: state[field] for field in EXTRAS.get(name, ())},
        "rng_state": sampler.rng.bit_generator.state,
    }


def _record(name):
    sampler = CONFIGS[name]()
    _offer(sampler, name, 0, 150)
    if name not in ("timestamped", "time_decay"):
        sampler.offer_many([_payload(name, i) for i in range(150, 300)])
    else:
        _offer(sampler, name, 150, 300)
    record = {"state": sampler.state_dict(), **_report(sampler, name)}
    _offer(sampler, name, 300, 450)
    record["continued"] = _report(sampler, name)
    record["continued_snapshot"] = _canon(sampler.state_dict())
    return record


def write_snapshots(out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in CONFIGS:
        with open(out / f"{name}.pkl", "wb") as fh:
            pickle.dump(_record(name), fh, protocol=4)


def _load(name):
    with open(FIXTURES / f"{name}.pkl", "rb") as fh:
        return pickle.load(fh)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fixture_uses_the_list_layout(name):
    state = _load(name)["state"]
    assert state["class"] == type(CONFIGS[name]()).__name__
    assert "global_arrivals" not in state
    assert "points" not in state
    assert len(state["payloads"]) == len(state["arrivals"]) > 0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_restores_to_recorded_state(name):
    record = _load(name)
    sampler = from_state_dict(record["state"])
    assert type(sampler) is type(CONFIGS[name]())
    report = _report(sampler, name)
    for field in ("entries", "counters", "extras", "rng_state"):
        assert report[field] == record[field]
    assert sampler.global_arrivals().tolist() == (
        sampler.arrival_indices().tolist()
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_per_item_continuation_matches_parent(name):
    record = _load(name)
    sampler = from_state_dict(record["state"])
    _offer(sampler, name, 300, 450)
    assert _report(sampler, name) == record["continued"]
    if name.endswith("_points"):
        return  # points snapshot as columns now
    state = sampler.state_dict()
    assert state.pop("global_arrivals") == state["arrivals"]
    assert _canon(state) == record["continued_snapshot"]


if __name__ == "__main__":
    write_snapshots(sys.argv[1])
