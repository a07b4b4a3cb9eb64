"""Boxed reference fold for the columnar Theorem 3.3 fold.

This is the fold as it walked boxed residents: every resident becomes a
``SampleEntry`` and an ``(age, payload)`` pair, each thinning coin is one
scalar ``random()`` draw, the survivors are sorted with a Python key and
the output is restored from a payload list. A sharded facade is folded
through :class:`_GlobalAxisView`, which re-expresses each worker's
residents on the global arrival axis. :mod:`tests.test_fold_columnar`
pins :func:`repro.core.merge.fold_exponential_reservoirs` and
:meth:`repro.shard.ShardedReservoir.fold` to the exact snapshot bytes and
generator state of these functions.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.merge import proportionality_constant
from repro.core.reservoir import SampleEntry
from repro.core.space_constrained import SpaceConstrainedReservoir
from repro.utils.rng import RngLike, as_generator


class _GlobalAxisView:
    """A worker reservoir re-expressed on the global arrival axis: global
    ``t``, global-arrival entries and the design ``p_in * exp(-lam *
    age)`` with ``lam`` the global rate ``p_in / n_total``."""

    exponential_design = True

    def __init__(
        self,
        entries: List[SampleEntry],
        lam: float,
        p_in: float,
        capacity: int,
        t: int,
    ) -> None:
        self._entries = entries
        self.lam = float(lam)
        self.p_in = float(p_in)
        self.capacity = int(capacity)
        self.t = int(t)

    def entries(self) -> List[SampleEntry]:
        return list(self._entries)


def _aged_entries(sampler) -> List[Tuple[int, object]]:
    """Residents as (age, payload) pairs on the sampler's own clock."""
    t = sampler.t
    return [(t - e.arrival, e.payload) for e in sampler.entries()]


def fold_exponential_reservoirs(
    samplers: Iterable,
    capacity: Optional[int] = None,
    rng: RngLike = None,
) -> SpaceConstrainedReservoir:
    """Boxed N-way Theorem 3.3 fold."""
    samplers = list(samplers)
    if not samplers:
        raise ValueError("need at least one input reservoir to fold")
    constants = [proportionality_constant(s) for s in samplers]
    lam = float(samplers[0].lam)
    for other in samplers[1:]:
        if not np.isclose(lam, other.lam, rtol=1e-9):
            raise ValueError("bias rates differ")
    if capacity is None:
        capacity = min(s.capacity for s in samplers)
    capacity = int(capacity)
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")

    generator = as_generator(rng)
    target_c = min(1.0, lam * capacity)
    survivors: List[Tuple[int, object]] = []
    for sampler, c_i in zip(samplers, constants):
        if target_c > c_i + 1e-12:
            raise ValueError("cannot up-sample")
        keep_prob = target_c / c_i
        if keep_prob >= 1.0 - 1e-12:
            survivors.extend(_aged_entries(sampler))
        else:
            for age, payload in _aged_entries(sampler):
                if generator.random() < keep_prob:
                    survivors.append((age, payload))

    if len(survivors) > capacity:
        chosen = generator.choice(
            len(survivors), size=capacity, replace=False
        )
        survivors = [survivors[i] for i in chosen]

    merged_t = max(s.t for s in samplers)
    out = SpaceConstrainedReservoir(
        lam=lam, capacity=capacity, p_in=target_c, rng=generator
    )
    out.t = merged_t
    out.offers = merged_t
    survivors.sort(key=lambda pair: -pair[0])
    out._restore_storage(
        {
            "payloads": [payload for _, payload in survivors],
            "arrivals": [max(1, merged_t - age) for age, _ in survivors],
        }
    )
    out.insertions = len(survivors)
    return out


def merge_exponential_reservoirs(a, b, capacity=None, rng=None):
    """Boxed two-way fold."""
    return fold_exponential_reservoirs((a, b), capacity=capacity, rng=rng)


def fold_sharded(
    facade, capacity: Optional[int] = None, rng: RngLike = None
) -> SpaceConstrainedReservoir:
    """Boxed :meth:`~repro.shard.ShardedReservoir.fold`: each worker is
    walked into a :class:`_GlobalAxisView` and the views are folded."""
    facade.flush()
    views = []
    for worker in facade._workers:
        sampler = worker.sampler
        entries = [
            SampleEntry(g, p)
            for g, p in zip(
                sampler.global_arrivals().tolist(), sampler.payloads()
            )
        ]
        views.append(
            _GlobalAxisView(
                entries,
                lam=facade.lam,
                p_in=facade.p_in,
                capacity=facade.shard_capacity,
                t=facade.t,
            )
        )
    generator = facade._fold_rng if rng is None else as_generator(rng)
    return fold_exponential_reservoirs(
        views,
        capacity=facade.capacity if capacity is None else capacity,
        rng=generator,
    )
