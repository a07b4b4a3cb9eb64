"""Merging biased reservoirs from distributed streams — an extension.

Setting: two nodes each maintain an exponentially biased reservoir (same
bias rate ``lambda``) over their own partition of a stream, and a
coordinator wants one reservoir representing the *union*, still
proportional to ``exp(-lambda * age)``, in bounded space.

The tool is the same one Theorem 3.3 uses for variable reservoir sampling:
*uniform thinning rescales every inclusion probability by the same factor
and therefore preserves proportionality.* Each input reservoir's design is
``p_i(x) = c_i * exp(-lambda * age(x))`` with a known proportionality
constant ``c_i`` (``1`` for Algorithm 2.1, ``p_in`` for Algorithm 3.1 and
variable sampling). The merge:

1. picks the target constant ``c* = lambda * capacity`` of the output
   reservoir (an Algorithm 3.1 design at the merged capacity);
2. thins each input independently with probability ``c* / c_i``
   (requiring ``c* <= c_i``, i.e. merged capacity at most the smaller
   input capacity — you cannot up-sample information you never kept);
3. unions the survivors on a common *age* axis (each input's own arrival
   counter is translated to ``merged_t - age``);
4. in the rare case the union still overflows, takes a simple random
   subset of exactly ``capacity`` (a conditionally uniform factor, again
   proportionality-preserving).

The result is a live :class:`~repro.core.space_constrained.SpaceConstrainedReservoir`
— continuing to ``offer()`` subsequent stream points maintains the merged
bias, because its insertion constant equals ``c*`` by construction.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.core.space_constrained import SpaceConstrainedReservoir
from repro.utils.rng import RngLike, as_generator

__all__ = [
    "proportionality_constant",
    "merge_exponential_reservoirs",
    "fold_exponential_reservoirs",
]


def proportionality_constant(sampler: ReservoirSampler) -> float:
    """The ``c`` in ``p(x) = c * exp(-lambda * age)`` for a sampler.

    ``1.0`` for Algorithm 2.1 (deterministic insertion); the current
    ``p_in`` for Algorithm 3.1 and variable reservoir sampling.

    Eligibility is decided by the ``exponential_design`` class marker, not
    by the presence of a ``lam`` attribute: samplers such as
    :class:`~repro.core.time_proportional.TimeDecayReservoir` carry decay
    rates (and even recorded per-resident insertion probabilities) without
    maintaining the count-axis design ``p(x) = c * exp(-lambda * age)``,
    and silently returning their ``p_in`` would corrupt a merge.
    """
    if not getattr(sampler, "exponential_design", False):
        if hasattr(sampler, "lam"):
            detail = (
                "carries a 'lam' attribute but does not maintain the "
                "exponential inclusion design on the arrival-count axis"
            )
        else:
            detail = "no 'lam'"
        raise TypeError(
            f"{type(sampler).__name__} is not an exponentially biased "
            f"reservoir ({detail})"
        )
    return float(getattr(sampler, "p_in", 1.0))


def _aged_entries(sampler: ReservoirSampler) -> List[Tuple[int, object]]:
    """Residents as (age, payload) pairs on the sampler's own clock."""
    t = sampler.t
    return [(t - e.arrival, e.payload) for e in sampler.entries()]


def merge_exponential_reservoirs(
    a: ReservoirSampler,
    b: ReservoirSampler,
    capacity: Optional[int] = None,
    rng: RngLike = None,
) -> SpaceConstrainedReservoir:
    """Merge two exponentially biased reservoirs over disjoint streams.

    Parameters
    ----------
    a, b:
        Input reservoirs. Must share the same bias rate ``lam``; their
        streams are treated as aligned at "now" (age 0 == most recent
        arrival on either node).
    capacity:
        Output reservoir size; defaults to (and must not exceed) the
        smaller input capacity, and must not push the target constant
        ``lambda * capacity`` above either input's constant.
    rng:
        Seed or generator for the thinning coins.

    Returns
    -------
    SpaceConstrainedReservoir
        Live sampler with the merged residents, ``p_in = lambda *
        capacity``, and ``t = max(a.t, b.t)``. Offer new points to keep
        sampling the combined stream.
    """
    return fold_exponential_reservoirs((a, b), capacity=capacity, rng=rng)


def fold_exponential_reservoirs(
    samplers: Iterable[ReservoirSampler],
    capacity: Optional[int] = None,
    rng: RngLike = None,
) -> SpaceConstrainedReservoir:
    """N-way generalization of :func:`merge_exponential_reservoirs`.

    Folds any number of exponentially biased reservoirs (common ``lam``)
    into one live :class:`SpaceConstrainedReservoir` by Theorem 3.3
    uniform thinning on a common age axis. This is the primitive the
    sharded ingestion coordinator (:mod:`repro.shard`) uses to collapse
    ``W`` worker reservoirs into the global sample in a single pass — a
    pairwise merge cascade would thin intermediates ``W - 1`` times and
    discard survivors it did not have to.

    When an input's constant already equals the target (``keep_prob = 1``)
    its residents are kept outright without spending thinning coins —
    mirroring Algorithm 3.1's ``p_in = 1`` degeneracy — so a no-thinning
    fold is deterministic given the inputs.
    """
    samplers = list(samplers)
    if not samplers:
        raise ValueError("need at least one input reservoir to fold")
    constants = [proportionality_constant(s) for s in samplers]
    lam = float(samplers[0].lam)
    for other in samplers[1:]:
        if not np.isclose(lam, other.lam, rtol=1e-9):
            raise ValueError(
                f"bias rates differ: {lam} vs {other.lam}; merging "
                "requires a common lambda"
            )
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
            raise ValueError(
                f"target constant {target_c:.6g} exceeds input constant "
                f"{c_i:.6g}; lower the merged capacity (cannot up-sample)"
            )
        keep_prob = target_c / c_i
        # Snap to the no-thinning degeneracy within float tolerance so a
        # fold at the inputs' own constant stays coin-free even when
        # target_c = lam * capacity rounds one ulp below c_i.
        if keep_prob >= 1.0 - 1e-12:
            survivors.extend(_aged_entries(sampler))
        else:
            for age, payload in _aged_entries(sampler):
                if generator.random() < keep_prob:
                    survivors.append((age, payload))

    if len(survivors) > capacity:
        # Conditionally uniform down-sample to exactly `capacity`.
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
