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
3. unions the survivors on a common *age* axis: the fold reads each
   input's storage rows with their ages and restores a survivor of age
   ``a`` at arrival ``merged_t - a``, oldest first;
4. in the rare case the union still overflows, takes a simple random
   subset of exactly ``capacity`` (a conditionally uniform factor, again
   proportionality-preserving).

The result is a live :class:`~repro.core.space_constrained.SpaceConstrainedReservoir`
— continuing to ``offer()`` subsequent stream points maintains the merged
bias, because its insertion constant equals ``c*`` by construction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

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
    return _fold_columns(
        [
            (s, c, s.t - s.arrival_indices())
            for s, c in zip(samplers, constants)
        ],
        lam,
        capacity,
        max(s.t for s in samplers),
        rng,
    )


def _fold_columns(
    inputs: Sequence[Tuple[ReservoirSampler, float, np.ndarray]],
    lam: float,
    capacity: int,
    t: int,
    rng: RngLike,
) -> SpaceConstrainedReservoir:
    """Fold ``(sampler, c_i, ages)`` inputs into one reservoir at time ``t``.

    The kernel of :func:`fold_exponential_reservoirs` and of
    :meth:`ShardedReservoir.fold <repro.shard.ShardedReservoir.fold>`:
    ``c_i`` is the input's design constant and ``ages`` (int64) the age
    of each of its storage rows on the output's clock. An input that is
    thinned draws its coins as one ``random(k)``; an overflowing union is
    cut to ``capacity`` by one ``choice``; the survivors are stored
    oldest first, equal ages in union order. The draws, and so the
    generator state, are those of one scalar coin per resident.
    """
    capacity = int(capacity)
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    target_c = min(1.0, lam * capacity)
    for _, c_i, _ in inputs:
        if target_c > c_i + 1e-12:
            raise ValueError(
                f"target constant {target_c:.6g} exceeds input constant "
                f"{c_i:.6g}; lower the merged capacity (cannot up-sample)"
            )

    generator = as_generator(rng)
    kept: List[np.ndarray] = []
    for _, c_i, ages in inputs:
        keep_prob = target_c / c_i
        # Snap to the no-thinning degeneracy within float tolerance so a
        # fold at the inputs' own constant stays coin-free even when
        # target_c = lam * capacity rounds one ulp below c_i.
        if keep_prob >= 1.0 - 1e-12:
            kept.append(np.arange(len(ages)))
        else:
            kept.append(
                np.flatnonzero(generator.random(len(ages)) < keep_prob)
            )
    age = np.concatenate([ages[r] for (_, _, ages), r in zip(inputs, kept)])

    pick = np.arange(len(age))
    if len(pick) > capacity:
        # Conditionally uniform down-sample to exactly `capacity`.
        pick = generator.choice(len(pick), size=capacity, replace=False)
    pick = pick[np.argsort(-age[pick], kind="stable")]

    out = SpaceConstrainedReservoir(
        lam=lam, capacity=capacity, p_in=target_c, rng=generator
    )
    out.t = t
    out.offers = t
    storage = _union_storage([s for s, _, _ in inputs], kept, pick)
    storage["arrivals"] = np.maximum(1, t - age[pick])
    out._restore_storage(storage)
    out.insertions = len(pick)
    return out


def _union_storage(
    samplers: Sequence[ReservoirSampler],
    kept: Sequence[np.ndarray],
    pick: np.ndarray,
) -> Dict[str, Any]:
    """Snapshot storage fields of the rows ``pick`` of the union, which
    is the storage rows ``kept[i]`` of each ``samplers[i]`` in turn.

    Point columns when every sampler that keeps a row holds point
    columns of one dimensionality, else a payload list (column-only rows
    boxed).
    """
    parts = [(s, r) for s, r in zip(samplers, kept) if len(r)]
    dims = {None if s._vals is None else s._vals.shape[1] for s, _ in parts}
    if len(dims) == 1 and None not in dims:
        blocks = [s._column_block(r) for s, r in parts]
        return {
            "points": {
                field: np.concatenate([getattr(b, field) for b in blocks])[pick]
                for field in ("index", "label", "none", "values")
            }
        }
    payloads = [p for s, r in parts for p in s._payloads_at(r)]
    return {"payloads": [payloads[j] for j in pick.tolist()]}
