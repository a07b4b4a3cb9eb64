"""Algorithm 2.1 — exponentially biased reservoir sampling.

The paper's core maintenance policy for the memory-less bias
``f(r, t) = exp(-lambda (t - r))`` when the available space covers the full
requirement ``n = ceil(1/lambda)`` (Approximation 2.1):

1. The arriving point is inserted *deterministically*.
2. With probability ``F(t)`` (the current fill fraction) a uniformly random
   resident is ejected to make room; otherwise the reservoir grows by one.

The per-resident ejection hazard per arrival is
``F(t) * 1/(n F(t)) = 1/n``, so a point that arrived at ``r`` survives to
time ``t`` with probability ``(1 - 1/n)^(t-r) ≈ exp(-(t-r)/n)``
(Theorem 2.2) — exactly the exponential bias with ``lambda = 1/n``.

Observation 2.1: the insertion/ejection policy is parameter-free; the bias
rate is *set by the reservoir size alone*. Choose the size from the
application's ``lambda``, not the other way around.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from repro.core.bias import ExponentialBias
from repro.core.reservoir import _SAMPLER_CLASSES, ReservoirSampler
from repro.utils.rng import RngLike

__all__ = ["ExponentialReservoir"]


class ExponentialReservoir(ReservoirSampler):
    """Biased reservoir sampler implementing Algorithm 2.1.

    Residents live in the array store of
    :class:`~repro.core.reservoir.ReservoirSampler`; this class adds the
    policy: the per-item step, the block kernel (:meth:`_scatter`) and
    :meth:`ingest`, which takes explicit global arrival indices for a
    reservoir that is one shard of a partitioned stream
    (:mod:`repro.shard`).

    Parameters
    ----------
    lam:
        Target bias rate ``lambda``. The reservoir capacity defaults to the
        natural size ``ceil(1/lambda)``; if ``capacity`` is also given it
        overrides the size and the *effective* bias rate becomes
        ``1/capacity`` (Observation 2.1). Exactly one of ``lam`` /
        ``capacity`` is required.
    capacity:
        Explicit reservoir size ``n``.
    rng:
        Seed or generator.

    Examples
    --------
    >>> res = ExponentialReservoir(lam=0.01, rng=7)
    >>> res.capacity
    100
    >>> res.extend(range(1000)) == 1000  # every offer is inserted
    True
    >>> res.is_full
    True
    """

    exponential_design = True

    #: Insertion probability of Algorithm 3.1; Algorithm 2.1 inserts every
    #: arrival, and multiplying by 1.0 leaves its model floats unchanged.
    p_in = 1.0

    def __init__(
        self,
        lam: Optional[float] = None,
        capacity: Optional[int] = None,
        rng: RngLike = None,
    ) -> None:
        if lam is None and capacity is None:
            raise ValueError("provide lam and/or capacity")
        if capacity is None:
            capacity = ExponentialBias(lam).natural_reservoir_size()
        super().__init__(capacity, rng)
        # Observation 2.1: the realized bias rate is determined by the size.
        self.lam = 1.0 / self.capacity
        self.requested_lam = float(lam) if lam is not None else self.lam
        self.bias = ExponentialBias(self.lam)

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def offer(self, payload: Any) -> bool:
        """Algorithm 2.1 step: deterministic insert, ``F(t)``-biased eject."""
        size = self._size  # n F(t), evaluated before this arrival
        self.t += 1
        self.offers += 1
        slot = size
        if size == self.capacity or self.rng.random() < size / self.capacity:
            slot = int(self.rng.integers(size))
        self._insert(slot, payload)
        return True

    def ingest(self, payloads: np.ndarray, global_indices: np.ndarray) -> int:
        """Block ingest with explicit global arrival indices.

        ``payloads`` is a :class:`~repro.streams.point.PointBlock`, a 1-D
        object array or a list, and ``global_indices`` the matching
        whole-stream arrival index per item, in stream order.
        Consumes the same randomness as :meth:`offer_many` over the same
        block. Returns the number of stored offers (all of them under
        Algorithm 2.1).
        """
        if not len(payloads):
            return 0
        stored = self._offer_block(
            payloads, np.asarray(global_indices, dtype=np.int64)
        )
        self._mark_compact()
        return stored

    def _admit_block(self, pay: Any, glob: Optional[np.ndarray]) -> int:
        """Closed-form Algorithm 2.1 over a block (same distribution).

        Every arrival is inserted, so the whole block goes to
        :meth:`_scatter` with local arrival indices ``t + 1 .. t + b``.
        """
        b = len(pay)
        local = self.t + 1 + np.arange(b, dtype=np.int64)
        self._scatter(pay, local, local if glob is None else glob)
        self.t += b
        self.offers += b
        return b

    def _scatter(
        self, pay: np.ndarray, local: np.ndarray, glob: np.ndarray
    ) -> None:
        """Insert the block's admitted arrivals, in stream order.

        ``pay`` holds the inserted payloads and ``local``/``glob`` their
        local and global arrival indices; the caller advances ``t`` and
        ``offers`` over the whole block, admitted or not.

        Uses the *virtual-slot* formulation of the policy: each inserted
        arrival is thrown into one of ``n`` virtual slots uniformly at
        random. Hitting an occupied slot evicts its resident (probability
        ``F(t)``, victim uniform among residents — exactly the paper's
        eject step); hitting an empty slot occupies it (probability
        ``1 - F(t)`` — the append step). The two processes are the same
        Markov chain on reservoir contents, but the virtual form has no
        sequential dependence, so an entire block reduces to one bulk
        draw of slot indices in which only each slot's *last* writer is
        materialized (intermediate occupants are unobservable). Newly
        occupied virtual slots are compacted onto the storage tail in
        first-hit order, matching the per-item append order.

        ``last[victims] = arange(k)`` relies on numpy fancy-index scatter
        semantics (duplicate indices keep the last write) to find each
        slot's final writer in O(k); the reversed scatter finds each new
        slot's *first* hit, which fixes the append order.
        """
        n = self.capacity
        k = len(pay)
        s0 = self._size
        if s0 == 0:
            self._allocate()
        victims = self.rng.integers(0, n, size=k)
        last = np.full(n, -1, dtype=np.int64)
        last[victims] = np.arange(k)
        touched = np.nonzero(last >= 0)[0]
        if s0 == n:
            # Steady state: every touched slot is an in-place replacement.
            slots, rows = touched, last[touched]
            new_count = 0
        else:
            first = np.full(n, -1, dtype=np.int64)
            first[victims[::-1]] = np.arange(k - 1, -1, -1)
            existing = touched[touched < s0]
            new_slots = touched[touched >= s0]
            order = np.argsort(first[new_slots], kind="stable")
            new_count = len(new_slots)
            slots = np.concatenate([existing, np.arange(s0, s0 + new_count)])
            rows = np.concatenate([last[existing], last[new_slots[order]]])
        self._write(slots, rows, pay, local, glob)
        self._size = s0 + new_count
        self.insertions += k
        self.ejections += k - new_count

    # ------------------------------------------------------------------ #
    # Snapshots and inclusion model
    # ------------------------------------------------------------------ #

    def _extra_state(self) -> dict:
        return {"requested_lam": self.requested_lam}

    def _restore_extra(self, state: dict) -> None:
        self.requested_lam = float(state["requested_lam"])

    @classmethod
    def _construct_from_state(cls, state: dict) -> "ExponentialReservoir":
        # The first positional parameter is ``lam``; capacity must be named.
        return cls(capacity=state["capacity"])

    def inclusion_probability(self, r: int, t: Optional[int] = None) -> float:
        """Theorem 2.2 / 3.1: ``p(r, t) ≈ p_in * exp(-lambda (t - r))``."""
        t = self.t if t is None else int(t)
        if not 1 <= r <= t:
            raise ValueError(f"require 1 <= r <= t, got r={r}, t={t}")
        return self.p_in * math.exp(-self.lam * (t - r))

    def inclusion_probabilities(
        self, r: np.ndarray, t: Optional[int] = None
    ) -> np.ndarray:
        """Vectorized Theorem 2.2 / 3.1 model."""
        t = self.t if t is None else int(t)
        r = np.asarray(r, dtype=np.float64)
        if np.any(r < 1) or np.any(r > t):
            raise ValueError("require 1 <= r <= t")
        return self.p_in * np.exp(-self.lam * (t - r))

    def survival_probability(self, age: int) -> float:
        """Exact per-policy survival ``(1 - p_in/n)^age`` (pre-approximation).

        A resident survives one arrival if no insertion happens
        (``1 - p_in``) or an insertion happens but it is not the victim
        (``p_in (1 - 1/n)``); the sum is ``1 - p_in/n``. Theorems 2.2 and
        3.1 approximate this by ``exp(-lambda age)``; tests compare the
        two to quantify the approximation error.
        """
        if age < 0:
            raise ValueError(f"age must be >= 0, got {age}")
        return (1.0 - self.p_in / self.capacity) ** age


# Sharded checkpoints written before the shard kernel moved into
# ExponentialReservoir name their workers' class ArrayExponentialShard.
_SAMPLER_CLASSES["ArrayExponentialShard"] = ExponentialReservoir
