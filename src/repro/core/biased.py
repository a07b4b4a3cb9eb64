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
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.bias import ExponentialBias
from repro.core.columns import (
    ResidentColumns,
    build_resident_columns,
    frozen_columns,
    point_rows,
)
from repro.core.reservoir import (
    _SAMPLER_CLASSES,
    ReservoirSampler,
    SampleEntry,
)
from repro.utils.rng import RngLike

__all__ = ["ExponentialReservoir"]


_NO_PAYLOADS = np.empty(0, dtype=object)
_NO_INDICES = np.empty(0, dtype=np.int64)


def _object_array(block: Sequence[Any]) -> np.ndarray:
    """1-D object array of ``block`` (safe for tuple payloads).

    ``fromiter`` stores each item as it is, without probing it for
    sequence structure the way slice assignment does.
    """
    return np.fromiter(block, dtype=object, count=len(block))


class ExponentialReservoir(ReservoirSampler):
    """Biased reservoir sampler implementing Algorithm 2.1.

    Residents live in arrays of length ``capacity``: payloads (object),
    local arrival indices and *global* arrival indices (int64).
    The global axis is the whole-stream position of each resident when the
    reservoir is one shard of a partitioned stream (:meth:`ingest`,
    :mod:`repro.shard`); for a stand-alone reservoir it equals the local
    arrival index.

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
        # The resident arrays are allocated on the first insert, so that
        # building a reservoir costs no O(n) object-array fill.
        self._pay = _NO_PAYLOADS
        self._arr = self._glob = _NO_INDICES
        self._size = 0
        # Feature/label columns, allocated by the first `resident_columns()`
        # call (see `_build_columns`).
        self._vals: Optional[np.ndarray] = None

    def _allocate(self) -> None:
        """Allocate empty resident arrays of length ``capacity``."""
        n = self.capacity
        self._pay = np.empty(n, dtype=object)
        self._arr = np.empty(n, dtype=np.int64)
        self._glob = np.empty(n, dtype=np.int64)
        self._vals = None  # stale columns: the next build starts over

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def offer(self, payload: Any) -> bool:
        """Algorithm 2.1 step: deterministic insert, ``F(t)``-biased eject."""
        size = self._size  # n F(t), evaluated before this arrival
        self.t += 1
        self.offers += 1
        self.insertions += 1
        if size == self.capacity or self.rng.random() < size / self.capacity:
            slot = int(self.rng.integers(size))
            self.ejections += 1
            self._record_op(("replace", slot))
        else:
            if size == 0:
                self._allocate()
            slot = size
            self._size = size + 1
            self._record_op(("append", slot))
        self._pay[slot] = payload
        self._arr[slot] = self._glob[slot] = self.t
        return True

    def ingest(self, payloads: np.ndarray, global_indices: np.ndarray) -> int:
        """Block ingest with explicit global arrival indices.

        ``payloads`` is a 1-D object array and ``global_indices`` the
        matching whole-stream arrival index per item, in stream order.
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

    def _offer_block(
        self, block: Sequence[Any], glob: Optional[np.ndarray] = None
    ) -> int:
        """Closed-form Algorithm 2.1 over a block (same distribution).

        Every arrival is inserted, so the whole block goes to
        :meth:`_scatter` with local arrival indices ``t + 1 .. t + b``.
        ``glob`` holds the block's global arrival indices (default: the
        local ones).
        """
        b = len(block)
        local = self.t + 1 + np.arange(b, dtype=np.int64)
        self._scatter(
            block if isinstance(block, np.ndarray) else _object_array(block),
            local,
            local if glob is None else glob,
        )
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
            self._size = s0 + new_count
        self._pay[slots] = pay[rows]
        self._arr[slots] = local[rows]
        self._glob[slots] = glob[rows]
        self.insertions += k
        self.ejections += k - new_count

    def _eject_random(self, count: int) -> List[SampleEntry]:
        """Remove ``count`` uniformly random residents (without replacement).

        One victim is swap-removed (the last resident moves into its
        slot); more are removed by one order-preserving compaction.
        Column rows, once allocated, move with their residents.
        """
        size = self._size
        count = min(int(count), size)
        if count <= 0:
            return []
        columns = [self._pay, self._arr, self._glob]
        if self._vals is not None:
            columns += [self._vals, self._labs]
        if count == 1:
            victim = int(self.rng.integers(size))
            evicted = [SampleEntry(int(self._arr[victim]), self._pay[victim])]
            for column in columns:
                column[victim] = column[size - 1]
        else:
            victims = self.rng.choice(size, size=count, replace=False)
            evicted = [
                SampleEntry(int(self._arr[v]), self._pay[v]) for v in victims
            ]
            keep = np.ones(size, dtype=bool)
            keep[victims] = False
            for column in columns:
                column[: size - count] = column[:size][keep]
        self._pay[size - count : size] = None  # release evicted payloads
        self._size = size - count
        self.ejections += count
        self._record_op(("compact",))
        return evicted

    # ------------------------------------------------------------------ #
    # Inspection (array-backed overrides)
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        return self._size

    def payloads(self) -> List[Any]:
        """Copy of the resident payloads (order is storage order)."""
        return self._pay[: self._size].tolist()

    def arrival_indices(self) -> np.ndarray:
        """1-based local arrival indices of the residents (int64 copy)."""
        return self._arr[: self._size].copy()

    def global_arrivals(self) -> np.ndarray:
        """Global (whole-stream) arrival index per resident."""
        return self._glob[: self._size].copy()

    def _build_columns(self) -> ResidentColumns:
        """Refresh the resident columns in place; return a frozen copy.

        Feature and label columns of length ``capacity`` are allocated on
        the first call. Each later call rewrites only the rows whose local
        arrival index is above the ``t`` of the previous refresh: every
        insert stamps its slot with the current ``t``, and ejection
        compaction moves column rows along with their residents. The
        returned arrays are copies of the ``[:size]`` slices, so a view
        never changes under its holder.
        """
        k = self._size
        if not k:
            return build_resident_columns([], _NO_INDICES)
        if self._vals is None:
            values, labels = point_rows(self._pay[:k])
            self._vals = np.empty((self.capacity,) + values.shape[1:])
            self._labs = np.empty(self.capacity, dtype=np.int64)
            self._vals[:k], self._labs[:k] = values, labels
        else:
            dirty = np.nonzero(self._arr[:k] > self._cols_t)[0]
            if len(dirty):
                self._vals[dirty], self._labs[dirty] = point_rows(
                    self._pay[dirty]
                )
        self._cols_t = self.t
        return frozen_columns(
            self._vals[:k].copy(), self._labs[:k].copy(), self._arr[:k].copy()
        )

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def _storage_state(self) -> Dict[str, Any]:
        k = self._size
        return {
            "payloads": self._pay[:k].tolist(),
            "arrivals": self._arr[:k].tolist(),
            "global_arrivals": self._glob[:k].tolist(),
        }

    def _restore_storage(self, state: Dict[str, Any]) -> None:
        k = len(state["payloads"])
        self._allocate()
        # Elementwise object assignment (tuple payloads must not broadcast).
        self._pay[:k] = _object_array(state["payloads"])
        self._arr[:k] = state["arrivals"]
        # Snapshots of a stand-alone reservoir written before the global
        # axis was stored have it equal to the local one.
        self._glob[:k] = state.get("global_arrivals", state["arrivals"])
        self._size = k

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
