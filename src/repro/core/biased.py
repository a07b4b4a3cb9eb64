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
)
from repro.core.reservoir import (
    _SAMPLER_CLASSES,
    ReservoirSampler,
    SampleEntry,
)
from repro.streams.point import PointBlock
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


def _as_payloads(block: Sequence[Any]) -> Any:
    """A block as the store writes it: a :class:`PointBlock` or a 1-D
    object array is used as it is, anything else becomes an object array."""
    if isinstance(block, (np.ndarray, PointBlock)):
        return block
    return _object_array(block)


class ExponentialReservoir(ReservoirSampler):
    """Biased reservoir sampler implementing Algorithm 2.1.

    Residents live in arrays of length ``capacity``: local arrival
    indices and *global* arrival indices (int64), an object column, and,
    for :class:`~repro.streams.point.StreamPoint` residents, point
    columns: feature values ``(capacity, d)`` float64, labels, a
    ``None``-label mask and point indices. The global axis is the
    whole-stream position of each resident when the reservoir is one
    shard of a partitioned stream (:meth:`ingest`, :mod:`repro.shard`);
    for a stand-alone reservoir it equals the local arrival index.

    The point columns are allocated by the first
    :class:`~repro.streams.point.PointBlock` offered, the first
    :meth:`resident_columns` call, or the restore of a columnar
    snapshot, provided every resident is a point a block can hold
    (:meth:`PointBlock.from_points
    <repro.streams.point.PointBlock.from_points>`). From then on every
    insert writes them. Rows that arrived in a block live in the columns
    alone (their object cell is ``None``) and :meth:`payloads` boxes them
    on demand; an object offered as an object also keeps its object
    cell. An insert the columns cannot hold (another payload type or
    dimensionality) boxes the column-only rows and drops the columns.

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

    #: `offer_many` hands point blocks to the store whole.
    _block_types = (list, tuple, PointBlock)

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
        # Point columns (class docstring); `_idx`, `_labs` and `_none`
        # exist whenever `_vals` is not None.
        self._vals: Optional[np.ndarray] = None

    def _allocate(self) -> None:
        """Allocate empty resident arrays of length ``capacity``."""
        n = self.capacity
        self._pay = np.empty(n, dtype=object)
        self._arr = np.empty(n, dtype=np.int64)
        self._glob = np.empty(n, dtype=np.int64)
        self._vals = None  # no residents: the next block allocates anew

    # ------------------------------------------------------------------ #
    # Point columns
    # ------------------------------------------------------------------ #

    def _columnize(self, dimensions: Optional[int] = None) -> bool:
        """Allocate the point columns over the current residents.

        Returns ``False`` (allocating nothing) when a resident is not a
        point a block can hold, or its dimensionality is not
        ``dimensions``; an empty store needs ``dimensions``.
        """
        k = self._size
        block = PointBlock.from_points(self._pay[:k]) if k else None
        if block is not None:
            if dimensions not in (None, block.dimensions):
                return False
            dimensions = block.dimensions
        elif k or dimensions is None:
            return False
        n = self.capacity
        self._vals = np.empty((n, dimensions))
        self._idx = np.empty(n, dtype=np.int64)
        self._labs = np.empty(n, dtype=np.int64)
        self._none = np.empty(n, dtype=np.bool_)
        if k:
            self._put_columns(slice(0, k), block)
        return True

    def _put_columns(
        self, slots: Any, block: PointBlock, rows: Any = slice(None)
    ) -> None:
        """Point-column ``slots`` from ``block`` ``rows`` (one each, or
        arrays)."""
        self._idx[slots] = block.index[rows]
        self._labs[slots] = block.label[rows]
        self._none[slots] = block.none[rows]
        self._vals[slots] = block.values[rows]

    def _column_block(self, rows: Any) -> PointBlock:
        """Copies of the column ``rows`` as a :class:`PointBlock`."""
        return PointBlock._of(
            self._idx[rows].copy(),
            self._labs[rows].copy(),
            self._none[rows].copy(),
            self._vals[rows].copy(),
        )

    def _payloads_at(self, rows: np.ndarray) -> List[Any]:
        """Payloads of residents ``rows``; column-only ones (a ``None``
        object cell while the point columns exist) are boxed."""
        out = self._pay[rows].tolist()
        if self._vals is not None:
            boxed = [i for i, cell in enumerate(out) if cell is None]
            if boxed:
                points = self._column_block(rows[boxed]).points()
                for i, point in zip(boxed, points):
                    out[i] = point
        return out

    def _drop_columns(self, written: Any = ()) -> None:
        """Box the column-only residents into objects, drop the columns.

        ``written`` rows hold objects of the current block call (a
        ``None`` cell there is a ``None`` payload, not a column-only row).
        """
        if self._vals is not None:
            rows = np.setdiff1d(np.arange(self._size), written)
            self._pay[rows] = _object_array(self._payloads_at(rows))
        self._vals = None

    def _holds(self, block: PointBlock) -> bool:
        """Whether the point columns can take ``block``, allocating them
        over the current residents if need be (an empty store allocates
        at its first write)."""
        if self._vals is None:
            return not self._size or self._columnize(block.dimensions)
        return self._vals.shape[1] == block.dimensions

    def _write(self, slots: Any, rows: Any, pay: Any, local, glob) -> None:
        """Store block ``rows`` in ``slots`` (one each, or arrays; a
        repeated slot keeps its last row); the caller moves ``_size`` and
        the counters afterwards.

        A :class:`PointBlock` (one :meth:`_holds` accepted) goes to the
        point columns alone, an object array to the object cells
        (:meth:`_offer_block` fills their point columns).
        """
        if isinstance(pay, PointBlock):
            if self._vals is None:
                self._columnize(pay.dimensions)  # an empty store
            self._pay[slots] = None
            self._put_columns(slots, pay, rows)
        else:
            self._pay[slots] = pay[rows]
        self._arr[slots] = local[rows]
        self._glob[slots] = glob[rows]

    def _fill_columns(self, t0: int) -> None:
        """Point columns for the object rows written since arrival ``t0``;
        drops the columns if one of them cannot be held."""
        written = np.flatnonzero(self._arr[: self._size] > t0)
        if not len(written):
            return
        block = PointBlock.from_points(self._pay[written])
        if block is None or block.dimensions != self._vals.shape[1]:
            self._drop_columns(written)
        else:
            self._put_columns(written, block)

    def _store(self, slot: int, payload: Any) -> None:
        """Store one offered payload in ``slot`` at arrival ``t``, and its
        point-column row while the columns exist."""
        if self._vals is not None:
            row = PointBlock.row_of(payload)
            if row is None or row[3].shape != self._vals.shape[1:]:
                self._drop_columns()
            else:
                self._idx[slot], self._labs[slot], self._none[slot] = row[:3]
                self._vals[slot] = row[3]
        self._pay[slot] = payload
        self._arr[slot] = self._glob[slot] = self.t

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
            self._record_op(("append", slot))
        self._store(slot, payload)
        if slot == size:
            self._size = size + 1
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

    def _offer_block(
        self, block: Sequence[Any], glob: Optional[np.ndarray] = None
    ) -> int:
        """Run the family's block kernel (:meth:`_admit_block`) on
        ``block``; ``glob`` holds its global arrival indices (default:
        the local ones).

        A :class:`~repro.streams.point.PointBlock` writes the point
        columns as the kernel goes; one the columns cannot hold is boxed
        first (and drops them). An object block writes only object
        cells, and the point columns of the rows it wrote (those whose
        local arrival is past the call's start) are filled once here, so
        a kernel that writes many small segments converts each payload
        once.
        """
        pay = _as_payloads(block)
        if isinstance(pay, PointBlock) and not self._holds(pay):
            self._drop_columns()
            pay = _object_array(pay.points())
        t0 = self.t
        stored = self._admit_block(pay, glob)
        if self._vals is not None and not isinstance(pay, PointBlock):
            self._fill_columns(t0)
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

    def _eject_random(self, count: int) -> List[SampleEntry]:
        """Remove ``count`` uniformly random residents (without replacement).

        One victim is swap-removed (the last resident moves into its
        slot); more are removed by one order-preserving compaction.
        Point-column rows, once allocated, move with their residents.
        """
        size = self._size
        count = min(int(count), size)
        if count <= 0:
            return []
        columns = [self._pay, self._arr, self._glob]
        if self._vals is not None:
            columns += [self._vals, self._idx, self._labs, self._none]
        if count == 1:
            victim = int(self.rng.integers(size))
            payload = self._pay[victim]
            if payload is None and self._vals is not None:
                payload = self._payloads_at(np.array([victim]))[0]
            evicted = [SampleEntry(int(self._arr[victim]), payload)]
            for column in columns:
                column[victim] = column[size - 1]
        else:
            victims = self.rng.choice(size, size=count, replace=False)
            evicted = [
                SampleEntry(arrival, payload)
                for arrival, payload in zip(
                    self._arr[victims].tolist(), self._payloads_at(victims)
                )
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
        """Copy of the resident payloads (order is storage order).

        Column-only residents are boxed into fresh
        :class:`~repro.streams.point.StreamPoint` s.
        """
        return self._payloads_at(np.arange(self._size))

    def arrival_indices(self) -> np.ndarray:
        """1-based local arrival indices of the residents (int64 copy)."""
        return self._arr[: self._size].copy()

    def global_arrivals(self) -> np.ndarray:
        """Global (whole-stream) arrival index per resident."""
        return self._glob[: self._size].copy()

    def _build_columns(self) -> ResidentColumns:
        """Copies of the ``[:size]`` point-column slices, so a view never
        changes under its holder.

        Allocates the columns on the first call; residents the columns
        cannot hold take the base class's per-payload build.
        """
        k = self._size
        if not k:
            return build_resident_columns([], _NO_INDICES)
        if self._vals is None and not self._columnize():
            return super()._build_columns()
        return frozen_columns(
            self._vals[:k].copy(),
            np.where(self._none[:k], -1, self._labs[:k]),
            self._arr[:k].copy(),
        )

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def _storage_state(self) -> Dict[str, Any]:
        """Residents as point columns when every one is a point a block
        can hold, else as a payload list; the form depends on the
        residents alone, not on how they arrived."""
        k = self._size
        if not k:
            block = None
        elif self._vals is not None:
            block = self._column_block(slice(0, k))
        else:
            block = PointBlock.from_points(self._pay[:k])
        state: Dict[str, Any] = {}
        if block is None:
            state["payloads"] = self._pay[:k].tolist()
        else:
            state["points"] = {
                "index": block.index,
                "label": block.label,
                "none": block.none.view(np.uint8),
                "values": block.values,
            }
        state["arrivals"] = self._arr[:k].tolist()
        state["global_arrivals"] = self._glob[:k].tolist()
        return state

    def _restore_storage(self, state: Dict[str, Any]) -> None:
        self._allocate()
        self._size = 0
        if "points" in state:
            cols = state["points"]
            block = PointBlock(
                cols["index"], cols["label"], cols["none"], cols["values"]
            )
            k = len(block)
            self._columnize(block.dimensions)
            self._put_columns(slice(0, k), block)
        else:
            k = len(state["payloads"])
            # Elementwise object assignment (tuple payloads must not
            # broadcast).
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
