"""Base machinery shared by all reservoir samplers.

A reservoir sampler consumes a stream one item at a time through
:meth:`ReservoirSampler.offer` and maintains a bounded in-memory sample.
Subclasses implement the paper's specific insertion/ejection policies:
which slot an arrival takes and which residents leave. This module
provides the storage, counters, and inspection API common to all of
them.

Storage layout: one array store. Residents live in arrays of length
``capacity``: local and *global* arrival indices (int64), an object
column, per-family float side columns (timestamps, insertion
probabilities) and, for :class:`~repro.streams.point.StreamPoint`
residents, point columns (feature values, labels, a ``None``-label mask
and point indices). The global axis is the whole-stream position of each
resident when the reservoir is one shard of a partitioned stream
(:mod:`repro.shard`); for a stand-alone reservoir it equals the local
arrival index. :class:`~repro.core.sliding_window.ChainSampler` keeps its
residents inside its chains instead and overrides the views.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columns import (
    ResidentColumns,
    build_resident_columns,
    frozen_columns,
)
from repro.streams.point import PointBlock
from repro.utils.rng import RngLike, as_generator

__all__ = [
    "ReservoirSampler",
    "SampleEntry",
    "from_state_dict",
    "SNAPSHOT_VERSION",
]

#: Schema version stamped into every ``state_dict()`` payload. Bump it
#: whenever the snapshot layout changes incompatibly; ``from_state_dict``
#: rejects any other version up front instead of failing deep inside a
#: family's ``_restore_extra``.
SNAPSHOT_VERSION = 1

#: Concrete sampler classes by name, for snapshot restoration
#: (:func:`from_state_dict`). Populated by ``__init_subclass__``.
_SAMPLER_CLASSES: Dict[str, type] = {}

_NO_PAYLOADS = np.empty(0, dtype=object)
_NO_INDICES = np.empty(0, dtype=np.int64)
_NO_FLOATS = np.empty(0)


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


@dataclass(frozen=True)
class SampleEntry:
    """One resident of a reservoir: the payload plus its arrival index."""

    arrival: int
    payload: Any


class ReservoirSampler(ABC):
    """Abstract bounded stream sampler on the array store.

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
    capacity:
        Maximum number of residents (``n`` in the paper).
    rng:
        Seed or :class:`numpy.random.Generator` driving all randomness.

    Attributes
    ----------
    t:
        Number of stream points offered so far (the paper's ``t``).
    offers, insertions, ejections:
        Lifetime counters, useful for verifying policy behaviour in tests.
    """

    def __init__(self, capacity: int, rng: RngLike = None) -> None:
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.rng = as_generator(rng)
        self.t = 0
        self.offers = 0
        self.insertions = 0
        self.ejections = 0
        # The resident arrays are allocated on the first insert, so that
        # building a reservoir costs no O(n) object-array fill.
        self._pay = _NO_PAYLOADS
        self._arr = self._glob = _NO_INDICES
        for name in self._side_columns:
            setattr(self, name, _NO_FLOATS)
        self._size = 0
        # Point columns (class docstring); `_idx`, `_labs` and `_none`
        # exist whenever `_vals` is not None.
        self._vals: Optional[np.ndarray] = None
        # Per-offer mutation log (see `last_ops`): lets consumers such as
        # the kNN classifier mirror the reservoir incrementally instead of
        # re-snapshotting it on every prediction.
        self._ops: List[Tuple] = []
        self._ops_t = -1
        # Cached struct-of-arrays resident view (see `resident_columns`):
        # (mutation key, ResidentColumns) or None.
        self._columns_cache: Optional[Tuple[Tuple, ResidentColumns]] = None

    #: Whether `last_ops` faithfully describes every storage change. Samplers
    #: with bespoke storage (chains) set this to False and consumers fall
    #: back to full re-snapshots.
    supports_mutation_log: bool = True

    #: Whether the sampler maintains an exponential inclusion design
    #: ``p(x) = c * exp(-lambda * age)`` on its arrival-count axis. Only
    #: these samplers are valid merge inputs (:mod:`repro.core.merge`);
    #: having a ``lam`` attribute alone is not sufficient.
    exponential_design: bool = False

    #: Block types :meth:`offer_many` hands to :meth:`_offer_block` as
    #: they are; any other iterable is listed first.
    _block_types: Tuple[type, ...] = (list, tuple, PointBlock)

    #: Attribute names of the family's float64 per-resident columns. The
    #: store allocates them with the others and moves their rows with
    #: the residents on every ejection; the family writes a row after
    #: each insert and snapshots them in its extras.
    _side_columns: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        _SAMPLER_CLASSES[cls.__name__] = cls

    # ------------------------------------------------------------------ #
    # Policy interface
    # ------------------------------------------------------------------ #

    @abstractmethod
    def offer(self, payload: Any) -> bool:
        """Process the next stream point; return ``True`` if it was stored."""

    @abstractmethod
    def inclusion_probability(self, r: int, t: Optional[int] = None) -> float:
        """Model probability that arrival ``r`` is resident at time ``t``.

        This is the analytical ``p(r, t)`` for the sampler's policy (e.g.
        Theorem 2.2 for Algorithm 2.1). It is the quantity Horvitz-Thompson
        estimation divides by; it is a *model*, not a per-run empirical
        frequency. ``t`` defaults to the current stream position.
        """

    def inclusion_probabilities(
        self, r: np.ndarray, t: Optional[int] = None
    ) -> np.ndarray:
        """Vectorized :meth:`inclusion_probability` over arrival indices.

        The base implementation loops; subclasses override with closed
        forms. Estimation code should always call this form.
        """
        t = self.t if t is None else int(t)
        r = np.asarray(r)
        return np.array(
            [self.inclusion_probability(int(ri), t) for ri in r.ravel()]
        ).reshape(r.shape)

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def extend(self, payloads: Iterable[Any]) -> int:
        """Offer every item of ``payloads`` in order; return the stored count.

        The return value counts offers that were *stored* (``offer``
        returned ``True``) — it is **not** the reservoir's net growth,
        because storing an arrival may eject a resident to make room (for
        :class:`~repro.core.biased.ExponentialReservoir` every offer is
        stored, so the count always equals ``len(payloads)`` even once the
        reservoir is full). Net growth is ``insertions - ejections``.

        This path always processes points one at a time, consuming the
        exact same random sequence as a loop of :meth:`offer` calls; use
        :meth:`offer_many` for the vectorized block path.
        """
        inserted = 0
        for payload in payloads:
            if self.offer(payload):
                inserted += 1
        return inserted

    def offer_many(self, payloads: Iterable[Any]) -> int:
        """Process a block of stream points; return the stored count.

        Statistically equivalent to calling :meth:`offer` in a loop —
        counters (``t``, ``offers``, ``insertions``, ``ejections``) and the
        sampling distribution match the per-item path — but subclasses with
        closed-form policies override :meth:`_admit_block` with vectorized
        numpy fast paths that pre-draw the block's randomness in bulk. The
        exact random *sequence* consumed may therefore differ from the
        per-item path; only the distribution is guaranteed.

        A non-empty batch leaves :attr:`last_ops` as ``[("compact",)]``:
        storage changed as a whole, and consumers re-snapshot. The return
        value follows the :meth:`extend` contract: offers stored, not net
        growth.
        """
        block = (
            payloads
            if isinstance(payloads, self._block_types)
            else list(payloads)
        )
        if not len(block):
            return 0
        stored = self._offer_block(block)
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
        """Batch-ingestion hook: process ``pay`` and return stored count.

        The base implementation is the per-item loop; subclasses override
        it with vectorized fast paths that write storage in bulk
        (:meth:`_write`) and keep no per-slot mutation records
        (:meth:`offer_many` replaces the log afterwards).
        """
        stored = 0
        for payload in pay:
            if self.offer(payload):
                stored += 1
        return stored

    def _record_op(self, op: Tuple) -> None:
        """Append a mutation record for the current offer."""
        if self._ops_t != self.t:
            self._ops = []
            self._ops_t = self.t
        self._ops.append(op)

    def _mark_compact(self) -> None:
        """Set :attr:`last_ops` to the re-snapshot signal after a block."""
        self._ops = [("compact",)]
        self._ops_t = self.t

    @property
    def last_ops(self) -> List[Tuple]:
        """Storage mutations performed by the most recent ``offer``.

        Records are ``("append", slot)``, ``("replace", slot)``, or
        ``("compact",)`` (slots were removed and remaining residents
        re-indexed — consumers should re-snapshot). Empty when the last
        offer changed nothing. After a non-empty ``offer_many`` batch the
        log is exactly ``[("compact",)]``.
        """
        return list(self._ops) if self._ops_t == self.t else []

    # ------------------------------------------------------------------ #
    # Array store
    # ------------------------------------------------------------------ #

    def _allocate(self) -> None:
        """Allocate empty resident arrays of length ``capacity``."""
        n = self.capacity
        self._pay = np.empty(n, dtype=object)
        self._arr = np.empty(n, dtype=np.int64)
        self._glob = np.empty(n, dtype=np.int64)
        for name in self._side_columns:
            setattr(self, name, np.empty(n))
        self._vals = None  # no residents: the next block allocates anew

    def _row_columns(self) -> List[np.ndarray]:
        """Every per-resident column, which an ejection moves together."""
        columns = [self._pay, self._arr, self._glob]
        if self._vals is not None:
            columns += [self._vals, self._idx, self._labs, self._none]
        return columns + [getattr(self, name) for name in self._side_columns]

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

    def _insert(self, slot: int, payload: Any) -> None:
        """Store one offered payload at arrival ``t``: appended when
        ``slot`` is the current size, else replacing that resident. Its
        point-column row is written while the columns exist; counters and
        the mutation log move with it."""
        size = self._size
        self.insertions += 1
        if slot == size:
            if size == 0:
                self._allocate()
            self._record_op(("append", slot))
        else:
            self.ejections += 1
            self._record_op(("replace", slot))
        if self._vals is not None:
            row = PointBlock.row_of(payload)
            if row is None or row[3].shape != self._vals.shape[1:]:
                self._drop_columns()
            else:
                self._idx[slot], self._labs[slot], self._none[slot] = row[:3]
                self._vals[slot] = row[3]
        self._pay[slot] = payload
        self._arr[slot] = self._glob[slot] = self.t
        if slot == size:
            self._size = size + 1

    def _eject_random(self, count: int) -> List[SampleEntry]:
        """Remove ``count`` uniformly random residents (without replacement).

        One victim is swap-removed (:meth:`_swap_remove`); more are
        removed by one order-preserving :meth:`_compact`. Returns the
        evicted residents.
        """
        size = self._size
        count = min(int(count), size)
        if count <= 0:
            return []
        if count == 1:
            victim = int(self.rng.integers(size))
            payload = self._pay[victim]
            if payload is None and self._vals is not None:
                payload = self._payloads_at(np.array([victim]))[0]
            evicted = [SampleEntry(int(self._arr[victim]), payload)]
            self._swap_remove(victim)
            return evicted
        victims = self.rng.choice(size, size=count, replace=False)
        evicted = [
            SampleEntry(arrival, payload)
            for arrival, payload in zip(
                self._arr[victims].tolist(), self._payloads_at(victims)
            )
        ]
        keep = np.ones(size, dtype=bool)
        keep[victims] = False
        self._compact(keep)
        return evicted

    def _swap_remove(self, victim: int) -> None:
        """Remove resident ``victim``; the last resident moves into its
        slot."""
        last = self._size - 1
        for column in self._row_columns():
            column[victim] = column[last]
        self._pay[last] = None  # release the evicted payload
        self._size = last
        self.ejections += 1
        self._record_op(("compact",))

    def _compact(self, keep: np.ndarray) -> None:
        """Keep the residents where the ``(size,)`` mask ``keep`` is set,
        in their order; a no-op when it keeps them all."""
        size = self._size
        kept = int(np.count_nonzero(keep))
        if kept == size:
            return
        for column in self._row_columns():
            column[:kept] = column[:size][keep]
        self._pay[kept:size] = None  # release evicted payloads
        self._size = kept
        self.ejections += size - kept
        self._record_op(("compact",))

    # ------------------------------------------------------------------ #
    # Snapshots (checkpoint/restore and cross-process transport)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> Dict[str, Any]:
        """Complete observable state as a plain picklable dict.

        Round-tripping through :func:`from_state_dict` yields a sampler
        that is indistinguishable from the original: same residents (in
        storage order), same counters, and the *same generator state*, so
        ``snapshot -> restore -> offer`` consumes the exact random
        sequence an uninterrupted run would. This is the contract the
        sharded ingestion engine (:mod:`repro.shard`) relies on to move
        samplers across process boundaries and to survive coordinator
        restarts; it also serves as a standalone checkpoint format.

        Payload objects are carried by reference (not copied); the
        containers are fresh, so continuing to offer into the live
        sampler never mutates an already-taken snapshot.
        """
        state: Dict[str, Any] = {
            "version": SNAPSHOT_VERSION,
            "class": type(self).__name__,
            "module": type(self).__module__,
            "capacity": int(self.capacity),
            "t": int(self.t),
            "offers": int(self.offers),
            "insertions": int(self.insertions),
            "ejections": int(self.ejections),
            "rng_state": self.rng.bit_generator.state,
        }
        state.update(self._storage_state())
        state.update(self._extra_state())
        return state

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
        """Rebuild resident storage from snapshot fields (either form)."""
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
        # Snapshots written before the global axis was stored have it
        # equal to the local one.
        self._glob[:k] = state.get("global_arrivals", state["arrivals"])
        self._size = k

    def _extra_state(self) -> Dict[str, Any]:
        """Family-specific snapshot fields (override in subclasses)."""
        return {}

    def _restore_extra(self, state: Dict[str, Any]) -> None:
        """Restore family-specific snapshot fields."""

    @classmethod
    def _construct_from_state(cls, state: Dict[str, Any]) -> "ReservoirSampler":
        """Build a blank instance with the snapshot's constructor params.

        The base implementation covers single-argument families
        (``cls(capacity)``); families with extra constructor parameters
        override it. Counters, storage, and RNG state are restored by
        :func:`from_state_dict` afterwards.
        """
        return cls(state["capacity"])

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Current number of residents."""
        return self._size

    @property
    def fill_fraction(self) -> float:
        """The paper's ``F(t)``: current size over capacity, in ``[0, 1]``.

        Routes through :attr:`size` so samplers with bespoke storage
        (e.g. :class:`~repro.core.sliding_window.ChainSampler`) report
        correctly.
        """
        return self.size / self.capacity

    @property
    def is_full(self) -> bool:
        """Whether the reservoir holds ``capacity`` residents."""
        return self.size >= self.capacity

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

    def ages(self) -> np.ndarray:
        """Per-resident age ``t - r`` (0 for a point that just arrived)."""
        return self.t - self.arrival_indices()

    def entries(self) -> List[SampleEntry]:
        """Copy of the residents as :class:`SampleEntry` records."""
        return [
            SampleEntry(a, p)
            for a, p in zip(self.arrival_indices().tolist(), self.payloads())
        ]

    def _columns_key(self) -> Tuple:
        """Cache key for :meth:`resident_columns`.

        Resident storage can only change through paths that bump
        ``insertions`` or ``ejections`` (:meth:`_insert`, the block
        kernels, :meth:`_swap_remove` and :meth:`_compact`), so those
        counters — plus the size, as a belt-and-braces guard — identify a
        storage epoch exactly. Families whose storage mutates outside the
        counter paths (e.g.
        :class:`~repro.core.sliding_window.ChainSampler`) override this
        with a key that changes on every storage change.
        """
        return (self.insertions, self.ejections, self.size)

    def resident_columns(self) -> ResidentColumns:
        """Struct-of-arrays view of the residents, cached between mutations.

        Returns contiguous ``values``/``labels``/``none``/``arrivals``
        arrays (see :class:`~repro.core.columns.ResidentColumns`) in
        storage order. The view is cached against :meth:`_columns_key`,
        so repeated query estimates between two reservoir mutations share
        one build; a new build goes through :meth:`_build_columns`.
        Requires :class:`~repro.streams.point.StreamPoint` payloads.
        """
        key = self._columns_key()
        cached = self._columns_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        columns = self._build_columns()
        self._columns_cache = (key, columns)
        return columns

    def _build_columns(self) -> ResidentColumns:
        """Copies of the ``[:size]`` point-column slices, so a view never
        changes under its holder.

        Allocates the columns on the first call; residents the columns
        cannot hold take one per-payload pass.
        """
        k = self._size
        if not k:
            return build_resident_columns([], _NO_INDICES)
        if self._vals is None and not self._columnize():
            return build_resident_columns(
                self.payloads(), self.arrival_indices()
            )
        none = self._none[:k].copy()
        return frozen_columns(
            self._vals[:k].copy(),
            np.where(none, -1, self._labs[:k]),
            none,
            self._arr[:k].copy(),
        )

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Any]:
        return iter(self.payloads())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={self.capacity}, "
            f"size={self.size}, t={self.t})"
        )


def from_state_dict(state: Dict[str, Any]) -> ReservoirSampler:
    """Rebuild a sampler from a :meth:`ReservoirSampler.state_dict` snapshot.

    Resolves the concrete class by the recorded module/class pair (importing
    the module if needed), reconstructs it with the snapshot's constructor
    parameters, then restores storage, counters, family-specific state, and
    the exact RNG state. The result behaves identically to the snapshotted
    sampler from its next ``offer`` onward.

    Snapshots missing a ``version`` field are treated as version 1 (the
    layout predating the field); any other version is rejected here with
    a clear error rather than failing deep inside family extras.
    """
    version = state.get("version", 1)
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {version!r} is not supported by this "
            f"library (expected {SNAPSHOT_VERSION}); it was probably "
            "written by a newer release"
        )
    importlib.import_module(state["module"])
    try:
        cls = _SAMPLER_CLASSES[state["class"]]
    except KeyError:
        raise ValueError(
            f"unknown sampler class {state['class']!r}; its module "
            f"{state['module']!r} did not register it"
        ) from None
    obj = cls._construct_from_state(state)
    if obj.capacity != int(state["capacity"]):
        raise ValueError(
            f"{cls.__name__}._construct_from_state rebuilt capacity "
            f"{obj.capacity}, snapshot says {state['capacity']}"
        )
    _check_storage(state, obj.capacity)
    obj.t = int(state["t"])
    obj.offers = int(state["offers"])
    obj.insertions = int(state["insertions"])
    obj.ejections = int(state["ejections"])
    obj._restore_storage(state)
    obj._restore_extra(state)
    obj.rng.bit_generator.state = state["rng_state"]
    # The mutation log describes live offers, not a restore; start clean.
    obj._ops = []
    obj._ops_t = -1
    return obj


def _check_storage(state: Dict[str, Any], capacity: int) -> None:
    """Reject resident storage no live sampler could have produced.

    Raises ``ValueError`` naming the field when the per-resident lists
    disagree in length, hold more residents than ``capacity``, or carry
    an arrival index outside ``[1, t]``. The residents are the
    ``payloads`` list or, in a columnar snapshot, the ``points``
    columns.
    """
    if "points" in state:
        name, k = "points", len(state["points"]["index"])
    else:
        name, k = "payloads", len(state["payloads"])
    for field in ("arrivals", "global_arrivals"):
        if field in state and len(state[field]) != k:
            raise ValueError(
                f"snapshot field {field!r} has {len(state[field])} "
                f"entries, {name!r} has {k}"
            )
    if k > capacity:
        raise ValueError(
            f"snapshot field {name!r} holds {k} residents, more than "
            f"capacity {capacity}"
        )
    if k:
        arrivals = np.asarray(state["arrivals"], dtype=np.int64)
        t = int(state["t"])
        if arrivals.min() < 1 or arrivals.max() > t:
            raise ValueError(
                f"snapshot field 'arrivals' has an index outside [1, {t}]"
            )
