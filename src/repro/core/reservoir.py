"""Base machinery shared by all reservoir samplers.

A reservoir sampler consumes a stream one item at a time through
:meth:`ReservoirSampler.offer` and maintains a bounded in-memory sample.
Subclasses implement the paper's specific insertion/ejection policies; this
module provides the storage, counters, and inspection API common to all of
them.

Storage layout: by default two parallel Python lists, ``_payloads``
(arbitrary user objects) and ``_arrivals`` (1-based arrival indices),
which keep per-offer overhead minimal while letting callers attach any
payload type. Families with bespoke storage override the inspection and
snapshot hooks: :class:`~repro.core.biased.ExponentialReservoir` keeps
its residents in preallocated numpy arrays so its block kernel can write
them with scatters, and
:class:`~repro.core.sliding_window.ChainSampler` keeps them inside its
chains.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.columns import ResidentColumns, build_resident_columns
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


@dataclass(frozen=True)
class SampleEntry:
    """One resident of a reservoir: the payload plus its arrival index."""

    arrival: int
    payload: Any


class ReservoirSampler(ABC):
    """Abstract bounded stream sampler.

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
        self._payloads: List[Any] = []
        self._arrivals: List[int] = []
        # Per-offer mutation log (see `last_ops`): lets consumers such as
        # the kNN classifier mirror the reservoir incrementally instead of
        # re-snapshotting it on every prediction.
        self._ops: List[Tuple] = []
        self._ops_t = -1
        # Cached struct-of-arrays resident view (see `resident_columns`):
        # (mutation key, ResidentColumns) or None.
        self._columns_cache: Optional[Tuple[Tuple, ResidentColumns]] = None

    #: Whether `last_ops` faithfully describes every storage change. Samplers
    #: with bespoke storage (chains, wholesale rebuilds) set this to False and
    #: consumers fall back to full re-snapshots.
    supports_mutation_log: bool = True

    #: Whether the sampler maintains an exponential inclusion design
    #: ``p(x) = c * exp(-lambda * age)`` on its arrival-count axis. Only
    #: these samplers are valid merge inputs (:mod:`repro.core.merge`);
    #: having a ``lam`` attribute alone is not sufficient.
    exponential_design: bool = False

    #: Block types :meth:`offer_many` hands to :meth:`_offer_block` as
    #: they are; any other iterable is listed first (a
    #: :class:`~repro.streams.point.PointBlock` boxes into points).
    _block_types: Tuple[type, ...] = (list, tuple)

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
    # Shared storage operations
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
        closed-form policies override the hooks below with vectorized numpy
        fast paths that pre-draw the block's randomness in bulk. The exact
        random *sequence* consumed may therefore differ from the per-item
        path; only the distribution is guaranteed.

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

    def _offer_block(self, block: List[Any]) -> int:
        """Batch-ingestion hook: process ``block`` and return stored count.

        The base implementation is the per-item loop; subclasses override
        it with vectorized fast paths that write storage in bulk and keep
        no per-slot mutation records (:meth:`offer_many` replaces the log
        afterwards).
        """
        stored = 0
        for payload in block:
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

    def _append(self, payload: Any) -> None:
        """Store a new resident (reservoir grows by one)."""
        if len(self._payloads) >= self.capacity:
            raise RuntimeError("reservoir already at capacity; replace instead")
        self._payloads.append(payload)
        self._arrivals.append(self.t)
        self.insertions += 1
        self._record_op(("append", len(self._payloads) - 1))

    def _replace_random(self, payload: Any) -> SampleEntry:
        """Overwrite a uniformly random resident; return the evicted entry."""
        if not self._payloads:
            raise RuntimeError("cannot replace in an empty reservoir")
        victim = int(self.rng.integers(len(self._payloads)))
        return self._replace_at(victim, payload)

    def _replace_at(self, slot: int, payload: Any) -> SampleEntry:
        """Overwrite the resident in ``slot``; return the evicted entry."""
        evicted = SampleEntry(self._arrivals[slot], self._payloads[slot])
        self._payloads[slot] = payload
        self._arrivals[slot] = self.t
        self.insertions += 1
        self.ejections += 1
        self._record_op(("replace", slot))
        return evicted

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
        container lists are fresh, so continuing to offer into the live
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
        """Resident storage as snapshot fields (hook for bespoke storage)."""
        return {
            "payloads": list(self._payloads),
            "arrivals": [int(a) for a in self._arrivals],
        }

    def _restore_storage(self, state: Dict[str, Any]) -> None:
        """Rebuild resident storage from snapshot fields."""
        self._payloads = list(state["payloads"])
        self._arrivals = [int(a) for a in state["arrivals"]]

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
        return len(self._payloads)

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
        """Copy of the resident payloads (order is storage order)."""
        return list(self._payloads)

    def arrival_indices(self) -> np.ndarray:
        """1-based arrival indices of the residents, as an int64 array."""
        return np.asarray(self._arrivals, dtype=np.int64)

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
        ``insertions`` or ``ejections`` (``_append``, ``_replace_at``, the
        array store's ``_eject_random``, and every vectorized
        ``offer_many`` fast path bumps them in bulk), so those counters —
        plus the size, as a belt-and-braces guard for bespoke subclasses —
        identify a storage epoch exactly. Families whose storage mutates
        outside the counter paths (e.g.
        :class:`~repro.core.sliding_window.ChainSampler`) override this
        with a key that changes on every storage change.
        """
        return (self.insertions, self.ejections, self.size)

    def resident_columns(self) -> ResidentColumns:
        """Struct-of-arrays view of the residents, cached between mutations.

        Returns contiguous ``values``/``labels``/``arrivals`` arrays (see
        :class:`~repro.core.columns.ResidentColumns`) in storage order.
        The view is cached against :meth:`_columns_key`, so repeated
        query estimates between two reservoir mutations share one build;
        a new build goes through :meth:`_build_columns`. Requires
        :class:`~repro.streams.point.StreamPoint` payloads.
        """
        key = self._columns_key()
        cached = self._columns_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        columns = self._build_columns()
        self._columns_cache = (key, columns)
        return columns

    def _build_columns(self) -> ResidentColumns:
        """Build the resident view from scratch (one pass over payloads).

        The array store (:class:`~repro.core.biased.ExponentialReservoir`)
        overrides this to copy its point columns.
        """
        return build_resident_columns(self.payloads(), self.arrival_indices())

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
