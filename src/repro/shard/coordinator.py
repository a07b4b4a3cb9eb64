"""Sharded ingestion coordinator: partition, feed workers, fold.

Why sharding preserves the exponential design
---------------------------------------------

Round-robin a stream over ``W`` workers, each an Algorithm 2.1 reservoir
of capacity ``m = n / W``. A point with global age ``a = t - r`` has seen
exactly ``floor(a / W)`` arrivals *on its own worker*, so its local
survival probability is ``(1 - 1/m)^floor(a / W) ~ exp(-a / (m W)) =
exp(-a / n)`` — exactly the inclusion law of one global Algorithm 2.1
reservoir of capacity ``n`` (Theorem 2.2 with ``lambda = 1/n``). The same
argument with insertion gate ``p_in`` gives the Algorithm 3.1 law
``p_in * exp(-p_in * a / n)``. The union of the ``W`` worker reservoirs
*is* therefore already a valid global sample; no thinning is needed.

The fold makes that concrete: every worker's sampler goes to the
columnar Theorem 3.3 kernel of :mod:`repro.core.merge` with its
residents' global ages ``t - global_arrival``, the design constant
``c_i = p_in`` and the global rate ``lam_g = p_in / n``. Folding at
capacity ``n`` targets ``c* = lam_g * n = p_in = c_i``, so ``keep_prob =
1`` — Theorem 3.3 thinning degenerates to a pure union of at most
``W * m = n`` residents, and the result is a live
:class:`~repro.core.space_constrained.SpaceConstrainedReservoir` carrying
the whole sharded sample. Folding to a *smaller* capacity exercises the
genuine thinning path.

Backends
--------

The ``W`` workers live in the coordinator's process and run the same
block kernel as one serial reservoir, so the facade adds routing, not
speed. There is one backend, ``"inline"``; the constructor keeps the
``backend`` keyword and rejects any other value. A process per worker
does not pay: shipping a block over a pipe costs more than the scatter
kernel it feeds.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.core.biased import ExponentialReservoir
from repro.core.columns import (
    ResidentColumns,
    build_resident_columns,
    frozen_columns,
)
from repro.core.merge import _fold_columns
from repro.core.reservoir import (
    SNAPSHOT_VERSION,
    SampleEntry,
    _as_payloads,
    _object_array,
)
from repro.core.space_constrained import SpaceConstrainedReservoir
from repro.shard.partition import (
    HashByKeyPartitioner,
    Partitioner,
    RoundRobinPartitioner,
    snapshot_name,
)
from repro.shard.worker import ShardWorker
from repro.streams.point import PointBlock
from repro.utils.rng import RngLike, require_probability

__all__ = ["ShardedReservoir"]

#: Per-worker buffer for the per-item :meth:`ShardedReservoir.offer`
#: path: a worker's buffered points are dispatched as one block when its
#: buffer holds this many (or on ``flush`` / any state read).
FLUSH_SIZE = 8192


class ShardedReservoir:
    """Sharded exponentially biased reservoir over a partitioned stream.

    Parameters
    ----------
    capacity:
        Total reservoir size ``n``; must be a multiple of ``workers``
        (each worker holds ``m = n / W`` residents).
    workers:
        Number of shards ``W``.
    lam:
        Target global bias rate. For ``family="exponential"`` it is
        informational (the realized rate is ``1/capacity``, Observation
        2.1); for ``family="space_constrained"`` it is required and sets
        the insertion gate ``p_in = capacity * lam``.
    family:
        Local sampler family: ``"exponential"`` (Algorithm 2.1) or
        ``"space_constrained"`` (Algorithm 3.1).
    partitioner:
        A :class:`~repro.shard.partition.Partitioner`; defaults to
        round-robin. Its worker count must equal ``workers``.
    rng:
        Seed or generator. Worker ``i`` draws from spawn-child ``i`` of
        this seed and the coordinator's fold draws from child ``W``
        (:func:`~repro.utils.rng.spawn_generators` semantics), so results
        are reproducible.
    backend:
        ``"inline"``, the only backend (see the module docstring).

    The per-item :meth:`offer` path buffers points per worker and
    dispatches them in blocks of :data:`FLUSH_SIZE`; :meth:`offer_many`
    blocks are dispatched immediately.
    """

    def __init__(
        self,
        capacity: int,
        workers: int,
        lam: Optional[float] = None,
        family: str = "exponential",
        partitioner: Optional[Partitioner] = None,
        rng: RngLike = None,
        backend: str = "inline",
    ) -> None:
        capacity = int(capacity)
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if capacity < workers or capacity % workers != 0:
            raise ValueError(
                f"capacity ({capacity}) must be a positive multiple of "
                f"workers ({workers}) so every shard holds capacity/W "
                "residents"
            )
        if backend != "inline":
            raise ValueError(
                f"unknown backend {backend!r}; the only backend is 'inline'"
            )
        self.capacity = capacity
        self.workers = workers
        self.shard_capacity = capacity // workers
        self.family = family
        self.t = 0
        self.requested_lam = None if lam is None else float(lam)

        if partitioner is None:
            partitioner = RoundRobinPartitioner(workers)
        if partitioner.workers != workers:
            raise ValueError(
                f"partitioner routes to {partitioner.workers} workers, "
                f"facade has {workers}"
            )
        self.partitioner = partitioner

        m = self.shard_capacity
        if family == "exponential":
            # Observation 2.1: the union's realized global rate is 1/n.
            self.p_in = 1.0
            self._sampler_cls = ExponentialReservoir
        elif family == "space_constrained":
            if lam is None:
                raise ValueError(
                    "family='space_constrained' requires lam (sets the "
                    "insertion gate p_in = capacity * lam)"
                )
            p_in = capacity * float(lam)
            if p_in > 1.0 + 1e-12:
                raise ValueError(
                    f"capacity {capacity} exceeds the natural size "
                    f"1/lambda = {1.0 / lam:.6g}; use family='exponential'"
                )
            self.p_in = require_probability(min(1.0, p_in), "p_in")
            self._sampler_cls = SpaceConstrainedReservoir
        else:
            raise ValueError(f"unknown shard family {family!r}")
        #: Realized global bias rate of the union sample.
        self.lam = self.p_in / capacity

        # Child i seeds worker i; child W seeds the coordinator's fold.
        seed_seq = self._seed_sequence(rng)
        children = seed_seq.spawn(workers + 1)
        self._fold_rng = np.random.default_rng(children[workers])
        gate = {} if family == "exponential" else {"p_in": self.p_in}
        self._workers = [
            ShardWorker(
                self._sampler_cls(
                    capacity=m, rng=np.random.default_rng(children[i]), **gate
                )
            )
            for i in range(workers)
        ]

        #: Called as ``listener(w, payloads, globs)`` before worker ``w``
        #: ingests a block (the durability engine journals it here);
        #: ``payloads`` is an object array or, for a block offered as a
        #: :class:`~repro.streams.point.PointBlock`, a sub-block of it.
        self.dispatch_listener: Optional[
            Callable[[int, Any, np.ndarray], None]
        ] = None
        self._buf_payloads: List[List[Any]] = [[] for _ in range(workers)]
        self._buf_globals: List[List[int]] = [[] for _ in range(workers)]
        # Cached union-resident columnar view, keyed by stream position
        # (see `resident_columns`).
        self._columns_cache: Optional[tuple] = None

    @staticmethod
    def _seed_sequence(rng: RngLike) -> np.random.SeedSequence:
        """Normalize ``rng`` to a SeedSequence for worker spawning."""
        if isinstance(rng, np.random.SeedSequence):
            return rng
        if isinstance(rng, np.random.Generator):
            # Derive fresh entropy from the generator's stream.
            return np.random.SeedSequence(
                int(rng.integers(0, 2**63 - 1))
            )
        return np.random.SeedSequence(rng)

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def offer(self, payload: Any) -> bool:
        """Route one arrival to its shard (buffered; see :data:`FLUSH_SIZE`)."""
        self.t += 1
        w = self.partitioner.assign(self.t, payload)
        self._buf_payloads[w].append(payload)
        self._buf_globals[w].append(self.t)
        if len(self._buf_payloads[w]) >= FLUSH_SIZE:
            self._flush_worker(w)
        return True

    def offer_many(self, payloads: Iterable[Any]) -> int:
        """Partition a block and feed every shard its sub-block at once.

        Pending per-item buffers are flushed first so each worker sees its
        sub-stream in global order. Returns the number of offers routed
        (every offer is stored for ``family="exponential"``; the
        space-constrained gate drops points inside the workers).
        """
        block = (
            payloads
            if isinstance(payloads, (list, tuple, PointBlock))
            else list(payloads)
        )
        b = len(block)
        if b == 0:
            return 0
        self.flush()
        t0 = self.t
        ids = self.partitioner.assign_block(t0, block)
        arr = _as_payloads(block)
        globs = t0 + 1 + np.arange(b, dtype=np.int64)
        self.t = t0 + b
        for w in range(self.workers):
            pos = np.nonzero(ids == w)[0]
            if len(pos):
                self._dispatch(w, arr[pos], globs[pos])
        return b

    def extend(self, payloads: Iterable[Any]) -> int:
        """Alias for :meth:`offer_many` (facade has no per-item variant)."""
        return self.offer_many(payloads)

    def flush(self) -> None:
        """Dispatch every worker's buffered per-item offers."""
        for w in range(self.workers):
            if self._buf_payloads[w]:
                self._flush_worker(w)

    def _flush_worker(self, w: int) -> None:
        payloads = _object_array(self._buf_payloads[w])
        globs = np.asarray(self._buf_globals[w], dtype=np.int64)
        self._buf_payloads[w] = []
        self._buf_globals[w] = []
        self._dispatch(w, payloads, globs)

    def _dispatch(
        self, w: int, payloads: np.ndarray, globs: np.ndarray
    ) -> None:
        if self.dispatch_listener is not None:
            self.dispatch_listener(w, payloads, globs)
        self._workers[w].ingest(payloads, globs)

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #

    def worker_states(self) -> List[Dict[str, Any]]:
        """Current :class:`ShardWorker` snapshots (flushes buffers)."""
        self.flush()
        return [w.state_dict() for w in self._workers]

    def entries(self) -> List[SampleEntry]:
        """Residents as ``SampleEntry(global_arrival, payload)``,
        worker-major order."""
        self.flush()
        out: List[SampleEntry] = []
        for worker in self._workers:
            sampler = worker.sampler
            out.extend(
                map(
                    SampleEntry,
                    sampler.global_arrivals().tolist(),
                    sampler.payloads(),
                )
            )
        return out

    def payloads(self) -> List[Any]:
        """Resident payloads across all shards (worker-major order)."""
        self.flush()
        return [p for w in self._workers for p in w.sampler.payloads()]

    def _payloads_at(self, rows: np.ndarray) -> List[Any]:
        """Payloads of residents ``rows`` (positions in worker-major
        order); each worker boxes only its own rows."""
        self.flush()
        samplers = [w.sampler for w in self._workers]
        starts = np.cumsum([0] + [s.size for s in samplers])
        owner = np.searchsorted(starts, rows, side="right") - 1
        parts = [
            iter(s._payloads_at(rows[owner == w] - starts[w]))
            for w, s in enumerate(samplers)
        ]
        return [next(parts[w]) for w in owner]

    def arrival_indices(self) -> np.ndarray:
        """Global arrival indices across all shards (worker-major order,
        the order of :meth:`resident_columns`)."""
        self.flush()
        return np.concatenate(
            [w.sampler.global_arrivals() for w in self._workers]
        )

    def ages(self) -> np.ndarray:
        """Global ages ``t - r`` across all shards."""
        return self.t - self.arrival_indices()

    def resident_columns(self) -> ResidentColumns:
        """Columnar view of the union sample (worker-major storage order).

        Shard-aware analogue of
        :meth:`~repro.core.reservoir.ReservoirSampler.resident_columns`:
        pending per-item buffers are flushed, and each worker's own
        column view (copied from its point columns) is stacked with its
        global arrival indices. The result is
        cached against the facade's stream position — worker state is a
        pure function of the offers ingested, so with no new offers the
        union residents cannot have changed. Requires
        :class:`~repro.streams.point.StreamPoint` payloads.
        """
        key = self._columns_key()
        cached = self._columns_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        self.flush()
        samplers = [w.sampler for w in self._workers if w.sampler.size]
        if samplers:
            parts = [s.resident_columns() for s in samplers]
            columns = frozen_columns(
                np.concatenate([c.values for c in parts]),
                np.concatenate([c.labels for c in parts]),
                np.concatenate([c.none for c in parts]),
                np.concatenate([s.global_arrivals() for s in samplers]),
            )
        else:
            columns = build_resident_columns([], np.empty(0, dtype=np.int64))
        self._columns_cache = (key, columns)
        return columns

    def _columns_key(self) -> tuple:
        """Cache key of :meth:`resident_columns` (and of the query
        estimator's shared records): the stream position."""
        return (self.t,)

    @property
    def size(self) -> int:
        """Residents across all shards (flushes buffers)."""
        self.flush()
        return sum(w.sampler.size for w in self._workers)

    @property
    def is_full(self) -> bool:
        return self.size >= self.capacity

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.payloads())

    # ------------------------------------------------------------------ #
    # Inclusion model
    # ------------------------------------------------------------------ #

    def inclusion_probability(self, r: int, t: Optional[int] = None) -> float:
        """Sharded inclusion model for global arrival ``r`` at time ``t``.

        Round-robin partitioning admits an *exact* closed form: arrival
        ``r`` has seen ``k = floor((t - r)/W)`` subsequent arrivals on its
        own shard, each applying local survival ``1 - p_in/m``, so

            p(r, t) = p_in * (1 - p_in/m)^floor((t - r)/W)
                    ~ p_in * exp(-lam * (t - r)),   lam = p_in/n.

        Hash partitioning only guarantees the exponential form in
        expectation (per-worker arrival counts fluctuate), so it falls
        back to the smooth model.
        """
        t = self.t if t is None else int(t)
        if not 1 <= r <= t:
            raise ValueError(f"require 1 <= r <= t, got r={r}, t={t}")
        if getattr(self.partitioner, "exact_schedule", False):
            k = (t - r) // self.workers
            return self.p_in * (
                1.0 - self.p_in / self.shard_capacity
            ) ** k
        return self.p_in * float(np.exp(-self.lam * (t - r)))

    def inclusion_probabilities(
        self, r: np.ndarray, t: Optional[int] = None
    ) -> np.ndarray:
        """Vectorized :meth:`inclusion_probability`."""
        t = self.t if t is None else int(t)
        r = np.asarray(r, dtype=np.int64)
        if np.any(r < 1) or np.any(r > t):
            raise ValueError("require 1 <= r <= t")
        if getattr(self.partitioner, "exact_schedule", False):
            k = (t - r) // self.workers
            base = 1.0 - self.p_in / self.shard_capacity
            return self.p_in * base ** k
        return self.p_in * np.exp(-self.lam * (t - r).astype(np.float64))

    # ------------------------------------------------------------------ #
    # Fold
    # ------------------------------------------------------------------ #

    def fold(
        self, capacity: Optional[int] = None, rng: RngLike = None
    ) -> SpaceConstrainedReservoir:
        """Collapse all shards into one live global reservoir.

        At the default ``capacity`` (the facade's own ``n``) the fold is a
        pure union — see the module docstring; a smaller capacity engages
        Theorem 3.3 thinning. The fold does not consume the workers; the
        facade remains live.
        """
        self.flush()
        return _fold_columns(
            [
                (w.sampler, self.p_in, self.t - w.sampler.global_arrivals())
                for w in self._workers
            ],
            self.lam,
            self.capacity if capacity is None else capacity,
            self.t,
            self._fold_rng if rng is None else rng,
        )

    # ------------------------------------------------------------------ #
    # Snapshots / lifecycle
    # ------------------------------------------------------------------ #

    def state_dict(self) -> Dict[str, Any]:
        """Facade snapshot: config + per-worker sampler snapshots.

        Buffers are flushed first, so the snapshot is exactly the state a
        restart resumes from. A partitioner without a
        :func:`~repro.shard.partition.snapshot_name` (a custom
        ``HashByKeyPartitioner`` key, any other class) is written as its
        class name, which :meth:`from_state_dict` refuses unless the
        partitioner is passed explicitly.
        """
        part = snapshot_name(self.partitioner) or type(
            self.partitioner
        ).__name__
        return {
            "version": SNAPSHOT_VERSION,
            "class": "ShardedReservoir",
            "capacity": self.capacity,
            "workers": self.workers,
            "family": self.family,
            "requested_lam": self.requested_lam,
            "partitioner": part,
            "t": self.t,
            "fold_rng_state": self._fold_rng.bit_generator.state,
            "worker_states": self.worker_states(),
        }

    @classmethod
    def from_state_dict(
        cls,
        state: Dict[str, Any],
        partitioner: Optional[Partitioner] = None,
    ) -> "ShardedReservoir":
        """Rebuild a facade from :meth:`state_dict`.

        Raises ``ValueError`` naming the field when the snapshot could not
        have come from a live facade: the worker count, a worker's
        capacity, or a worker's sampler family disagree with the facade
        configuration. Snapshots that carry the retired ``flush_size``
        field restore as usual.
        """
        if state.get("class") != "ShardedReservoir":
            raise ValueError("not a ShardedReservoir snapshot")
        version = state.get("version", 1)
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {version!r} is not supported by this "
                f"library (expected {SNAPSHOT_VERSION}); it was probably "
                "written by a newer release"
            )
        workers = int(state["workers"])
        if partitioner is None:
            if state["partitioner"] == "hash":
                partitioner = HashByKeyPartitioner(workers)
            elif state["partitioner"] == "round_robin":
                partitioner = RoundRobinPartitioner(workers)
            else:
                raise ValueError(
                    f"cannot rebuild partitioner {state['partitioner']!r}; "
                    "pass one explicitly"
                )
        obj = cls(
            capacity=state["capacity"],
            workers=workers,
            lam=state["requested_lam"],
            family=state["family"],
            partitioner=partitioner,
            rng=0,  # placeholder; every generator state is overwritten below
        )
        worker_states = state["worker_states"]
        if len(worker_states) != workers:
            raise ValueError(
                f"snapshot field 'worker_states' has {len(worker_states)} "
                f"entries, 'workers' is {workers}"
            )
        restored = [ShardWorker.from_state_dict(s) for s in worker_states]
        for i, worker in enumerate(restored):
            sampler = worker.sampler
            if sampler.capacity != obj.shard_capacity:
                raise ValueError(
                    f"snapshot field 'worker_states' entry {i} has capacity "
                    f"{sampler.capacity}, expected capacity // workers = "
                    f"{obj.shard_capacity}"
                )
            if type(sampler) is not obj._sampler_cls:
                raise ValueError(
                    f"snapshot field 'worker_states' entry {i} holds a "
                    f"{type(sampler).__name__}, but 'family' "
                    f"{obj.family!r} runs {obj._sampler_cls.__name__}"
                )
        obj.t = int(state["t"])
        obj._fold_rng.bit_generator.state = state["fold_rng_state"]
        obj._workers = restored
        return obj

    def __repr__(self) -> str:
        return (
            f"ShardedReservoir(capacity={self.capacity}, "
            f"workers={self.workers}, family={self.family!r}, t={self.t})"
        )
