"""Out-of-tree tracing of the library's layer boundaries.

:func:`install` patches the public callables of ``repro.streams``,
``repro.core``, ``repro.shard``, ``repro.persist``, ``repro.queries`` and
``repro.mining`` with span-recording wrappers, at the place each callable
is looked up (a class attribute, or a module global such as
``repro.persist.wal.encode_record``), and restores every original on
exit. Nothing under ``src/`` changes.

A span is ``(name, start_ns, end_ns, parent_span, op_id)``. Spans stay in
memory while the traced pass runs and are written out once, by
:meth:`Tracer.dump`. A layer's self time is its spans' durations minus
the part of them their child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter_ns


class Tracer:
    """In-memory span store plus the counters measured at the same seams."""

    def __init__(self) -> None:
        #: Wrappers record only while this is set; the harness turns it on
        #: around the phases whose per-layer cost it reports.
        self.enabled = False
        #: Op id stamped on every span (-1 outside a timed op).
        self.op = -1
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[Optional[Tuple[int, int, int, int, int]]] = []
        self._stack: List[int] = []
        self.counters: Dict[str, int] = defaultdict(int)
        #: Last ``resident_columns()`` result per sampler, held so that a
        #: rebuild is told apart by identity.
        self._last_columns: Dict[int, Any] = {}

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self) -> Tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name_id: int, start: int, parent: int) -> None:
        self._stack.pop()
        self.spans[idx] = (name_id, start, _clock(), parent, self.op)

    @contextmanager
    def recording(self, on: bool = True) -> Iterator[None]:
        """Record (or, with ``on=False``, pause) spans inside the block."""
        before, self.enabled = self.enabled, on
        try:
            yield
        finally:
            self.enabled = before

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Harness-side span (e.g. around ``next()`` on a chunk reader)."""
        if not self.enabled:
            yield
            return
        name_id = self._name_id(name)
        idx, parent = self._open()
        start = _clock()
        try:
            yield
        finally:
            self._close(idx, name_id, start, parent)

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` with a span named ``name`` around every enabled call."""
        tracer = self
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx, parent = tracer._open()
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name_id, start, parent)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counters[name] += int(amount)

    # ------------------------------------------------------------------ #
    # Aggregation and output
    # ------------------------------------------------------------------ #

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: summed self time (s) and number of calls."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0}
        )
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            entry = totals[self.names[span[0]]]
            entry["self_s"] += (span[2] - span[1] - child_ns[i]) / 1e9
            entry["calls"] += 1
        return dict(totals)

    def dump(self, path: Path) -> None:
        """Write every span and counter as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "names": self.names,
            # Parents are list positions, so every slot is kept.
            "spans": [list(s) if s else None for s in self.spans],
            "counters": dict(self.counters),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, separators=(",", ":")))
        os.replace(tmp, path)


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every traced seam for the duration of the ``with`` block."""
    import repro.persist.engine as engine_mod
    import repro.persist.wal as wal_mod
    import repro.streams.io as io_mod
    from repro.core.biased import ExponentialReservoir
    from repro.core.reservoir import ReservoirSampler
    from repro.core.variable import VariableReservoir
    from repro.mining.knn import ReservoirKnnClassifier
    from repro.persist.engine import DurableReservoir
    from repro.persist.wal import WalWriter
    from repro.queries.estimator import QueryEstimator
    from repro.queries.exact import StreamHistory
    from repro.queries.spec import LinearQuery
    from repro.shard.coordinator import ShardedReservoir
    from repro.shard.worker import ShardWorker

    patches = _Patches()

    def method(owner, attr, name, on_result=None):
        patches.set(
            owner, attr, tracer.wrap(name, owner.__dict__[attr], on_result)
        )

    def column_rebuilds(args, columns):
        if tracer._last_columns.get(id(args[0])) is not columns:
            tracer.counters["core.resident_columns.rebuilds"] += 1
        tracer._last_columns[id(args[0])] = columns

    def wal_bytes(_args, size):
        tracer.counters["persist.wal_bytes"] += size

    def checkpoint_bytes(_args, path):
        tracer.counters["persist.checkpoint_bytes"] += Path(path).stat().st_size

    def replayed(_args, engine):
        tracer.counters["persist.recover.records_replayed"] += (
            engine.last_recovery.records_replayed
        )

    try:
        # repro.streams (csv_load is a harness-side span around next()).
        patches.set(
            io_mod,
            "save_stream_csv",
            tracer.wrap("streams.csv_save", io_mod.save_stream_csv),
        )
        # repro.core
        method(ReservoirSampler, "offer_many", "core.offer_many")
        for cls in (ExponentialReservoir, VariableReservoir):
            method(cls, "offer", "core.offer")
            method(cls, "inclusion_probabilities", "core.inclusion_probabilities")
        method(
            ReservoirSampler,
            "resident_columns",
            "core.resident_columns",
            column_rebuilds,
        )
        # repro.shard
        method(ShardedReservoir, "offer_many", "shard.offer_many")
        method(ShardedReservoir, "fold", "shard.fold")
        method(ShardWorker, "ingest", "shard.worker_ingest")
        # repro.persist: engine methods, then the names the engine and the
        # WAL writer look up as module globals at call time.
        method(DurableReservoir, "offer_many", "persist.offer_many")
        method(DurableReservoir, "checkpoint", "persist.checkpoint")
        recover = DurableReservoir.__dict__["recover"].__func__
        patches.set(
            DurableReservoir,
            "recover",
            classmethod(tracer.wrap("persist.recover", recover, replayed)),
        )
        method(WalWriter, "append", "persist.wal_append", wal_bytes)
        patches.set(
            engine_mod,
            "write_checkpoint",
            tracer.wrap(
                "persist.write_checkpoint",
                engine_mod.write_checkpoint,
                checkpoint_bytes,
            ),
        )
        patches.set(
            wal_mod,
            "encode_record",
            tracer.wrap("persist.encode_record", wal_mod.encode_record),
        )
        patches.set(os, "fsync", tracer.wrap("persist.fsync", os.fsync))
        # repro.queries
        method(QueryEstimator, "estimate", "queries.estimate")
        method(LinearQuery, "values_matrix", "queries.values_matrix")
        method(StreamHistory, "observe_all", "queries.oracle")
        method(StreamHistory, "evaluate", "queries.oracle")
        # repro.mining
        method(ReservoirKnnClassifier, "predict", "mining.knn_predict")
        method(ReservoirKnnClassifier, "observe", "mining.knn_observe")
        yield tracer
    finally:
        patches.restore()
