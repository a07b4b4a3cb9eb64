"""The four closed-loop workloads: input, set-up, timed ops and checks.

Every workload runs in one process as a single closed-loop client: the
next op starts when the previous one returns. A run is a sequence of
*passes* over the same generated input. Each pass builds the system from
scratch, drives every op through the library's public API, finishes the
job the way ``repro sample`` does, then simulates a crash mid-pass and
checks that recovery reproduces the uninterrupted state. Pass 0 is a
warm-up that also audits estimate quality (``result_error``); only
passes 1.. feed the timing metrics.

Op correctness checks and host-speed probes run after the op's clock
stops. An op that raises aborts its pass and counts as failed.
"""

from __future__ import annotations

import gc
import io
import pickle
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

import repro.streams.io as sio
from inputs import (
    blocks_of,
    derive_seed,
    evolving_points,
    exact_answers,
    query_mix,
    relative_errors,
    with_label_noise,
)
from repro.core import ExponentialReservoir, VariableReservoir, from_state_dict
from repro.mining import ReservoirKnnClassifier
from repro.persist import DurableReservoir
from repro.queries import QueryEstimator
from repro.shard import ShardedReservoir
from hostspeed import probe, to_reference
from tracer import Tracer

clock = time.perf_counter

#: Largest mean relative error one op's query mix may show before the op
#: counts as failed. The worst op of any audit pass measured 0.008-0.023
#: (see METRICS.md); the band sits ten times above that so only a broken
#: estimator or sampler trips it.
QUERY_ERROR_BAND = 0.25

#: Lowest per-window prequential accuracy an op may show. With labels
#: flipped at rate ``LABEL_NOISE`` the expected accuracy of 1-NN is
#: 1 - 0.187 = 0.813 and one 250-point window has a standard deviation of
#: 0.025, so the floor sits six deviations below; a broken mirror or
#: distance kernel falls to chance (0.25).
KNN_ACCURACY_FLOOR = 0.65


def state_bytes(sampler: Any) -> bytes:
    """``sampler.state_dict()`` in a form two states compare by.

    Pickled without a memo: a restored resident's array carries its own
    unpickled dtype object where a live one shares numpy's, and a memo
    would encode that sharing, not the state.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(sampler.state_dict())
    return buffer.getvalue()


@dataclass
class PassResult:
    """Measurements and check outcomes of one pass.

    Raw timings are wall seconds. ``probes`` holds a host-speed probe
    taken before the first op and after every op and the finish, so
    ``probes[i]`` and ``probes[i + 1]`` bracket op ``i``; see
    ``hostspeed.py``.
    """

    points: int = 0
    timed_s: float = 0.0
    #: Timed end of the job (close + save, or fold + close).
    finish_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    #: Recovery times, already in reference seconds.
    recover_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Quality samples: relative errors, or prequential hits/predictions.
    errors: List[float] = field(default_factory=list)
    worst_op_error: float = 0.0
    hits: int = 0
    predictions: int = 0
    insertions: int = 0
    ejections: int = 0
    load_imbalance: float = 0.0

    def start_ops(self) -> None:
        self.probes.append(probe())

    def add_op(self, elapsed: float, points: int) -> None:
        """Record one timed op, then probe the host right after it."""
        self.latencies.append(elapsed)
        self.probes.append(probe())
        self.timed_s += elapsed
        self.points += points

    def add_finish(self, elapsed: float) -> None:
        self.finish_s = elapsed
        self.timed_s += elapsed
        self.probes.append(probe())

    def reference_latencies(self) -> List[float]:
        """Op latencies in reference seconds."""
        p = self.probes
        return [to_reference(x, p[i], p[i + 1]) for i, x in enumerate(self.latencies)]

    def reference_seconds(self) -> float:
        """Timed seconds of the pass (ops and finish) in reference seconds."""
        total = sum(self.reference_latencies())
        if self.finish_s:
            total += to_reference(self.finish_s, self.probes[-2], self.probes[-1])
        return total

    @property
    def throughput(self) -> float:
        """Points per reference second."""
        seconds = self.reference_seconds()
        return self.points / seconds if seconds > 0 else 0.0

    def check(self, label: str, problems: List[str]) -> None:
        """Count one attempted op; it fails if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {'; '.join(problems)}")


class Workload:
    """Base of the workloads: seeds, scale, set-up timing, query audit."""

    name = ""
    #: Timed recoveries per measured pass, feeding ``recover_s``.
    recoveries = 2
    #: Set-ups per timed batch (``setup_s``).
    setup_batch = 500
    #: Share of a pass's ops done when the simulated crash captures state.
    crash_fraction = 0.8

    def __init__(
        self, seed: int, scratch: Path, tracer: Tracer, scale: float = 1.0
    ) -> None:
        self.seed = int(seed)
        self.scratch = scratch
        self.tracer = tracer
        self.scale = float(scale)
        self.sampler_seed = derive_seed(seed, self.name, 1)

    def size(self, full: int, block: int) -> int:
        """Stream length at this scale, at least four blocks."""
        return max(4 * block, int(full * self.scale))

    def crash_at(self, n_ops: int) -> int:
        """Op index after which the simulated crash captures state."""
        return max(0, min(n_ops - 2, int(n_ops * self.crash_fraction)))

    # Hooks ------------------------------------------------------------ #

    def prepare(self) -> None:
        """Load generator: build the input before any set-up."""
        raise NotImplementedError

    def setup(self, directory: Path) -> Any:
        """Build the system under test (what ``setup_s`` times)."""
        raise NotImplementedError

    def discard(self, system: Any) -> None:
        """Release a system built only to time its set-up."""

    def run_pass(self, index: int, audit: bool, traced: bool) -> PassResult:
        raise NotImplementedError

    # Shared pieces ---------------------------------------------------- #

    def audit_queries(
        self, sampler: Any, op: int, result: PassResult
    ) -> List[str]:
        """Estimate the query mix after op ``op``, check it, keep errors."""
        estimator = QueryEstimator(sampler)
        estimates = [estimator.estimate(q).estimate for q in self.queries]
        errors, finite = relative_errors(self.truths[op], estimates)
        return query_problems(errors, finite, result)


def query_problems(
    errors: List[float], finite: bool, result: PassResult
) -> List[str]:
    """Check one op's estimates; keep its errors in ``result``."""
    result.errors.extend(errors)
    problems = [] if finite else ["non-finite estimate"]
    if errors:
        mean = float(np.mean(errors))
        result.worst_op_error = max(result.worst_op_error, mean)
        if mean > QUERY_ERROR_BAND:
            problems.append(f"mean relative error {mean:.3g} > {QUERY_ERROR_BAND}")
    return problems


def _ops_failed(result: PassResult, label: str, exc: BaseException) -> None:
    result.check(label, [f"raised {exc!r}"])


# ---------------------------------------------------------------------- #
# Durable workloads
# ---------------------------------------------------------------------- #


class _Durable(Workload):
    """Journaled ingestion with periodic checkpoints and crash recovery.

    Subclasses supply the block source, the finish step and the sampler
    counters; the op loop, the crash capture and the recovery checks are
    shared.
    """

    capacity = 10_000
    checkpoint_every = 64

    #: A recovery takes 0.1-0.2 s; four a pass give a run 16-28 samples.
    recoveries = 4
    #: WAL records one ingested block writes.
    records_per_op = 1
    #: Each set-up writes and fsyncs an initial checkpoint.
    setup_batch = 20

    def tail_records(self, crash_after: int) -> int:
        """WAL records written after the last checkpoint before the crash."""
        records = self.records_per_op * (crash_after + 1)
        return records % self.checkpoint_every

    def discard(self, system: Any) -> None:
        system.close(final_checkpoint=False)
        shutil.rmtree(system.directory, ignore_errors=True)

    def block_source(self) -> Iterator[list]:
        raise NotImplementedError

    def finish(self, engine: DurableReservoir, directory: Path) -> Callable:
        """Timed end of the job; returns a check of its outcome."""
        raise NotImplementedError

    def record_counters(self, engine: DurableReservoir, result: PassResult):
        raise NotImplementedError

    def run_pass(self, index: int, audit: bool, traced: bool) -> PassResult:
        result = PassResult()
        directory = self.scratch / f"pass{index}"
        tracer = self.tracer
        crash_after = self.crash_at(len(self.truths))
        engine = self.setup(directory)
        tail: List[list] = []
        crash_dir = directory / "crash"
        try:
            with tracer.recording(traced):
                source = self.block_source()
                op = 0
                result.start_ops()
                while True:
                    tracer.op = op
                    start = clock()
                    block = next(source, None)
                    if block is None:
                        end_of_source = clock() - start
                        break
                    engine.offer_many(block)
                    elapsed = clock() - start
                    tracer.op = -1
                    result.add_op(elapsed, len(block))
                    with tracer.recording(False):
                        problems = []
                        if engine.t != result.points:
                            problems.append(
                                f"t={engine.t}, expected {result.points}"
                            )
                        if audit:
                            problems += self.audit_queries(
                                engine.sampler, op, result
                            )
                        result.check(f"block {op}", problems)
                        if op == crash_after:
                            shutil.copytree(engine.directory, crash_dir)
                        elif audit and op > crash_after:
                            tail.append(block)
                    op += 1
                start = clock()
                check_finish = self.finish(engine, directory)
                result.add_finish(end_of_source + clock() - start)
            result.check("finish", check_finish())
            self.record_counters(engine, result)
            self.recover_and_resume(
                crash_dir,
                tail,
                lambda: state_bytes(engine),
                self.tail_records(crash_after),
                result,
                audit,
                traced,
            )
        except Exception as exc:
            _ops_failed(result, f"pass {index}", exc)
        finally:
            tracer.op = -1
            engine.close(final_checkpoint=False)
            shutil.rmtree(directory, ignore_errors=True)
        return result

    def recover_and_resume(
        self,
        crash_dir: Path,
        tail: List[list],
        expected_state: Callable[[], Any],
        expected_replayed: int,
        result: PassResult,
        audit: bool,
        traced: bool,
    ) -> None:
        """Time recoveries of fresh copies of the crashed journal.

        The audit pass recovers once and resumes the stream to compare
        against the uninterrupted run; measured passes only time
        ``recoveries`` recoveries and check how much WAL they replayed.
        """
        for r in range(1 if audit else self.recoveries):
            copy = crash_dir.with_name(f"recover{r}")
            shutil.copytree(crash_dir, copy)
            problems: List[str] = []
            try:
                gc.collect()  # every recovery starts from the same heap
                before = probe()
                with self.tracer.recording(traced and r == 0):
                    start = clock()
                    engine = DurableReservoir.recover(
                        copy, checkpoint_every_records=self.checkpoint_every
                    )
                    elapsed = clock() - start
                result.recover_s.append(to_reference(elapsed, before, probe()))
                replayed = engine.last_recovery.records_replayed
                if replayed != expected_replayed:
                    problems.append(
                        f"replayed {replayed} WAL records, "
                        f"expected {expected_replayed}"
                    )
                if audit:
                    for block in tail:
                        engine.offer_many(block)
                    if state_bytes(engine) != expected_state():
                        problems.append(
                            "crash -> recover -> resume state differs from "
                            "the uninterrupted run"
                        )
                engine.close(final_checkpoint=False)
            except Exception as exc:  # a failed recovery is a failed op
                problems.append(f"raised {exc!r}")
            finally:
                shutil.rmtree(copy, ignore_errors=True)
            result.check(f"recover {r}", problems)


class ReplayDurable(_Durable):
    """``repro sample --checkpoint-dir`` on an evolving-cluster CSV."""

    name = "replay_durable"
    block = 1024
    full_length = 100_000

    def prepare(self) -> None:
        length = self.size(self.full_length, self.block)
        points = evolving_points(length, derive_seed(self.seed, self.name, 0))
        self.csv_path = self.scratch / "input.csv"
        with self.tracer.recording(False):
            sio.save_stream_csv(points, self.csv_path)
        self.queries = query_mix(points)
        ends = np.cumsum([len(b) for b in blocks_of(points, self.block)])
        with self.tracer.recording():
            self.truths = exact_answers(points, self.queries, ends.tolist())

    def setup(self, directory: Path) -> DurableReservoir:
        sampler = ExponentialReservoir(
            capacity=self.capacity, rng=self.sampler_seed
        )
        return DurableReservoir(
            sampler,
            directory / "journal",
            wal_sync="batch",
            checkpoint_every_records=self.checkpoint_every,
        )

    def block_source(self) -> Iterator[list]:
        """Chunks of the input CSV; parsing is part of each timed op."""
        reader = sio.load_stream_csv_chunks(self.csv_path, self.block)
        while True:
            with self.tracer.span("streams.csv_load"):
                block = next(reader, None)
            if block is None:
                return
            self.tracer.count("streams.csv_load.rows", len(block))
            yield block

    def finish(self, engine: DurableReservoir, directory: Path) -> Callable:
        engine.close()
        written = sio.save_stream_csv(
            engine.payloads(), directory / "residents.csv"
        )
        size = engine.size
        return lambda: (
            [] if written == size else [f"wrote {written} of {size} residents"]
        )

    def record_counters(self, engine: DurableReservoir, result: PassResult):
        result.insertions = engine.sampler.insertions
        result.ejections = engine.sampler.ejections


class ShardedDurable(_Durable):
    """Pre-built blocks into a journaled two-shard inline facade."""

    name = "sharded_durable"
    block = 4096
    full_length = 64 * 4096
    workers = 2
    records_per_op = workers  # one WAL record per shard sub-block
    # One checkpoint-bearing op in 64 keeps them clear of the 95th
    # percentile; the crash lands 8 blocks (16 records) after it.
    checkpoint_every = 100
    crash_fraction = 0.9

    def prepare(self) -> None:
        length = self.size(self.full_length, self.block)
        points = evolving_points(length, derive_seed(self.seed, self.name, 0))
        self.blocks = blocks_of(points, self.block)
        self.queries = query_mix(points)
        ends = np.cumsum([len(b) for b in self.blocks])
        with self.tracer.recording():
            self.truths = exact_answers(points, self.queries, ends.tolist())

    def setup(self, directory: Path) -> DurableReservoir:
        facade = ShardedReservoir(
            capacity=self.capacity,
            workers=self.workers,
            backend="inline",
            rng=self.sampler_seed,
        )
        return DurableReservoir(
            facade,
            directory / "journal",
            wal_sync="batch",
            checkpoint_every_records=self.checkpoint_every,
        )

    def block_source(self) -> Iterator[list]:
        return iter(self.blocks)

    def finish(self, engine: DurableReservoir, directory: Path) -> Callable:
        folded = engine.sampler.fold()
        engine.close()

        def check() -> List[str]:
            facade = engine.sampler
            if folded.size == facade.size and folded.t == facade.t:
                return []
            return [f"fold kept {folded.size} of {facade.size} at t={folded.t}"]

        return check

    def record_counters(self, engine: DurableReservoir, result: PassResult):
        states = [s["sampler"] for s in engine.sampler.worker_states()]
        offers = [s["offers"] for s in states]
        result.load_imbalance = max(offers) / (sum(offers) / len(offers))
        result.insertions = sum(s["insertions"] for s in states)
        result.ejections = sum(s["ejections"] for s in states)


# ---------------------------------------------------------------------- #
# In-memory workloads
# ---------------------------------------------------------------------- #


class _InMemory(Workload):
    """No journal: a crash is simulated with a pickled ``state_dict()``."""

    recoveries = 10  # a restore takes milliseconds; take many samples

    def recover_and_resume(
        self,
        snapshot: bytes,
        resume: Callable[[Any], Any],
        expected: Callable[[], Any],
        result: PassResult,
        audit: bool,
    ) -> None:
        """Time restores of the crash snapshot; the audit pass resumes one."""
        for r in range(1 if audit else self.recoveries):
            problems: List[str] = []
            try:
                gc.collect()  # every recovery starts from the same heap
                before = probe()
                start = clock()
                sampler = from_state_dict(pickle.loads(snapshot))
                elapsed = clock() - start
                result.recover_s.append(to_reference(elapsed, before, probe()))
                if audit and resume(sampler) != expected():
                    problems.append(
                        "crash -> recover -> resume differs from the "
                        "uninterrupted run"
                    )
            except Exception as exc:  # a failed recovery is a failed op
                problems.append(f"raised {exc!r}")
            result.check(f"recover {r}", problems)


class CheckpointQueries(_InMemory):
    """Variable reservoir (Theorem 3.3) with a query mix after each block."""

    name = "checkpoint_queries"
    block = 1024
    full_length = 100_000
    capacity = 5_000
    lam = 1e-4

    def prepare(self) -> None:
        length = self.size(self.full_length, self.block)
        points = evolving_points(length, derive_seed(self.seed, self.name, 0))
        self.blocks = blocks_of(points, self.block)
        self.queries = query_mix(points)
        ends = np.cumsum([len(b) for b in self.blocks])
        with self.tracer.recording():
            self.truths = exact_answers(points, self.queries, ends.tolist())

    def setup(self, directory: Path):
        sampler = VariableReservoir(
            lam=self.lam, capacity=self.capacity, rng=self.sampler_seed
        )
        return sampler, QueryEstimator(sampler)

    def run_pass(self, index: int, audit: bool, traced: bool) -> PassResult:
        result = PassResult()
        tracer = self.tracer
        crash_after = self.crash_at(len(self.blocks))
        sampler, estimator = self.setup(self.scratch)
        try:
            with tracer.recording(traced):
                result.start_ops()
                for op, block in enumerate(self.blocks):
                    tracer.op = op
                    start = clock()
                    sampler.offer_many(block)
                    estimates = [
                        estimator.estimate(q).estimate for q in self.queries
                    ]
                    elapsed = clock() - start
                    tracer.op = -1
                    result.add_op(elapsed, len(block))
                    errors, finite = relative_errors(self.truths[op], estimates)
                    problems = query_problems(errors, finite, result)
                    if sampler.t != result.points:
                        problems.append(f"t={sampler.t}")
                    result.check(f"block {op}", problems)
                    if op == crash_after:
                        snapshot = pickle.dumps(
                            sampler.state_dict(), pickle.HIGHEST_PROTOCOL
                        )
            result.insertions = sampler.insertions
            result.ejections = sampler.ejections

            def resume(restored) -> Any:
                for block in self.blocks[crash_after + 1 :]:
                    restored.offer_many(block)
                return state_bytes(restored)

            self.recover_and_resume(
                snapshot,
                resume,
                lambda: state_bytes(sampler),
                result,
                audit,
            )
        except Exception as exc:
            _ops_failed(result, f"pass {index}", exc)
        finally:
            tracer.op = -1
        return result


class PrequentialKnn(_InMemory):
    """1-NN predict-then-observe over an Algorithm 2.1 reservoir."""

    name = "prequential_knn"
    window = 250
    full_length = 30_000
    capacity = 1_000

    def prepare(self) -> None:
        length = self.size(self.full_length, self.window)
        points = evolving_points(length, derive_seed(self.seed, self.name, 0))
        self.windows = blocks_of(
            with_label_noise(points, derive_seed(self.seed, self.name, 2)),
            self.window,
        )

    def setup(self, directory: Path) -> ReservoirKnnClassifier:
        sampler = ExponentialReservoir(
            capacity=self.capacity, rng=self.sampler_seed
        )
        return ReservoirKnnClassifier(sampler, k=1)

    def run_pass(self, index: int, audit: bool, traced: bool) -> PassResult:
        result = PassResult()
        tracer = self.tracer
        crash_after = self.crash_at(len(self.windows))
        classifier = self.setup(self.scratch)
        tail_predictions: List[Optional[int]] = []
        try:
            with tracer.recording(traced):
                result.start_ops()
                for op, window in enumerate(self.windows):
                    tracer.op = op
                    start = clock()
                    predictions = [
                        classifier.predict_then_observe(p) for p in window
                    ]
                    elapsed = clock() - start
                    tracer.op = -1
                    result.add_op(elapsed, len(window))
                    result.check(
                        f"window {op}",
                        self.window_problems(op, window, predictions, result),
                    )
                    if op == crash_after:
                        snapshot = pickle.dumps(
                            classifier.sampler.state_dict(),
                            pickle.HIGHEST_PROTOCOL,
                        )
                    elif audit and op > crash_after:
                        tail_predictions.extend(predictions)
            sampler = classifier.sampler
            result.insertions = sampler.insertions
            result.ejections = sampler.ejections

            def resume(restored) -> Any:
                resumed = ReservoirKnnClassifier(restored, k=1)
                predictions = [
                    resumed.predict_then_observe(p)
                    for window in self.windows[crash_after + 1 :]
                    for p in window
                ]
                return predictions, state_bytes(restored)

            self.recover_and_resume(
                snapshot,
                resume,
                lambda: (tail_predictions, state_bytes(sampler)),
                result,
                audit,
            )
        except Exception as exc:
            _ops_failed(result, f"pass {index}", exc)
        finally:
            tracer.op = -1
        return result

    @staticmethod
    def window_problems(
        op: int, window: list, predictions: list, result: PassResult
    ) -> List[str]:
        """One prediction per point after the very first; accuracy floor."""
        expected_missing = 1 if op == 0 else 0
        missing = sum(p is None for p in predictions)
        problems = []
        if missing != expected_missing or (op == 0 and predictions[0] is not None):
            problems.append(f"{missing} points got no prediction")
        made = [(p, x.label) for p, x in zip(predictions, window) if p is not None]
        hits = sum(p == label for p, label in made)
        result.hits += hits
        result.predictions += len(made)
        if made and hits / len(made) < KNN_ACCURACY_FLOOR:
            problems.append(
                f"window accuracy {hits / len(made):.3f} < {KNN_ACCURACY_FLOOR}"
            )
        return problems


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (ReplayDurable, CheckpointQueries, PrequentialKnn, ShardedDurable)
}
