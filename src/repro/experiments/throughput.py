"""Ingestion-throughput measurement: batched vs per-item offers.

The batch API (:meth:`~repro.core.reservoir.ReservoirSampler.offer_many`)
exists for exactly one reason — points/sec. This module is the single
source of truth for measuring that claim, shared by the benchmark suite
(``benchmarks/test_throughput_batch.py``) and the ``repro bench`` CLI
subcommand so both report identical numbers into ``BENCH_throughput.json``.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.reservoir import ReservoirSampler

__all__ = [
    "measure_throughput",
    "throughput_report",
    "sharded_throughput_report",
    "durable_throughput_report",
    "query_bench_inputs",
    "estimates_seconds",
    "checkpoint_mix_inputs",
    "checkpoint_mix_seconds",
    "query_throughput_report",
    "write_throughput_json",
    "BENCH_JSON_NAME",
]

#: File name (at the repo root) the throughput results are recorded under.
BENCH_JSON_NAME = "BENCH_throughput.json"

PathLike = Union[str, Path]

#: Points between two evaluations of the query benchmark's checkpoint mix.
CHECKPOINT_BLOCK = 4096


def _best_of(repeats: int, run: Callable[[], float]) -> float:
    """Smallest wall-clock time over ``repeats`` runs (noise-robust)."""
    return min(run() for _ in range(repeats))


def measure_throughput(
    make_sampler: Callable[[], ReservoirSampler],
    stream_length: int,
    batch_size: int = 8192,
    repeats: int = 3,
) -> Dict[str, float]:
    """Compare per-item ``offer`` vs chunked ``offer_many`` ingestion.

    Streams ``stream_length`` integer payloads into a fresh sampler from
    ``make_sampler`` for each timed run (best of ``repeats``), once through
    the per-item loop and once through ``offer_many`` in ``batch_size``
    blocks. Returns points/sec for both paths plus their ratio
    (``speedup``); integer payloads keep the measurement about sampler
    overhead, not payload construction.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    points = list(range(stream_length))

    def run_per_item() -> float:
        sampler = make_sampler()
        offer = sampler.offer
        start = time.perf_counter()
        for point in points:
            offer(point)
        return time.perf_counter() - start

    def run_batched() -> float:
        sampler = make_sampler()
        offer_many = sampler.offer_many
        start = time.perf_counter()
        for lo in range(0, stream_length, batch_size):
            offer_many(points[lo : lo + batch_size])
        return time.perf_counter() - start

    per_item_s = _best_of(repeats, run_per_item)
    batched_s = _best_of(repeats, run_batched)
    per_item_pps = stream_length / per_item_s
    batched_pps = stream_length / batched_s
    return {
        "stream_length": stream_length,
        "batch_size": batch_size,
        "per_item_points_per_sec": per_item_pps,
        "batched_points_per_sec": batched_pps,
        "speedup": batched_pps / per_item_pps,
    }


def _default_cases() -> List[Dict[str, Any]]:
    """The benchmark matrix: each fast-path sampler at its acceptance config.

    The headline case is ``ExponentialReservoir`` at ``n=10_000`` over a
    200k-point stream — the configuration the >=25x batch-speedup
    acceptance criterion is stated against. The two ``VariableReservoir``
    cases time its block path where each segment kind dominates: a
    stream that ends inside the fill segment, and one spent mostly in
    the one-append phases (``lambda = 1e-4``, target ``p_in = 0.5``).
    """
    from repro.core import (
        ExponentialReservoir,
        SkipUnbiasedReservoir,
        UnbiasedReservoir,
        VariableReservoir,
    )

    return [
        {
            "name": "exponential_n10000",
            "sampler": "ExponentialReservoir",
            "make": lambda: ExponentialReservoir(capacity=10_000, rng=7),
            "stream_length": 200_000,
        },
        {
            "name": "unbiased_n10000",
            "sampler": "UnbiasedReservoir",
            "make": lambda: UnbiasedReservoir(10_000, rng=7),
            "stream_length": 200_000,
        },
        {
            "name": "skip_unbiased_n10000",
            "sampler": "SkipUnbiasedReservoir",
            "make": lambda: SkipUnbiasedReservoir(10_000, rng=7),
            "stream_length": 200_000,
        },
        {
            "name": "variable_fill_n5000",
            "sampler": "VariableReservoir",
            "make": lambda: VariableReservoir(lam=1e-4, capacity=5_000, rng=7),
            "stream_length": 5_000,
        },
        {
            "name": "variable_phases_n5000",
            "sampler": "VariableReservoir",
            "make": lambda: VariableReservoir(lam=1e-4, capacity=5_000, rng=7),
            "stream_length": 100_000,
        },
    ]


def throughput_report(
    batch_size: int = 8192, repeats: int = 3
) -> Dict[str, Any]:
    """Run the full benchmark matrix; returns the ``BENCH_throughput.json``
    payload (machine metadata plus one result record per case)."""
    results = []
    for case in _default_cases():
        measured = measure_throughput(
            case["make"],
            case["stream_length"],
            batch_size=batch_size,
            repeats=repeats,
        )
        results.append({"name": case["name"], "sampler": case["sampler"], **measured})
    return {
        "benchmark": "offer_many batch ingestion vs per-item offer",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "results": results,
    }


def sharded_throughput_report(
    capacity: int = 10_000,
    workers: int = 4,
    stream_length: int = 200_000,
    batch_size: int = 8192,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Sharded-engine throughput vs the serial ``offer_many`` path.

    Streams the same integer stream through three ingestion engines (best
    of ``repeats`` each): a serial :class:`ExponentialReservoir` via
    chunked ``offer_many``, the sharded facade at ``W = 1``, and the
    sharded facade at ``W = workers``. Every shard is a plain
    :class:`ExponentialReservoir` running the same block kernel as the
    serial one, so on one core ``speedup_vs_serial`` measures the cost of
    the facade's routing, not a faster kernel or process parallelism.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    from repro.core import ExponentialReservoir
    from repro.shard import ShardedReservoir

    points = list(range(stream_length))

    def points_per_sec(make: Callable[[], Any]) -> float:
        def run() -> float:
            sampler = make()
            offer_many = sampler.offer_many
            start = time.perf_counter()
            for lo in range(0, stream_length, batch_size):
                offer_many(points[lo : lo + batch_size])
            return time.perf_counter() - start

        return stream_length / _best_of(repeats, run)

    serial_pps = points_per_sec(
        lambda: ExponentialReservoir(capacity=capacity, rng=7)
    )
    w1_pps = points_per_sec(
        lambda: ShardedReservoir(capacity=capacity, workers=1, rng=7)
    )
    sharded_pps = points_per_sec(
        lambda: ShardedReservoir(capacity=capacity, workers=workers, rng=7)
    )
    return {
        "capacity": capacity,
        "workers": workers,
        "stream_length": stream_length,
        "batch_size": batch_size,
        "repeats": repeats,
        "serial_offer_many_points_per_sec": serial_pps,
        "sharded_w1_points_per_sec": w1_pps,
        "sharded_points_per_sec": sharded_pps,
        "speedup_vs_serial": sharded_pps / serial_pps,
    }


def durable_throughput_report(
    checkpoint_dir: PathLike,
    capacity: int = 10_000,
    stream_length: int = 200_000,
    batch_size: int = 8192,
    repeats: int = 3,
    sync_policies: tuple = ("never", "batch", "always"),
) -> Dict[str, Any]:
    """Durability overhead: plain ``offer_many`` vs :class:`DurableReservoir`.

    Streams the same integer stream through a bare
    :class:`~repro.core.ExponentialReservoir` and through the durable
    facade under each WAL fsync policy (best of ``repeats`` each; a fresh
    journal directory per run so every run pays the same journal-growth
    cost). The headline number per policy is ``overhead_ratio`` — plain
    points/sec divided by durable points/sec, i.e. how many times slower
    ingestion gets when every block is journalled first.
    """
    import shutil

    from repro.core import ExponentialReservoir
    from repro.persist import DurableReservoir

    base = Path(checkpoint_dir)
    points = list(range(stream_length))

    def timed(make: Callable[[], Any], close: bool) -> float:
        def run() -> float:
            sampler = make()
            offer_many = sampler.offer_many
            start = time.perf_counter()
            for lo in range(0, stream_length, batch_size):
                offer_many(points[lo : lo + batch_size])
            if close:
                sampler.close(final_checkpoint=False)
            return time.perf_counter() - start

        return stream_length / _best_of(repeats, run)

    plain_pps = timed(
        lambda: ExponentialReservoir(capacity=capacity, rng=7), close=False
    )
    policies: Dict[str, Any] = {}
    for sync in sync_policies:
        journal = base / f"bench-{sync}"

        def make_durable(journal: Path = journal, sync: str = sync) -> Any:
            if journal.exists():
                shutil.rmtree(journal)
            return DurableReservoir(
                ExponentialReservoir(capacity=capacity, rng=7),
                journal,
                wal_sync=sync,
            )

        durable_pps = timed(make_durable, close=True)
        policies[sync] = {
            "durable_points_per_sec": durable_pps,
            "overhead_ratio": plain_pps / durable_pps,
        }
    return {
        "capacity": capacity,
        "stream_length": stream_length,
        "batch_size": batch_size,
        "repeats": repeats,
        "plain_offer_many_points_per_sec": plain_pps,
        "sync_policies": policies,
    }


def query_bench_inputs(
    capacity: int = 1000,
    lam: float = 1e-4,
    stream_length: int = 50_000,
    dimensions: int = 10,
) -> Tuple[ReservoirSampler, Any, List[Any]]:
    """The seeded inputs the query benchmark times.

    Returns ``(sampler, history, queries)``: an Algorithm 3.1 reservoir
    and a :class:`~repro.queries.exact.StreamHistory` fed the same
    seeded synthetic stream, and the builder-query suite every figure
    evaluates (count, sum, range count, class count, average, range
    selectivity) at a quarter-stream horizon. Equal arguments give equal
    inputs, so a second timing over them (the per-point oracle in
    ``tests/query_oracle.py``) compares like with like.
    """
    from repro.core import SpaceConstrainedReservoir
    from repro.queries import (
        StreamHistory,
        average_query,
        class_count_query,
        count_query,
        range_count_query,
        range_selectivity_query,
        sum_query,
    )
    from repro.streams import EvolvingClusterStream

    sampler = SpaceConstrainedReservoir(lam=lam, capacity=capacity, rng=7)
    history = StreamHistory(dimensions)
    stream = EvolvingClusterStream(
        length=stream_length, dimensions=dimensions, rng=7
    )
    for point in stream:
        history.observe(point)
        sampler.offer(point)

    horizon = max(1, stream_length // 4)
    dims = range(dimensions)
    queries = [
        count_query(horizon),
        sum_query(horizon, dims),
        range_count_query(horizon, (0, 1), (0.0, 0.0), (1.0, 1.0)),
        class_count_query(horizon, 4),
        average_query(horizon, dims),
        range_selectivity_query(horizon, (0, 1), (0.0, 0.0), (1.0, 1.0)),
    ]
    return sampler, history, queries


def estimates_seconds(
    estimator_for: Callable[[], Callable[[Any], Any]],
    queries: List[Any],
    rounds: int,
    repeats: int,
) -> float:
    """Best-of-``repeats`` wall time of ``rounds`` passes over
    ``queries``; each pass calls ``estimator_for()`` once and estimates
    every query through the function it returns, so an estimator built
    there starts each pass with no shared records."""

    def run() -> float:
        start = time.perf_counter()
        for _ in range(rounds):
            estimate = estimator_for()
            for query in queries:
                estimate(query)
        return time.perf_counter() - start

    return _best_of(repeats, run)


def checkpoint_mix_inputs(
    stream_length: int = 50_000, dimensions: int = 10
) -> Tuple[List[Any], List[Any]]:
    """The seeded blocks and query mix the checkpoint-mix timing uses.

    Returns ``(blocks, queries)``: the :func:`query_bench_inputs` stream
    cut into :class:`~repro.streams.point.PointBlock` s of
    :data:`CHECKPOINT_BLOCK` points, and a ten-query mix (count, sum,
    average, range count and class count, each at a short and a long
    horizon) to evaluate after every block.
    """
    from repro.queries import (
        average_query,
        class_count_query,
        count_query,
        range_count_query,
        sum_query,
    )
    from repro.streams import EvolvingClusterStream
    from repro.streams.point import PointBlock

    points = list(
        EvolvingClusterStream(
            length=stream_length, dimensions=dimensions, rng=7
        )
    )
    blocks = [
        PointBlock.from_points(points[start : start + CHECKPOINT_BLOCK])
        for start in range(0, stream_length, CHECKPOINT_BLOCK)
    ]
    dims = range(dimensions)
    queries: List[Any] = []
    for horizon in (max(1, stream_length // 50), max(1, stream_length // 10)):
        queries += [
            count_query(horizon),
            sum_query(horizon, dims),
            average_query(horizon, dims),
            range_count_query(horizon, (0, 1), (0.0, 0.0), (1.0, 1.0)),
            class_count_query(horizon, 4),
        ]
    return blocks, queries


def checkpoint_mix_seconds(
    estimator_for: Callable[[ReservoirSampler], Callable[[Any], Any]],
    capacity: int,
    lam: float,
    blocks: List[Any],
    queries: List[Any],
    repeats: int,
) -> Tuple[float, List[Any]]:
    """Best-of-``repeats`` wall time of evaluating ``queries`` after
    every block, and the last run's results.

    Each run offers ``blocks`` into a fresh seeded Algorithm 3.1
    reservoir and calls ``estimator_for(sampler)`` once; the function it
    returns estimates one query. Only the query evaluations are timed,
    so every checkpoint is a new sampler state that the mix shares.
    """
    from repro.core import SpaceConstrainedReservoir

    results: List[Any] = []

    def run() -> float:
        sampler = SpaceConstrainedReservoir(lam=lam, capacity=capacity, rng=7)
        estimate = estimator_for(sampler)
        results.clear()
        elapsed = 0.0
        for block in blocks:
            sampler.offer_many(block)
            start = time.perf_counter()
            results.extend(estimate(query) for query in queries)
            elapsed += time.perf_counter() - start
        return elapsed

    return _best_of(repeats, run), results


def query_throughput_report(
    capacity: int = 1000,
    lam: float = 1e-4,
    stream_length: int = 50_000,
    dimensions: int = 10,
    repeats: int = 3,
    eval_rounds: int = 20,
    quick: bool = False,
) -> Dict[str, Any]:
    """Columnar query-engine throughput, incremental vs scan oracle.

    Three measurements:

    * **Estimator**: the builder-query suite of :func:`query_bench_inputs`
      is estimated ``eval_rounds`` times against the same reservoir, each
      round through a fresh :class:`~repro.queries.estimator.QueryEstimator`,
      and reported as estimates/sec. So every round builds the shared
      per-horizon records again, as a new sampler state would.
    * **Checkpoint mix**: the ten-query mix of
      :func:`checkpoint_mix_inputs` is estimated after every
      :data:`CHECKPOINT_BLOCK`-point block (:func:`checkpoint_mix_seconds`),
      so each checkpoint pays for its own support, ``p`` and rows once.
    * **Oracle**: the exact :class:`~repro.queries.exact.StreamHistory`
      answer for the whole-history average is timed at a quarter-stream
      checkpoint and at the full stream, via the incremental prefix
      structures and via the horizon scan. ``incremental_cost_growth``
      stays ~flat while ``scan_cost_growth`` tracks the 4x horizon
      growth — the O(dims) vs O(horizon) claim, measured.

    ``quick=True`` shrinks the stream and round counts for smoke-test
    latency (CI) without changing the report's shape.
    """
    from repro.queries import QueryEstimator, average_query

    if quick:
        stream_length = min(stream_length, 8_000)
        eval_rounds = min(eval_rounds, 3)
        repeats = 1
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if eval_rounds < 1:
        raise ValueError(f"eval_rounds must be >= 1, got {eval_rounds}")

    sampler, history, queries = query_bench_inputs(
        capacity, lam, stream_length, dimensions
    )
    sampler.resident_columns()  # warm the cache outside the timed region
    columnar_s = estimates_seconds(
        lambda: QueryEstimator(sampler).estimate, queries, eval_rounds, repeats
    )
    blocks, mix = checkpoint_mix_inputs(stream_length, dimensions)
    mix_s, mix_results = checkpoint_mix_seconds(
        lambda s: QueryEstimator(s).estimate,
        capacity,
        lam,
        blocks,
        mix,
        repeats,
    )

    # Oracle cost at a quarter-stream vs full-stream checkpoint. The
    # whole-history query makes the scan horizon grow with t while the
    # incremental answer stays O(dims).
    oracle_query = average_query(None, range(dimensions))
    checkpoints = [stream_length // 4, stream_length]

    def oracle_seconds(evaluate: Callable[..., Any], t: int) -> float:
        return estimates_seconds(
            lambda: lambda q: evaluate(q, t), [oracle_query], eval_rounds, repeats
        ) / eval_rounds

    inc_s = [oracle_seconds(history.evaluate, t) for t in checkpoints]
    scan_s = [oracle_seconds(history.evaluate_scan, t) for t in checkpoints]

    return {
        "capacity": capacity,
        "lam": lam,
        "stream_length": stream_length,
        "dimensions": dimensions,
        "horizon": queries[0].horizon,
        "repeats": repeats,
        "eval_rounds": eval_rounds,
        "quick": quick,
        "queries": [q.name for q in queries],
        "checkpoint_block": CHECKPOINT_BLOCK,
        "checkpoint_horizons": sorted({q.horizon for q in mix}),
        "estimator": {
            "columnar_estimates_per_sec": (
                eval_rounds * len(queries) / columnar_s
            ),
            "checkpoint_mix_estimates_per_sec": len(mix_results) / mix_s,
        },
        "oracle": {
            "checkpoints": checkpoints,
            "incremental_seconds_per_eval": inc_s,
            "scan_seconds_per_eval": scan_s,
            "incremental_cost_growth": inc_s[1] / inc_s[0],
            "scan_cost_growth": scan_s[1] / scan_s[0],
            "speedup_at_full_stream": scan_s[1] / inc_s[1],
        },
    }


def write_throughput_json(
    path: PathLike,
    report: Optional[Dict[str, Any]] = None,
    batch_size: int = 8192,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Run (or take) a throughput report and write it to ``path`` as JSON.

    If ``path`` already holds a JSON object, its top-level keys are
    preserved and ``report``'s keys merged over them, so independently
    run sections (e.g. the batch matrix and the ``"sharded"`` record)
    accumulate in one file instead of clobbering each other.
    """
    if report is None:
        report = throughput_report(batch_size=batch_size, repeats=repeats)
    target = Path(path)
    payload: Dict[str, Any] = {}
    if target.exists():
        try:
            existing = json.loads(target.read_text())
        except ValueError:
            existing = None
        if isinstance(existing, dict):
            payload = existing
    payload.update(report)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return payload
