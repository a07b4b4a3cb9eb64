"""End-to-end benchmark of the stream -> journal -> query path.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload replay_durable --seed 1 \\
        --seconds 10 --trace 0

Prints one line per metric, then, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones (untraced passes
only); with ``--trace 1`` they are the per-layer ones, measured on one
traced pass. End-to-end timings are in reference seconds, wall seconds
scaled by a host-speed probe taken around every timed interval
(``hostspeed.py``); the readable lines also give the wall-clock
throughput. Workloads, metrics and bounds are listed in
``BENCHMARK.json``; what each metric means is in ``e2ebench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from hostspeed import REFERENCE_S, probe, to_reference

HERE = Path(__file__).resolve().parent

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "throughput_pts_per_s": "pts/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "recover_s": "s",
    "result_error": "ratio",
    "ok_ops_ratio": "ratio",
}

#: Spans whose summed self time (and, where listed, call count) is
#: reported per traced pass.
SPAN_SELF = [
    "streams.csv_load",
    "streams.csv_save",
    "core.offer_many",
    "core.offer",
    "core.resident_columns",
    "core.inclusion_probabilities",
    "shard.offer_many",
    "shard.worker_ingest",
    "shard.fold",
    "persist.offer_many",
    "persist.encode_record",
    "persist.wal_append",
    "persist.checkpoint",
    "persist.write_checkpoint",
    "persist.fsync",
    "persist.recover",
    "queries.estimate",
    "queries.values_matrix",
    "queries.oracle",
    "mining.knn_predict",
    "mining.knn_observe",
]
SPAN_CALLS = [
    "core.offer_many",
    "core.offer",
    "core.resident_columns",
    "shard.worker_ingest",
    "persist.wal_append",
    "persist.checkpoint",
    "persist.fsync",
    "queries.estimate",
    "mining.knn_predict",
]
COUNTERS = [
    "streams.csv_load.rows",
    "core.resident_columns.rebuilds",
    "core.insertions",
    "core.ejections",
    "persist.wal_bytes",
    "persist.checkpoint_bytes",
    "persist.recover.records_replayed",
]
RATIOS = ["shard.load_imbalance", "trace.overhead_ratio"]


def per_layer_units() -> Dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SPAN_SELF}
    units.update({f"{name}.calls": "count" for name in SPAN_CALLS})
    units.update(
        {name: "B" if name.endswith("_bytes") else "count" for name in COUNTERS}
    )
    units.update({name: "ratio" for name in RATIOS})
    units["host.probe_s"] = "s"
    return units


#: Set-up batches timed before the passes; ``setup_s`` is their median.
SETUP_BATCHES = 9

#: Passes after the warm-up pass, whatever ``--seconds`` allows.
MIN_MEASURED_PASSES = 2

clock = time.perf_counter


def _checkout_root() -> Path:
    """The checkout the benchmark runs in: the current directory."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"e2ebench: no library source at {root / 'src' / 'repro'}; run "
            "from the root of a checkout"
        )
    return root


def _timed_setups(workload, scratch: Path) -> List[float]:
    """Mean set-up time of each of ``SETUP_BATCHES`` batches, in reference
    seconds (see ``hostspeed.py``).

    A batch sums ``workload.setup_batch`` set-ups, each timed on its own
    and discarded before the next is built, so one batch value averages
    over the allocator and cache states that make a single micro-second
    set-up bimodal.
    """
    batches: List[float] = []
    for b in range(SETUP_BATCHES):
        before = probe()
        total = 0.0
        for i in range(workload.setup_batch):
            directory = scratch / f"setup{b}-{i}"
            start = clock()
            system = workload.setup(directory)
            total += clock() - start
            workload.discard(system)
            shutil.rmtree(directory, ignore_errors=True)
        batches.append(
            to_reference(total / workload.setup_batch, before, probe())
        )
    return batches


def _reset_peak_rss() -> None:
    """Restart the kernel's resident-memory high-water mark (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """Resident high-water mark since the last :func:`_reset_peak_rss`."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    scale: float = 1.0,
) -> Tuple[dict, List[str]]:
    """Run one workload; return the result object and readable lines."""
    import workloads
    from tracer import Tracer, install

    scratch = root / ".e2ebench" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    tracer = Tracer()
    layers = (lambda: install(tracer)) if trace else nullcontext
    marks = [clock()]
    traced = None
    try:
        with layers():  # records the load generator's oracle work
            workload = workloads.WORKLOADS[name](seed, scratch, tracer, scale)
            workload.prepare()
        # The generated input belongs to the load generator, not to the
        # system under test: keep the cyclic collector from rescanning
        # it during timed passes.
        gc.collect()
        gc.freeze()
        marks.append(clock())
        setups = _timed_setups(workload, scratch)
        gc.collect()
        _reset_peak_rss()
        marks.append(clock())
        warmup = workload.run_pass(0, audit=True, traced=False)
        marks.append(clock())
        passes = []
        timed = 0.0
        while len(passes) < MIN_MEASURED_PASSES or timed < seconds:
            gc.collect()
            result = workload.run_pass(len(passes) + 1, audit=False, traced=False)
            passes.append(result)
            timed += result.timed_s
        peak_rss_mb = _peak_rss_mb()
        if trace:
            gc.collect()
            with layers():
                traced = workload.run_pass(len(passes) + 1, audit=False, traced=True)
            tracer.dump(root / ".e2ebench" / "traces" / f"{name}-seed{seed}.json")
        marks.append(clock())
    finally:
        gc.unfreeze()
        shutil.rmtree(scratch, ignore_errors=True)

    everything = [warmup] + passes + ([traced] if traced else [])
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    lines = [f for r in everything for f in r.failures][:20]
    if trace:
        metrics = _per_layer(tracer, traced, passes)
    else:
        metrics = _end_to_end(warmup, passes, setups)
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["ok_ops_ratio"] = 1.0 - failed / max(1, attempted)
    units = per_layer_units() if trace else END_TO_END
    out = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in units.items()
        },
    }
    ops = sum(len(r.latencies) for r in passes)
    lines.append(
        f"{name} seed={seed}: {len(passes)} measured passes, {ops} timed "
        f"ops (latency samples), {attempted} checked ops, {failed} failed"
    )
    probes = [x for r in passes for x in r.probes]
    raw_s = sum(r.timed_s for r in passes)
    lines.append(
        f"{name} host probe: median {statistics.median(probes) * 1e3:.3f} ms "
        f"(reference {REFERENCE_S * 1e3:.3f} ms); wall-clock throughput "
        f"{sum(r.points for r in passes) / raw_s:.0f} pts/s"
    )
    if warmup.errors:
        lines.append(
            f"{name} audit: worst op mean relative error "
            f"{warmup.worst_op_error:.4f} (band {workloads.QUERY_ERROR_BAND})"
        )
    if warmup.predictions:
        lines.append(
            f"{name} audit: {warmup.hits}/{warmup.predictions} correct "
            "predictions"
        )
    lines.append(
        f"{name} pass throughputs (pts/s): "
        + " ".join(f"{r.throughput:.0f}" for r in passes)
    )
    phases = ("input", "set-ups", "warm-up pass", "measured passes")
    lines.append(
        f"{name} wall seconds: "
        + ", ".join(
            f"{phase} {b - a:.2f}"
            for phase, a, b in zip(phases, marks, marks[1:])
        )
    )
    lines += [
        f"{name} {key} = {metrics[key]:.6g} {unit}"
        for key, unit in units.items()
    ]
    return out, lines


def _end_to_end(warmup, passes, setups: List[float]) -> Dict[str, float]:
    """End-to-end metrics over the measured passes, in reference seconds."""
    if warmup.predictions:
        error = 1.0 - warmup.hits / warmup.predictions
    else:
        error = statistics.fmean(warmup.errors) if warmup.errors else 0.0
    latencies = [x for r in passes for x in r.reference_latencies()]
    recoveries = [x for r in passes for x in r.recover_s]
    return {
        "throughput_pts_per_s": sum(r.points for r in passes)
        / sum(r.reference_seconds() for r in passes),
        "op_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "op_p95_ms": float(np.percentile(latencies, 95)) * 1e3,
        "setup_s": statistics.median(setups),
        "recover_s": statistics.median(recoveries) if recoveries else 0.0,
        "result_error": error,
    }


def _per_layer(tracer, traced, passes) -> Dict[str, float]:
    totals = tracer.layer_totals()
    metrics: Dict[str, float] = {}
    for name in SPAN_SELF:
        metrics[f"{name}.self_s"] = totals.get(name, {}).get("self_s", 0.0)
    for name in SPAN_CALLS:
        metrics[f"{name}.calls"] = totals.get(name, {}).get("calls", 0)
    for name in COUNTERS:
        metrics[name] = tracer.counters.get(name, 0)
    metrics["core.insertions"] = traced.insertions
    metrics["core.ejections"] = traced.ejections
    metrics["shard.load_imbalance"] = traced.load_imbalance
    # Self times are wall seconds; this probe scales them (hostspeed.py).
    metrics["host.probe_s"] = statistics.median(traced.probes)
    # The untraced passes ran with no wrapper installed at all.
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.throughput for r in passes) / traced.throughput
    )
    return metrics


def _pin_hash_seed() -> None:
    """Re-execute this process with string hashing fixed.

    Hash randomization changes dict layouts per process, which on its own
    moved micro-second set-up times between two modes 60% apart.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit so scratch clean-up runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = _checkout_root()
    sys.path[:0] = [str(HERE), str(root / "src")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}"
        )
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    out, lines = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), root
    )
    for line in lines:
        print(line)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
