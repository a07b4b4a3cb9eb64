"""Command-line interface.

Four subcommands cover the library's workflows without writing Python:

* ``repro generate`` — synthesize a stream to CSV (evolving clusters or
  the intrusion substitute).
* ``repro sample`` — run a reservoir sampler over a stream CSV and write
  the resident sample to CSV.
* ``repro experiment`` — run one paper-figure reproduction (or ``all``)
  and print/persist its series table.
* ``repro theory`` — reservoir sizing numbers from the paper's theorems.
* ``repro bench`` — measure batched vs per-item ingestion throughput
  (``--suite batch``) and/or the columnar query engine's estimates/sec
  and the exact oracle's incremental vs scan cost (``--suite query``),
  recorded to ``BENCH_throughput.json``.
* ``repro verify`` — run the statistical conformance specs (sampler vs
  paper model, Monte-Carlo with a process fan-out) plus adversarial
  invariant checks, and write ``VERIFY_report.json``.
* ``repro recover`` — rebuild a crashed durable sampling run from its
  journal directory (checkpoint + WAL tail replay), optionally resume
  ingestion, and write the recovered sample.

Examples
--------
::

    repro generate --kind intrusion --length 50000 --seed 7 -o stream.csv
    repro sample -i stream.csv --algorithm biased --capacity 1000 -o sample.csv
    repro sample -i stream.csv --algorithm biased --capacity 1000 --workers 4 -o sample.csv
    repro sample -i stream.csv --capacity 1000 --checkpoint-dir journal --wal-sync batch -o sample.csv
    repro recover --checkpoint-dir journal -o sample.csv
    repro experiment fig6 --length 100000
    repro experiment fig2 --jobs 4
    repro theory --lam 1e-4 --budget 1000
    repro bench -o BENCH_throughput.json
    repro bench --suite query -o BENCH_throughput.json
    repro verify --replicates 200 --jobs 4 --json
    repro verify exponential-age merge-age --replicates 50
    repro verify --spec sharded_exponential_inclusion recovery_equivalence
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterator, List, Optional

from repro.core import (
    ExponentialReservoir,
    SpaceConstrainedReservoir,
    UnbiasedReservoir,
    VariableReservoir,
)
from repro.core.bias import ExponentialBias
from repro.core.theory import (
    expected_points_to_fill,
    expected_points_to_fraction,
)
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.paper_scale import paper_scale_kwargs
from repro.streams import (
    EvolvingClusterStream,
    IntrusionStream,
    chunked,
    load_stream_csv,
    load_stream_csv_chunks,
    save_stream_csv,
)

__all__ = ["main", "build_parser"]

SAMPLERS = ("unbiased", "biased", "space-constrained", "variable")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Biased reservoir sampling (Aggarwal, VLDB 2006) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a stream to CSV")
    gen.add_argument(
        "--kind", choices=("clusters", "intrusion"), default="clusters"
    )
    gen.add_argument("--length", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)

    smp = sub.add_parser("sample", help="reservoir-sample a stream file")
    smp.add_argument("-i", "--input", required=True)
    smp.add_argument(
        "--format",
        choices=("csv", "kdd99"),
        default="csv",
        help="input format: this library's stream CSV, or the raw UCI "
        "KDD CUP 1999 file (42 comma-separated fields, optionally .gz)",
    )
    smp.add_argument("--algorithm", choices=SAMPLERS, default="biased")
    smp.add_argument("--capacity", type=int, default=1000)
    smp.add_argument(
        "--lam",
        type=float,
        default=None,
        help="bias rate lambda (required for space-constrained/variable; "
        "defaults to 1/capacity for 'biased')",
    )
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument(
        "--batch-size",
        type=int,
        default=4096,
        help="ingestion block size for offer_many (1 = per-item offers)",
    )
    smp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the stream across N workers via repro.shard "
        "(capacity must divide evenly; 'biased' and 'space-constrained' "
        "only)",
    )
    smp.add_argument(
        "--checkpoint-dir",
        default=None,
        help="journal directory for durable ingestion (WAL + checkpoints "
        "via repro.persist); the run becomes crash-recoverable with "
        "`repro recover`",
    )
    smp.add_argument(
        "--wal-sync",
        choices=("always", "batch", "never"),
        default="batch",
        help="WAL fsync policy when --checkpoint-dir is set: every record, "
        "at checkpoints only, or never (default: batch)",
    )
    smp.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        help="auto-checkpoint (and roll the WAL) every N journal records "
        "when --checkpoint-dir is set",
    )
    smp.add_argument("-o", "--output", required=True)

    rcv = sub.add_parser(
        "recover",
        help="rebuild a durable sampling run from its journal directory",
    )
    rcv.add_argument(
        "--checkpoint-dir",
        required=True,
        help="journal directory of the crashed `sample --checkpoint-dir` run",
    )
    rcv.add_argument(
        "-i",
        "--input",
        default=None,
        help="optional stream CSV to resume ingesting after recovery",
    )
    rcv.add_argument(
        "--batch-size",
        type=int,
        default=4096,
        help="ingestion block size when resuming with --input",
    )
    rcv.add_argument(
        "--wal-sync",
        choices=("always", "batch", "never"),
        default="batch",
        help="WAL fsync policy for the resumed run",
    )
    rcv.add_argument("-o", "--output", required=True)

    exp = sub.add_parser("experiment", help="run a paper-figure experiment")
    exp.add_argument(
        "figure",
        choices=sorted(ALL_EXPERIMENTS) + ["all"],
        help="which figure to reproduce",
    )
    exp.add_argument(
        "--length", type=int, default=None, help="stream length override"
    )
    exp.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the original figures' stream lengths and horizon sweeps "
        "(half a million points — takes minutes per figure)",
    )
    exp.add_argument(
        "--markdown", action="store_true", help="emit Markdown instead of ASCII"
    )
    exp.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the per-seed trial fan-out (figures "
        "that support it; results are identical for any value)",
    )
    exp.add_argument("-o", "--output", default=None, help="write to file")

    thy = sub.add_parser("theory", help="reservoir sizing calculations")
    thy.add_argument("--lam", type=float, required=True)
    thy.add_argument("--budget", type=int, default=None)

    bch = sub.add_parser(
        "bench",
        help="measure batch vs per-item ingestion throughput",
    )
    bch.add_argument(
        "--suite",
        choices=("batch", "query", "all"),
        default="batch",
        help="which benchmark suite to run: ingestion batching, the "
        "columnar query engine, or both",
    )
    bch.add_argument(
        "--quick",
        action="store_true",
        help="shrink the query suite to smoke-test size",
    )
    bch.add_argument(
        "--batch-size", type=int, default=8192, help="offer_many block size"
    )
    bch.add_argument(
        "--repeats", type=int, default=3, help="timed runs per case (best-of)"
    )
    bch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="also benchmark the sharded engine at this worker count "
        "(recorded under the report's 'sharded' key)",
    )
    bch.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the JSON report here (e.g. BENCH_throughput.json)",
    )

    ver = sub.add_parser(
        "verify",
        help="statistical conformance verification (specs + invariants)",
    )
    ver.add_argument(
        "specs",
        nargs="*",
        metavar="SPEC",
        help="spec names to run (default: all built-in specs)",
    )
    ver.add_argument(
        "--spec",
        action="append",
        default=None,
        metavar="SPEC",
        dest="spec_flags",
        help="spec name to run (repeatable; combined with positional "
        "SPEC arguments)",
    )
    ver.add_argument(
        "--list", action="store_true", help="list available specs and exit"
    )
    ver.add_argument(
        "--replicates",
        type=int,
        default=None,
        help="Monte-Carlo replicates per spec (default: per-spec budget)",
    )
    ver.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the replicate fan-out (1 = inline)",
    )
    ver.add_argument("--seed", type=int, default=0, help="base seed")
    ver.add_argument(
        "--skip-invariants",
        action="store_true",
        help="run only the statistical specs, not the adversarial checks",
    )
    ver.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable report JSON instead of the table",
    )
    ver.add_argument(
        "-o",
        "--output",
        default="VERIFY_report.json",
        help="report path ('-' to skip writing)",
    )

    rep = sub.add_parser(
        "report",
        help="assemble saved benchmark results into one report",
    )
    rep.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="directory holding the per-experiment .txt tables",
    )
    rep.add_argument("-o", "--output", default=None, help="write to file")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "clusters":
        stream = EvolvingClusterStream(length=args.length, rng=args.seed)
    else:
        stream = IntrusionStream(length=args.length, rng=args.seed)
    count = save_stream_csv(stream, args.output)
    print(f"wrote {count} points ({args.kind}) to {args.output}")
    return 0


def _build_sharded_sampler(args: argparse.Namespace):
    from repro.shard import ShardedReservoir

    families = {"biased": "exponential", "space-constrained": "space_constrained"}
    if args.algorithm not in families:
        raise SystemExit(
            f"--workers > 1 supports only --algorithm "
            f"{'/'.join(sorted(families))}, got {args.algorithm!r}"
        )
    try:
        return ShardedReservoir(
            capacity=args.capacity,
            workers=args.workers,
            lam=args.lam,
            family=families[args.algorithm],
            rng=args.seed,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _build_sampler(args: argparse.Namespace):
    if getattr(args, "workers", 1) > 1:
        return _build_sharded_sampler(args)
    if args.algorithm == "unbiased":
        return UnbiasedReservoir(args.capacity, rng=args.seed)
    if args.algorithm == "biased":
        return ExponentialReservoir(
            lam=args.lam, capacity=args.capacity, rng=args.seed
        )
    if args.lam is None:
        raise SystemExit(
            f"--lam is required for --algorithm {args.algorithm}"
        )
    if args.algorithm == "space-constrained":
        return SpaceConstrainedReservoir(
            lam=args.lam, capacity=args.capacity, rng=args.seed
        )
    return VariableReservoir(
        lam=args.lam, capacity=args.capacity, rng=args.seed
    )


def _csv_blocks(path, batch_size: int) -> Iterator[list]:
    """A stream CSV as blocks of ``batch_size`` points, each parsed as one
    block; one-point blocks still parse the file in the reader's chunks."""
    if batch_size == 1:
        return chunked(load_stream_csv(path), 1)
    return load_stream_csv_chunks(path, batch_size)


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.batch_size < 1:
        raise SystemExit(f"--batch-size must be >= 1, got {args.batch_size}")
    if args.checkpoint_every < 1:
        raise SystemExit(
            f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
        )
    sampler = _build_sampler(args)
    engine = None
    if args.checkpoint_dir is not None:
        from repro.persist import DurableReservoir

        try:
            engine = DurableReservoir(
                sampler,
                args.checkpoint_dir,
                wal_sync=args.wal_sync,
                checkpoint_every_records=args.checkpoint_every,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        sampler = engine
    if args.format == "kdd99":
        from repro.streams.kdd99 import load_kdd99

        blocks = chunked(load_kdd99(args.input), args.batch_size)
    else:
        blocks = _csv_blocks(args.input, args.batch_size)
    count = 0
    for block in blocks:
        if args.batch_size == 1:
            sampler.offer(block[0])
        else:
            sampler.offer_many(block)
        count += len(block)
    if engine is not None:
        engine.close()  # final checkpoint + fsync
    written = save_stream_csv(sampler.payloads(), args.output)
    durable = (
        f"; journal at {args.checkpoint_dir}" if engine is not None else ""
    )
    print(
        f"streamed {count} points through {args.algorithm} reservoir "
        f"(capacity {sampler.capacity}); wrote {written} residents to "
        f"{args.output}{durable}"
    )
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    if args.batch_size < 1:
        raise SystemExit(f"--batch-size must be >= 1, got {args.batch_size}")
    from repro.persist import DurableReservoir

    try:
        engine = DurableReservoir.recover(
            args.checkpoint_dir, wal_sync=args.wal_sync
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    info = engine.last_recovery
    print(
        f"recovered from checkpoint seq {info.checkpoint_seq} "
        f"(+{info.records_replayed} WAL records replayed, "
        f"{info.duplicates_dropped} duplicates dropped)"
    )
    for path, reason in info.truncated_tails:
        print(f"truncated damaged tail of {path} ({reason})")
    count = 0
    if args.input is not None:
        for block in _csv_blocks(args.input, args.batch_size):
            engine.offer_many(block)
            count += len(block)
    engine.close()
    written = save_stream_csv(engine.payloads(), args.output)
    resumed = f", resumed {count} points" if args.input is not None else ""
    print(
        f"recovered reservoir at t={engine.t}{resumed}; wrote {written} "
        f"residents to {args.output}"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import inspect

    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    figures = sorted(ALL_EXPERIMENTS) if args.figure == "all" else [args.figure]
    chunks = []
    for figure in figures:
        run = ALL_EXPERIMENTS[figure]
        kwargs = {}
        if args.paper_scale:
            kwargs.update(paper_scale_kwargs(figure))
        if args.length is not None:
            kwargs["length"] = args.length
        if args.jobs > 1 and "jobs" in inspect.signature(run).parameters:
            kwargs["jobs"] = args.jobs
        result = run(**kwargs)
        chunks.append(
            result.to_markdown() if args.markdown else result.render()
        )
    text = "\n\n".join(chunks)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {len(figures)} experiment table(s) to {args.output}")
    else:
        print(text)
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    bias = ExponentialBias(args.lam)
    requirement = bias.reservoir_capacity_bound()
    print(f"lambda = {args.lam:g}")
    print(f"  half-life:                {bias.half_life():,.0f} points")
    print(f"  max reservoir requirement (Cor 2.1): {requirement:,.1f}")
    print(f"  1/lambda approximation (Appr 2.1):   {bias.approximate_capacity():,.0f}")
    if args.budget is None:
        return 0
    if args.budget >= requirement:
        print(
            f"  budget {args.budget:,} covers the requirement: use "
            "Algorithm 2.1 (deterministic insertion)"
        )
        return 0
    p_in = args.budget * args.lam
    print(f"  budget {args.budget:,}: Algorithm 3.1 with p_in = {p_in:.4f}")
    print(
        f"    expected points to fill (Thm 3.2):      "
        f"{expected_points_to_fill(args.budget, p_in):,.0f}"
    )
    print(
        f"    expected points to reach 95% (Cor 3.1): "
        f"{expected_points_to_fraction(args.budget, 0.95, p_in):,.0f}"
    )
    print(
        f"    variable sampling (Thm 3.3) fills in:   ~{args.budget:,}"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.batch_size < 1:
        raise SystemExit(f"--batch-size must be >= 1, got {args.batch_size}")
    if args.repeats < 1:
        raise SystemExit(f"--repeats must be >= 1, got {args.repeats}")
    if args.workers is not None and args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    from repro.experiments.throughput import (
        query_throughput_report,
        sharded_throughput_report,
        throughput_report,
        write_throughput_json,
    )

    report: dict = {}
    if args.suite in ("batch", "all"):
        report = throughput_report(
            batch_size=args.batch_size, repeats=args.repeats
        )
        for result in report["results"]:
            print(
                f"{result['name']}: per-item "
                f"{result['per_item_points_per_sec']:,.0f} pts/s, batched "
                f"{result['batched_points_per_sec']:,.0f} pts/s "
                f"({result['speedup']:.1f}x)"
            )
        if args.workers is not None:
            sharded = sharded_throughput_report(
                workers=args.workers,
                batch_size=args.batch_size,
                repeats=args.repeats,
            )
            report["sharded"] = sharded
            print(
                f"sharded W={sharded['workers']}: "
                f"{sharded['sharded_points_per_sec']:,.0f} pts/s vs serial "
                f"offer_many "
                f"{sharded['serial_offer_many_points_per_sec']:,.0f} "
                f"pts/s ({sharded['speedup_vs_serial']:.1f}x)"
            )
    if args.suite in ("query", "all"):
        query = query_throughput_report(
            repeats=args.repeats, quick=args.quick
        )
        report["query"] = query
        est, oracle = query["estimator"], query["oracle"]
        print(
            f"query engine: columnar "
            f"{est['columnar_estimates_per_sec']:,.0f} est/s, checkpoint "
            f"mix {est['checkpoint_mix_estimates_per_sec']:,.0f} est/s"
        )
        print(
            f"exact oracle: checkpoint cost grew "
            f"{oracle['incremental_cost_growth']:.2f}x incremental vs "
            f"{oracle['scan_cost_growth']:.2f}x scan over a 4x horizon "
            f"({oracle['speedup_at_full_stream']:.1f}x faster at full "
            f"stream)"
        )
    if args.output:
        write_throughput_json(args.output, report=report)
        print(f"wrote throughput report to {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.verify import (
        build_report,
        render_report,
        run_all_invariants,
        run_specs,
        specs_for,
        write_report,
    )

    if args.list:
        for spec in specs_for([]):
            meta = spec.describe()
            print(
                f"{meta['name']:32s} [{meta['family']}] {meta['theory']} — "
                f"{meta['description']}"
            )
        return 0
    if args.replicates is not None and args.replicates < 1:
        raise SystemExit(f"--replicates must be >= 1, got {args.replicates}")
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    requested = list(args.specs) + list(args.spec_flags or [])
    try:
        selection = specs_for(requested)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    start = time.perf_counter()
    spec_results = run_specs(
        selection, replicates=args.replicates, jobs=args.jobs, seed=args.seed
    )
    invariants = run_all_invariants(seed=args.seed) if not args.skip_invariants else []
    report = build_report(
        spec_results,
        invariants,
        seed=args.seed,
        jobs=args.jobs,
        elapsed_seconds=time.perf_counter() - start,
    )
    if args.output != "-":
        path = write_report(report, args.output)
        if not args.json:
            print(f"wrote report to {path}")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
    return 0 if report["passed"] else 1


def _cmd_report(args: argparse.Namespace) -> int:
    results_dir = Path(args.results_dir)
    if not results_dir.is_dir():
        print(
            f"no results at {results_dir} — run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 1
    figures = sorted(results_dir.glob("fig*.txt"))
    ablations = sorted(results_dir.glob("ablation*.txt"))
    if not figures and not ablations:
        print(f"no result tables in {results_dir}", file=sys.stderr)
        return 1
    sections = ["# Benchmark report", ""]
    for group, paths in (("Figures", figures), ("Ablations", ablations)):
        if not paths:
            continue
        sections.append(f"## {group}")
        sections.append("")
        for path in paths:
            sections.append("```")
            sections.append(path.read_text().rstrip())
            sections.append("```")
            sections.append("")
    text = "\n".join(sections)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(
            f"wrote report covering {len(figures)} figures and "
            f"{len(ablations)} ablations to {args.output}"
        )
    else:
        print(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "sample": _cmd_sample,
        "recover": _cmd_recover,
        "experiment": _cmd_experiment,
        "theory": _cmd_theory,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
