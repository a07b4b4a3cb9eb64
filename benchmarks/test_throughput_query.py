"""Columnar query-engine throughput: vectorized estimators vs per-point.

Times the full builder-query suite through the columnar
:class:`~repro.queries.estimator.QueryEstimator` (a fresh one per round,
so no round reads records an earlier round built) against the per-point
estimator kept as the test oracle (``tests/query_oracle.py``), over the
same seeded inputs (:func:`~repro.experiments.throughput.query_bench_inputs`),
and the ten-query checkpoint mix evaluated after every block
(:func:`~repro.experiments.throughput.checkpoint_mix_seconds`) through
both, plus the incremental :class:`~repro.queries.exact.StreamHistory` oracle
against its horizon scan. Numbers land under the ``"query"`` key of
``BENCH_throughput.json``.

Acceptance bars (full mode):

* columnar estimation >= 5x the per-point oracle's estimates/sec, with
  bitwise identical estimates — the speedup is pure engine, not
  approximation (the checkpoint mix is held to the same bitwise bar);
* the oracle's incremental checkpoint cost stays flat (sub-linear in the
  horizon) while the scan's tracks the 4x horizon growth.

Under ``pytest --quick`` the suite runs at smoke-test size: the
equivalence and shape assertions still hold, the timing bars are skipped
(shared CI runners make them meaningless), and nothing is recorded.
"""

import numpy as np
import pytest
from _bench_io import record_section

from repro.experiments.throughput import (
    checkpoint_mix_inputs,
    checkpoint_mix_seconds,
    estimates_seconds,
    query_bench_inputs,
    query_throughput_report,
)
from repro.queries import QueryEstimator
from tests.query_oracle import oracle_estimate


@pytest.fixture(scope="module")
def report(request):
    """One timed run; ``--quick`` shrinks it to smoke-test size."""
    quick = bool(request.config.getoption("--quick"))
    return query_throughput_report(quick=quick)


@pytest.fixture(scope="module")
def versus_oracle(report):
    """Columnar engine vs the per-point oracle over the report's inputs."""
    sampler, _, queries = query_bench_inputs(
        report["capacity"],
        report["lam"],
        report["stream_length"],
        report["dimensions"],
    )
    sampler.resident_columns()  # warm the cache outside the timed region
    rounds, repeats = report["eval_rounds"], report["repeats"]
    # A fresh engine per round: each round builds its shared records.
    columnar_s = estimates_seconds(
        lambda: QueryEstimator(sampler).estimate, queries, rounds, repeats
    )
    oracle_s = estimates_seconds(
        lambda: lambda q: oracle_estimate(sampler, q), queries, rounds, repeats
    )
    n_estimates = rounds * len(queries)
    engine = QueryEstimator(sampler)
    pairs = [(engine.estimate(q), oracle_estimate(sampler, q)) for q in queries]
    # The ten-query mix after every block: one engine per run, reading
    # its shared records, against the oracle on the same states.
    blocks, mix = checkpoint_mix_inputs(
        report["stream_length"], report["dimensions"]
    )
    mix_args = (report["capacity"], report["lam"], blocks, mix, repeats)
    mix_s, mix_engine = checkpoint_mix_seconds(
        lambda s: QueryEstimator(s).estimate, *mix_args
    )
    mix_oracle_s, mix_oracle = checkpoint_mix_seconds(
        lambda s: lambda q: oracle_estimate(s, q), *mix_args
    )
    return {
        "columnar_estimates_per_sec": n_estimates / columnar_s,
        "per_point_estimates_per_sec": n_estimates / oracle_s,
        "speedup": oracle_s / columnar_s,
        "estimates_identical": identical(pairs),
        "checkpoint_mix_estimates_per_sec": len(mix_engine) / mix_s,
        "checkpoint_mix_speedup": mix_oracle_s / mix_s,
        "checkpoint_mix_identical": identical(zip(mix_engine, mix_oracle)),
    }


def identical(pairs):
    """Bitwise equal estimates and supports (``nan`` equals ``nan``)."""
    return all(
        np.array_equal(a.estimate, b.estimate, equal_nan=True)
        and a.sample_support == b.sample_support
        for a, b in pairs
    )


@pytest.mark.benchmark(group="query-engine")
def test_columnar_estimates_bitwise_identical(versus_oracle):
    """The speedup must be free: both paths produce the same bits."""
    assert versus_oracle["estimates_identical"], (
        "columnar estimates diverged from the per-point oracle"
    )


@pytest.mark.benchmark(group="query-engine")
def test_checkpoint_mix_bitwise_identical(versus_oracle):
    """Sharing one record per horizon across the mix changes no bit."""
    assert versus_oracle["checkpoint_mix_identical"], (
        "checkpoint-mix estimates diverged from the per-point oracle"
    )


@pytest.mark.benchmark(group="query-engine")
def test_columnar_speedup_meets_bar(report, versus_oracle):
    est = versus_oracle
    if report["quick"]:
        pytest.skip("timing bars are full-mode only (--quick run)")
    assert est["speedup"] >= 5.0, (
        f"columnar engine only {est['speedup']:.2f}x over per-point "
        f"({est['columnar_estimates_per_sec']:,.0f} vs "
        f"{est['per_point_estimates_per_sec']:,.0f} estimates/s)"
    )


@pytest.mark.benchmark(group="query-engine")
def test_oracle_checkpoint_cost_flat(report):
    """Incremental truth must not scale with the horizon; the scan does."""
    oracle = report["oracle"]
    if report["quick"]:
        pytest.skip("timing bars are full-mode only (--quick run)")
    # The horizon grows 4x between checkpoints: the scan's cost should
    # reflect that (>= 2x, allowing noise) while the incremental path
    # stays essentially flat (< 2x).
    assert oracle["incremental_cost_growth"] < 2.0, (
        f"incremental oracle cost grew "
        f"{oracle['incremental_cost_growth']:.2f}x over a 4x horizon"
    )
    assert oracle["scan_cost_growth"] > 2.0, (
        f"scan oracle cost grew only {oracle['scan_cost_growth']:.2f}x "
        f"over a 4x horizon — the baseline is not O(horizon)?"
    )
    assert oracle["speedup_at_full_stream"] > 1.0


@pytest.mark.benchmark(group="query-engine")
def test_record_bench_json(report, versus_oracle):
    """Merge the query section into the shared benchmark record."""
    if report["quick"]:
        pytest.skip("quick runs are not recorded")
    payload = record_section(report, key="query")
    assert (
        payload["query"]["estimator"]["columnar_estimates_per_sec"]
        == report["estimator"]["columnar_estimates_per_sec"]
    )
    est, oracle = versus_oracle, report["oracle"]
    print()
    print(
        f"query engine: columnar {est['columnar_estimates_per_sec']:,.0f} "
        f"est/s vs per-point oracle {est['per_point_estimates_per_sec']:,.0f} "
        f"est/s ({est['speedup']:.1f}x, bitwise identical)"
    )
    print(
        f"checkpoint mix: {est['checkpoint_mix_estimates_per_sec']:,.0f} "
        f"est/s ({est['checkpoint_mix_speedup']:.1f}x the per-point "
        f"oracle, bitwise identical)"
    )
    print(
        f"exact oracle: checkpoint cost grew "
        f"{oracle['incremental_cost_growth']:.2f}x incremental vs "
        f"{oracle['scan_cost_growth']:.2f}x scan over a 4x horizon"
    )
