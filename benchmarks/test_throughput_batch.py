"""Batch-ingestion throughput: ``offer_many`` vs per-item ``offer``.

Measures points/sec on both paths for every fast-path sampler via the
shared harness in :mod:`repro.experiments.throughput` and records the
numbers to ``BENCH_throughput.json`` at the repo root (the same payload
``repro bench -o BENCH_throughput.json`` writes).

The acceptance bar: batched ingestion into an ``ExponentialReservoir`` of
``n = 10_000`` over a 200k-point stream must run at >= 25x the per-item
points/sec. The virtual-slot scatter kernel lands well above that; the
margin absorbs CI-runner noise.
"""

import pytest
from _bench_io import record_section

from repro.experiments.throughput import throughput_report


@pytest.fixture(scope="module")
def report():
    """One timed run of the full matrix, shared by all assertions."""
    return throughput_report()


def _case(report, name):
    for result in report["results"]:
        if result["name"] == name:
            return result
    raise KeyError(name)


@pytest.mark.benchmark(group="batch-ingestion")
def test_exponential_batch_speedup_meets_bar(report):
    result = _case(report, "exponential_n10000")
    assert result["stream_length"] == 200_000
    assert result["speedup"] >= 25.0, (
        f"offer_many only {result['speedup']:.2f}x over per-item "
        f"({result['batched_points_per_sec']:,.0f} vs "
        f"{result['per_item_points_per_sec']:,.0f} pts/s)"
    )


@pytest.mark.benchmark(group="batch-ingestion")
def test_unbiased_batch_not_slower(report):
    """Algorithm R's bulk accept-coin path should comfortably win too."""
    assert _case(report, "unbiased_n10000")["speedup"] >= 2.0


@pytest.mark.benchmark(group="batch-ingestion")
def test_skip_batch_not_slower(report):
    """Skip sampling is already O(accepted); batching must not regress it."""
    assert _case(report, "skip_unbiased_n10000")["speedup"] >= 0.8


@pytest.mark.benchmark(group="batch-ingestion")
@pytest.mark.parametrize(
    "name", ["variable_fill_n5000", "variable_phases_n5000"]
)
def test_variable_batch_not_slower(report, name):
    """Theorem 3.3's block path (vectorized fill, then runs of
    one-victim phases as one last-writer write) must not lose to the
    per-item loop on either segment."""
    result = _case(report, name)
    assert result["speedup"] >= 1.0, (
        f"{name}: offer_many only {result['speedup']:.2f}x over per-item"
    )


@pytest.mark.benchmark(group="batch-ingestion")
def test_record_bench_json(report):
    """Persist the measurements where the acceptance harness reads them."""
    payload = record_section(report)
    assert payload["results"]
    print()
    for result in payload["results"]:
        print(
            f"{result['name']}: per-item "
            f"{result['per_item_points_per_sec']:,.0f} pts/s, batched "
            f"{result['batched_points_per_sec']:,.0f} pts/s "
            f"({result['speedup']:.1f}x)"
        )
