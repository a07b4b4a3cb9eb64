"""Sharded-engine throughput: ``ShardedReservoir`` vs serial ``offer_many``.

Measures points/sec through the sharded ingestion engine
(:mod:`repro.shard`) against the serial ``ExponentialReservoir``
``offer_many`` path via the shared harness in
:mod:`repro.experiments.throughput`, and records the numbers under the
``"sharded"`` key of ``BENCH_throughput.json`` (the write merges with the
batch-ingestion section instead of clobbering it).

The bar: the serial reservoir must ingest at least as fast as the
facade at ``W = 1``. Both run the same Algorithm 2.1 block kernel
(every shard is a plain ``ExponentialReservoir``), so the facade only
adds routing on top of it; ``W = 4`` is recorded, not gated.
"""

import pytest
from _bench_io import record_section

from repro.experiments.throughput import sharded_throughput_report


@pytest.fixture(scope="module")
def report():
    """One timed run at the acceptance configuration (W=4, n=10k, 200k pts)."""
    return sharded_throughput_report(
        capacity=10_000, workers=4, stream_length=200_000
    )


@pytest.mark.benchmark(group="sharded-ingestion")
def test_serial_not_slower_than_sharded_w1(report):
    """One shard runs the serial kernel plus routing, so it cannot win."""
    assert report["workers"] == 4
    assert report["stream_length"] == 200_000
    w1 = report["sharded_w1_points_per_sec"]
    serial = report["serial_offer_many_points_per_sec"]
    assert serial >= w1, (
        f"serial offer_many slower than the W=1 facade "
        f"({serial:,.0f} vs {w1:,.0f} pts/s)"
    )


@pytest.mark.benchmark(group="sharded-ingestion")
def test_record_bench_json(report):
    """Merge the sharded section into the shared benchmark record."""
    payload = record_section(report, key="sharded")
    assert payload["sharded"]["speedup_vs_serial"] == report["speedup_vs_serial"]
    print()
    print(
        f"sharded W={report['workers']}: "
        f"{report['sharded_points_per_sec']:,.0f} pts/s vs serial "
        f"{report['serial_offer_many_points_per_sec']:,.0f} pts/s "
        f"({report['speedup_vs_serial']:.1f}x)"
    )
