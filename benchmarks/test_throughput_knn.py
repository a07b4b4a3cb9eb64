"""Prequential kNN throughput: the filtered kernel vs the full scan.

Runs the paper's Section 5.3 loop (classify each point with a 1-NN vote
over the reservoir, then offer it) over a seeded evolving-cluster stream
at the end-to-end benchmark's scale: an Algorithm 2.1 reservoir of 1000
points in 10 dimensions, 30k points shifted by a common offset, 10% of
labels flipped. It times :class:`~repro.mining.knn.ReservoirKnnClassifier`
(rank by the norm expansion, verify near ties exactly) against
``tests/knn_oracle.py`` (the full scan it replaced) over the same
stream, and records points/sec for both under the ``"knn"`` key of
``BENCH_throughput.json``.

Acceptance bars (full mode):

* the kernel's predictions equal the full scan's, bit for bit;
* the kernel runs the loop >= 1.4x as fast as the full scan.

Under ``pytest --quick`` the stream shrinks to a smoke test: the
bitwise assertion still holds, the timing bar is skipped and nothing is
recorded.
"""

import time

import numpy as np
import pytest
from _bench_io import record_section

from repro.core.biased import ExponentialReservoir
from repro.mining.knn import ReservoirKnnClassifier
from repro.streams import EvolvingClusterStream
from repro.streams.point import StreamPoint
from tests.knn_oracle import OracleKnnClassifier

CAPACITY = 1_000
DIMENSIONS = 10
CLASSES = 4
OFFSET = 10.0
LABEL_NOISE = 0.1


def prequential_points(length, seed=7):
    """The evolving-cluster stream, offset, with ``LABEL_NOISE`` of its
    labels moved to another class."""
    rng = np.random.default_rng(seed + 1)
    flip = rng.random(length) < LABEL_NOISE
    shift = rng.integers(1, CLASSES, size=length)
    stream = EvolvingClusterStream(
        length=length, n_clusters=CLASSES, dimensions=DIMENSIONS, rng=seed
    )
    return [
        StreamPoint(
            p.index,
            p.values + OFFSET,
            (p.label + int(s)) % CLASSES if f else p.label,
        )
        for p, f, s in zip(stream, flip, shift)
    ]


def prequential_seconds(cls, points, repeats):
    """Best-of-``repeats`` wall time of the 1-NN prequential loop with
    classifier ``cls`` over a fresh seeded reservoir, and the last run's
    predictions."""
    best, predictions = float("inf"), []
    for _ in range(repeats):
        clf = cls(ExponentialReservoir(capacity=CAPACITY, rng=11), k=1)
        start = time.perf_counter()
        predictions = [clf.predict_then_observe(p) for p in points]
        best = min(best, time.perf_counter() - start)
    return best, predictions


@pytest.fixture(scope="module")
def report(quick_mode):
    length, repeats = (3_000, 1) if quick_mode else (30_000, 3)
    points = prequential_points(length)
    engine_s, engine = prequential_seconds(
        ReservoirKnnClassifier, points, repeats
    )
    oracle_s, oracle = prequential_seconds(OracleKnnClassifier, points, repeats)
    return {
        "quick": quick_mode,
        "capacity": CAPACITY,
        "dimensions": DIMENSIONS,
        "stream_length": length,
        "repeats": repeats,
        "k": 1,
        "kernel_points_per_sec": length / engine_s,
        "full_scan_points_per_sec": length / oracle_s,
        "speedup": oracle_s / engine_s,
        "predictions_identical": engine == oracle,
    }


@pytest.mark.benchmark(group="knn")
def test_predictions_bitwise_identical(report):
    assert report["predictions_identical"], (
        "the filtered kernel diverged from the full scan"
    )


@pytest.mark.benchmark(group="knn")
def test_kernel_speedup_meets_bar(report):
    if report["quick"]:
        pytest.skip("timing bars are full-mode only (--quick run)")
    assert report["speedup"] >= 1.4, (
        f"kernel only {report['speedup']:.2f}x over the full scan "
        f"({report['kernel_points_per_sec']:,.0f} vs "
        f"{report['full_scan_points_per_sec']:,.0f} pts/s)"
    )


@pytest.mark.benchmark(group="knn")
def test_record_bench_json(report):
    if report["quick"]:
        pytest.skip("quick runs are not recorded")
    payload = record_section(report, key="knn")
    assert payload["knn"]["speedup"] == report["speedup"]
    print()
    print(
        f"prequential 1-NN: kernel {report['kernel_points_per_sec']:,.0f} "
        f"pts/s vs full scan {report['full_scan_points_per_sec']:,.0f} "
        f"pts/s ({report['speedup']:.2f}x, bitwise identical)"
    )
