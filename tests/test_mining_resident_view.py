"""Mining readers on the resident view vs their payload loops.

The kNN mirror, the anomaly scorer, the cluster tracker, the drift
detector and the Figure 9 snapshot read the sampler's columnar resident
view. Each must give the same bits as the payload loop it replaced (kept
in ``tests/query_oracle.py``): seeded runs with the loops patched in are
the reference. Residents arrive both per item and from
:class:`~repro.streams.point.PointBlock` s, whose rows the array store
keeps in its columns alone.
"""

import numpy as np
import pytest

from repro.core import (
    ChainSampler,
    ExponentialReservoir,
    UnbiasedReservoir,
    VariableReservoir,
)
from repro.mining import (
    ClusterTracker,
    ReservoirAnomalyScorer,
    ReservoirDriftDetector,
    ReservoirKnnClassifier,
)
from repro.mining.evolution import snapshot
from repro.shard import ShardedReservoir
from repro.streams import EvolvingClusterStream, materialize
from repro.streams.point import PointBlock, StreamPoint
from tests.query_oracle import PAYLOAD_LOOPS, evolution_snapshot

FAMILIES = {
    "exponential": lambda: ExponentialReservoir(capacity=60, rng=3),
    "variable": lambda: VariableReservoir(lam=5e-3, capacity=60, rng=3),
    "unbiased": lambda: UnbiasedReservoir(60, rng=3),
}


def _stream(length=1_500, seed=5):
    return materialize(
        EvolvingClusterStream(length=length, dimensions=4, drift=0.05, rng=seed)
    )


def _both(run):
    """``run()`` on the resident view, then with the payload loops."""
    current = run()
    with pytest.MonkeyPatch.context() as mp:
        for owner, name, loop in PAYLOAD_LOOPS:
            mp.setattr(owner, name, loop)
        reference = run()
    return current, reference


def _warm(sampler, points):
    """Half the warm-up as one PointBlock (column-only residents)."""
    half = len(points) // 2
    sampler.offer_many(PointBlock.from_points(points[:half]))
    sampler.offer_many(points[half:])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_knn_predictions_match_payload_loop(family):
    points = _stream()

    def run():
        sampler = FAMILIES[family]()
        classifier = ReservoirKnnClassifier(sampler, k=3)
        _warm(sampler, points[:400])  # out of band: forces a rebuild
        predictions = [
            classifier.predict_then_observe(p) for p in points[400:1200]
        ]
        sampler.offer_many(PointBlock.from_points(points[1200:1300]))
        predictions += [classifier.predict(p) for p in points[1300:]]
        return predictions

    current, reference = _both(run)
    assert current == reference
    assert sum(p is not None for p in current) == 1_000


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_anomaly_scores_match_payload_loop(family):
    points = _stream()

    def run():
        sampler = FAMILIES[family]()
        _warm(sampler, points[:300])
        scorer = ReservoirAnomalyScorer(sampler, k=4)
        return [scorer.score_then_observe(p) for p in points[300:900]]

    current, reference = _both(run)
    assert current == reference


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_drift_scores_match_payload_loop(family):
    points = _stream()

    def run():
        sampler = FAMILIES[family]()
        _warm(sampler, points[:300])
        out = []
        for max_stratum in (400, 15):
            detector = ReservoirDriftDetector(
                sampler, threshold_age=150, max_stratum=max_stratum
            )
            out.append(detector.score(rng=np.random.default_rng(9)))
        return out + ReservoirDriftDetector.score_series(
            points[300:], sampler, every=200, threshold_age=150
        )

    current, reference = _both(run)
    assert current == reference
    assert all(score is not None for score in current[:2])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cluster_checkpoints_match_payload_loop(family):
    points = _stream()

    def run():
        sampler = FAMILIES[family]()
        _warm(sampler, points[:300])
        tracker = ClusterTracker(sampler, k=3, every=150, rng=2)
        return tracker.track(points[300:])

    current, reference = _both(run)
    assert len(current) == len(reference) > 0
    for got, want in zip(current, reference):
        assert (got.t, got.inertia, got.movement, got.sample_size) == (
            want.t,
            want.inertia,
            want.movement,
            want.sample_size,
        )
        np.testing.assert_array_equal(got.centers, want.centers)


SNAPSHOT_FAMILIES = {
    **FAMILIES,
    "chain": lambda: ChainSampler(30, window=300, rng=3),
    "sharded": lambda: ShardedReservoir(capacity=60, workers=2, rng=3),
}


@pytest.mark.parametrize("family", sorted(SNAPSHOT_FAMILIES))
def test_evolution_snapshot_matches_payload_loop(family):
    """Figure 9's snapshot on the view is the entries loop, bit for bit,
    with residents labelled ``-1`` kept and unlabeled ones left out."""
    points = [
        StreamPoint(
            p.index,
            p.values,
            -1 if i % 5 == 0 else None if i % 7 == 0 else p.label,
        )
        for i, p in enumerate(_stream(length=1_000))
    ]
    sampler = SNAPSHOT_FAMILIES[family]()
    _warm(sampler, points[:800])
    for p in points[800:]:
        sampler.offer(p)
    current, reference = snapshot(sampler), evolution_snapshot(sampler)
    assert -1 in current.labels.tolist()
    assert current.t == reference.t
    for field in ("values", "labels", "ages"):
        got, want = getattr(current, field), getattr(reference, field)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    for field in ("purity", "separation", "staleness"):
        assert np.array_equal(
            getattr(current, field), getattr(reference, field), equal_nan=True
        )
