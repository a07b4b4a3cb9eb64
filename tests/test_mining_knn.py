"""Tests for the reservoir-backed kNN classifier."""

import numpy as np
import pytest

from repro.core.biased import ExponentialReservoir
from repro.core.sliding_window import ChainSampler, WindowBuffer
from repro.core.timestamped import TimestampedExponentialReservoir
from repro.core.unbiased import UnbiasedReservoir
from repro.core.variable import VariableReservoir
from repro.mining.knn import ReservoirKnnClassifier
from repro.streams.point import StreamPoint
from tests.conftest import make_points


def two_blob_points(n_per_class=50, separation=10.0, seed=0, start=1):
    """Two well-separated Gaussian blobs, labels 0/1."""
    rng = np.random.default_rng(seed)
    values = np.vstack(
        [
            rng.normal(0.0, 1.0, size=(n_per_class, 2)),
            rng.normal(separation, 1.0, size=(n_per_class, 2)),
        ]
    )
    labels = [0] * n_per_class + [1] * n_per_class
    return make_points(values, labels, start_index=start)


class TestPrediction:
    def test_predicts_nearest_blob(self):
        clf = ReservoirKnnClassifier(UnbiasedReservoir(200, rng=0))
        for p in two_blob_points():
            clf.observe(p)
        assert clf.predict(StreamPoint(999, np.array([0.0, 0.0]))) == 0
        assert clf.predict(StreamPoint(999, np.array([10.0, 10.0]))) == 1

    def test_none_on_empty_reservoir(self):
        clf = ReservoirKnnClassifier(UnbiasedReservoir(10, rng=0))
        assert clf.predict(StreamPoint(1, np.zeros(2))) is None

    def test_none_when_only_unlabeled(self):
        clf = ReservoirKnnClassifier(UnbiasedReservoir(10, rng=0))
        clf.observe(StreamPoint(1, np.zeros(2)))  # unlabeled
        assert clf.predict(StreamPoint(2, np.zeros(2))) is None

    def test_unlabeled_residents_ignored(self):
        clf = ReservoirKnnClassifier(UnbiasedReservoir(10, rng=0))
        clf.observe(StreamPoint(1, np.array([0.0, 0.0])))  # unlabeled, closest
        clf.observe(StreamPoint(2, np.array([5.0, 5.0]), label=1))
        assert clf.predict(StreamPoint(3, np.array([0.0, 0.0]))) == 1

    def test_k3_majority_vote(self):
        clf = ReservoirKnnClassifier(UnbiasedReservoir(10, rng=0), k=3)
        pts = make_points(
            [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [5.0, 5.0]],
            labels=[0, 0, 1, 1],
        )
        for p in pts:
            clf.observe(p)
        # 3 nearest to origin: labels 0, 0, 1 -> majority 0.
        assert clf.predict(StreamPoint(9, np.array([0.0, 0.0]))) == 0

    def test_k_larger_than_reservoir(self):
        clf = ReservoirKnnClassifier(UnbiasedReservoir(10, rng=0), k=50)
        for p in two_blob_points(n_per_class=3):
            clf.observe(p)
        assert clf.predict(StreamPoint(99, np.array([0.0, 0.0]))) in (0, 1)

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            ReservoirKnnClassifier(UnbiasedReservoir(5), k=0)

    def test_predict_then_observe_order(self):
        """The prequential step must classify before training."""
        clf = ReservoirKnnClassifier(UnbiasedReservoir(10, rng=0))
        first = StreamPoint(1, np.array([0.0, 0.0]), label=0)
        # First point: nothing to compare against yet -> None.
        assert clf.predict_then_observe(first) is None
        # Second point: now the first is in the reservoir.
        second = StreamPoint(2, np.array([0.1, 0.1]), label=0)
        assert clf.predict_then_observe(second) == 0


CHURN_SAMPLERS = {
    "exponential": lambda seed: ExponentialReservoir(capacity=30, rng=seed),
    "unbiased": lambda seed: UnbiasedReservoir(30, rng=seed),
    "variable": lambda seed: VariableReservoir(
        lam=1e-2, capacity=30, rng=seed
    ),
    "timestamped": lambda seed: TimestampedExponentialReservoir(
        lam_time=0.04, capacity=30, rng=seed
    ),
}


class TestMirrorConsistency:
    @pytest.mark.parametrize("name", sorted(CHURN_SAMPLERS))
    def test_mirror_matches_reservoir_after_churn(self, name):
        """After heavy replacement churn, predictions must agree with a
        freshly built classifier over the same reservoir."""
        make = CHURN_SAMPLERS[name]
        res = make(1)
        clf = ReservoirKnnClassifier(res)
        for p in two_blob_points(n_per_class=500, seed=2):
            clf.observe(p)
        fresh = ReservoirKnnClassifier(make(99))
        fresh.sampler = res  # same reservoir, forced rebuild
        probe_rng = np.random.default_rng(3)
        for i in range(50):
            probe = StreamPoint(10_000 + i, probe_rng.normal(5, 4, size=2))
            assert clf.predict(probe) == fresh.predict(probe)

    def test_mirror_survives_compaction(self):
        """VariableReservoir phase ejections compact storage; the mirror
        must rebuild correctly."""
        res = VariableReservoir(lam=1e-2, capacity=50, rng=4)
        clf = ReservoirKnnClassifier(res)
        for p in two_blob_points(n_per_class=400, seed=5):
            clf.observe(p)
        assert res.ejections > 0
        probe = StreamPoint(99_999, np.array([10.0, 10.0]))
        assert clf.predict(probe) == 1

    def test_out_of_band_mutation_detected(self):
        """Offering directly to the sampler (bypassing observe) must not
        leave the mirror stale."""
        res = UnbiasedReservoir(5, rng=6)
        clf = ReservoirKnnClassifier(res)
        clf.observe(StreamPoint(1, np.array([0.0, 0.0]), label=0))
        # Out-of-band: push a decisive point straight into the sampler.
        res.offer(StreamPoint(2, np.array([5.0, 5.0]), label=1))
        assert clf.predict(StreamPoint(3, np.array([5.0, 5.0]))) == 1

    def test_works_without_mutation_log(self):
        """ChainSampler has no mutation log; the classifier falls back to
        re-snapshotting."""
        res = ChainSampler(20, window=200, rng=7)
        clf = ReservoirKnnClassifier(res)
        for p in two_blob_points(n_per_class=300, seed=8):
            clf.observe(p)
        # Window covers only label-1 points at the end.
        assert clf.predict(StreamPoint(9999, np.array([10.0, 10.0]))) == 1

    def test_window_buffer_backing(self):
        res = WindowBuffer(50, rng=9)
        clf = ReservoirKnnClassifier(res)
        for p in two_blob_points(n_per_class=100, seed=10):
            clf.observe(p)
        # Buffer holds only the last 50 points -> all label 1.
        assert clf.predict(StreamPoint(9999, np.array([0.0, 0.0]))) == 1


class TestNegativeLabels:
    """Residents labelled ``-1`` are labeled: the mirror's mask, not the
    label's value, marks unlabeled rows."""

    @pytest.mark.parametrize("via", ["observe", "rebuild"])
    def test_predicts_minus_one(self, via):
        sampler = ExponentialReservoir(capacity=10, rng=0)
        clf = ReservoirKnnClassifier(sampler)
        points = [StreamPoint(i + 1, np.full(2, i), -1) for i in range(5)]
        for p in points:
            if via == "observe":
                clf.observe(p)
            else:
                sampler.offer(p)  # out of band: the mirror is rebuilt
        assert clf.predict(StreamPoint(9, np.zeros(2))) == -1

    def test_unlabeled_neighbour_skipped_not_minus_one(self):
        clf = ReservoirKnnClassifier(UnbiasedReservoir(10, rng=0), k=1)
        clf.observe(StreamPoint(1, np.array([0.0, 0.0])))  # unlabeled
        clf.observe(StreamPoint(2, np.array([1.0, 1.0]), label=-1))
        clf.observe(StreamPoint(3, np.array([9.0, 9.0]), label=4))
        assert clf.predict(StreamPoint(4, np.array([0.1, 0.0]))) == -1
