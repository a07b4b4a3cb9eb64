"""The filter-then-verify kNN kernel against the full-scan oracle.

``ReservoirKnnClassifier`` ranks rows by the norm expansion and
recomputes exact distances only for the candidates within a rounding
bound. These tests pin its predictions to ``tests/knn_oracle.py`` (the
full scan it replaced) bit for bit for ``k = 1``, and to a full scan
that orders rows stably by (exact distance, slot) for every ``k``, on
inputs built to stress the bound: exact ties, a large common offset
that cancels the expansion, mixed magnitudes, unlabeled rows and
non-finite coordinates.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.biased import ExponentialReservoir
from repro.core.sliding_window import ChainSampler
from repro.core.unbiased import UnbiasedReservoir
from repro.core.variable import VariableReservoir
from repro.mining.knn import ReservoirKnnClassifier
from repro.streams import EvolvingClusterStream
from repro.streams.point import StreamPoint
from tests.knn_oracle import OracleKnnClassifier, knn_predict

KS = (1, 3, 5)


def classifier(values, labels, k=1):
    """A classifier whose mirror holds ``values`` in slots ``0..n-1``."""
    clf = ReservoirKnnClassifier(UnbiasedReservoir(len(values), rng=0), k=k)
    for i, (row, label) in enumerate(zip(values, labels)):
        clf.observe(StreamPoint(i + 1, np.asarray(row, dtype=float), label))
    return clf


def full_exact(clf, values):
    """Every row's exact squared distance, as the full scan computed it
    (a row-major block minus the query, one ``einsum``)."""
    matrix = np.ascontiguousarray(clf._matrix[: clf._rows])
    diffs = matrix - values
    return np.einsum("ij,ij->i", diffs, diffs)


def stable_predict(clf, values):
    """The full scan with its nearest rows ordered by (distance, slot)."""
    clf._ensure_synced()
    labeled = clf._labeled[: clf._rows]
    if not labeled.any():
        return None
    labels = clf._labels[: clf._rows]
    dists = np.where(labeled, full_exact(clf, values), np.inf)
    if clf.k == 1:
        return int(labels[np.argmin(dists)])
    k = min(clf.k, int(labeled.sum()))
    nearest = labels[np.argsort(dists, kind="stable")[:k]].tolist()
    votes = Counter(nearest)
    best = max(votes.values())
    return next(label for label in nearest if votes[label] == best)


def check(clf, query):
    """The kernel equals the stable full scan for every ``k``, and the
    oracle bit for bit for ``k = 1``; returns the candidate count."""
    point = StreamPoint(10**9, np.asarray(query, dtype=float))
    got = clf.predict(point)
    assert got == stable_predict(clf, point.values)
    if clf.k == 1:
        assert got == knn_predict(clf, point)
    k = min(clf.k, clf._labeled_rows)
    return len(clf._candidates(point.values, k))


def with_k(clf, k):
    clf.k = k
    return clf


class TestTies:
    def test_exact_duplicates_lowest_slot_wins(self):
        values = [[5.0, 5.0], [1.0, 1.0], [9.0, 0.0], [1.0, 1.0], [1.0, 1.0]]
        clf = classifier(values, [0, 1, 2, 3, 4])
        assert clf.predict(StreamPoint(10**9, np.array([1.0, 1.0]))) == 1
        assert clf.predict(StreamPoint(10**9, np.array([1.2, 0.9]))) == 1
        for k in KS:
            check(with_k(clf, k), [1.0, 1.0])

    def test_duplicates_tie_at_kth_place_take_lowest_slots(self):
        # Slots 1, 2 and 4 tie at distance 1; k = 2 takes slots 0 and 1.
        values = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [7.0, 7.0], [-1.0, 0.0]]
        clf = classifier(values, [0, 1, 2, 3, 2], k=2)
        # Votes 0 and 1 tie one each: the closest, slot 0, wins.
        assert clf.predict(StreamPoint(10**9, np.zeros(2))) == 0
        clf.k = 3  # slots 0, 1, 2: three different labels, slot 0 wins
        assert clf.predict(StreamPoint(10**9, np.zeros(2))) == 0
        clf.k = 4  # slots 0, 1, 2, 4: label 2 twice
        assert clf.predict(StreamPoint(10**9, np.zeros(2))) == 2

    def test_equidistant_rows(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(1, 6))
            axis = rng.integers(dim)
            query = rng.integers(-40, 40, size=dim) / 8.0  # dyadic: exact
            shifts = np.zeros((2 * dim, dim))
            shifts[np.arange(dim), np.arange(dim)] = 0.5
            shifts[dim + np.arange(dim), np.arange(dim)] = -0.5
            order = rng.permutation(2 * dim)
            values = np.vstack([query + shifts[order], query + 3.0])
            values[-1, axis] += 1.0
            clf = classifier(values, list(range(len(values))))
            # Every shifted row is at exactly 0.25: slot 0 wins.
            assert clf.predict(StreamPoint(10**9, query)) == 0
            for k in KS:
                check(with_k(clf, k), query)


class TestCancellation:
    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    def test_common_offset_small_spread(self, offset):
        rng = np.random.default_rng(int(np.log10(offset)))
        values = offset + 1e-3 * rng.normal(size=(200, 10))
        labels = rng.integers(0, 4, size=200).tolist()
        clf = classifier(values, labels)
        counts = []
        for _ in range(40):
            query = offset + 1e-3 * rng.normal(size=10)
            for k in KS:
                counts.append(check(with_k(clf, k), query))
        if offset == 1e8:
            # The expansion has cancelled: the bound admits every row.
            assert min(counts) == 200
        else:
            assert max(counts) > 5  # the set grows past k

    def test_no_offset_keeps_few_candidates(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(500, 10))
        clf = classifier(values, rng.integers(0, 4, size=500).tolist())
        for _ in range(40):
            assert check(clf, rng.normal(size=10)) <= 2

    def test_mixed_magnitudes(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n, dim = int(rng.integers(2, 300)), int(rng.integers(1, 12))
            scales = 10.0 ** rng.uniform(-8, 8, size=(n, 1))
            values = rng.normal(size=(n, dim)) * scales
            labels = rng.integers(-2, 3, size=n).tolist()
            clf = classifier(values, labels)
            for k in KS:
                for scale in (1e-6, 1.0, 1e6):
                    check(with_k(clf, k), scale * rng.normal(size=dim))
                check(with_k(clf, k), values[rng.integers(n)])

    def test_random_grids_with_ties(self):
        """Coordinates on a coarse grid tie often, at every place."""
        rng = np.random.default_rng(17)
        for _ in range(60):
            n, dim = int(rng.integers(1, 120)), int(rng.integers(1, 5))
            offset = rng.choice([0.0, 1e3, 1e7])
            values = offset + rng.integers(-3, 4, size=(n, dim)).astype(float)
            labels = rng.integers(0, 3, size=n).tolist()
            clf = classifier(values, labels)
            for k in KS:
                query = offset + rng.integers(-3, 4, size=dim).astype(float)
                check(with_k(clf, k), query)


class TestLabels:
    def test_unlabeled_rows_and_minus_one(self):
        values = [[0.0, 0.0], [0.1, 0.0], [1.0, 1.0], [0.2, 0.0], [3.0, 3.0]]
        labels = [None, -1, None, 4, -1]
        clf = classifier(values, labels)
        assert clf._labeled_rows == 3
        assert clf.predict(StreamPoint(10**9, np.zeros(2))) == -1
        for k in KS:
            check(with_k(clf, k), [0.0, 0.0])
            check(with_k(clf, k), [2.0, 2.0])

    @pytest.mark.parametrize("k", KS)
    def test_k_above_labeled_rows(self, k):
        rng = np.random.default_rng(k)
        values = rng.normal(size=(12, 3))
        labels = [None] * 10 + [7, -1]
        clf = classifier(values, labels, k=k)
        for _ in range(20):
            assert check(clf, rng.normal(size=3)) >= min(k, 2)

    def test_only_unlabeled_predicts_none(self):
        clf = classifier([[0.0], [1.0]], [None, None], k=3)
        assert clf.predict(StreamPoint(10**9, np.zeros(1))) is None

    def test_labeled_count_follows_replacements(self):
        rng = np.random.default_rng(4)
        clf = ReservoirKnnClassifier(ExponentialReservoir(20, rng=5))
        for i in range(500):
            label = None if rng.random() < 0.3 else int(rng.integers(3))
            clf.observe(StreamPoint(i + 1, rng.normal(size=2), label))
            labeled = clf._labeled[: clf._rows]
            assert clf._labeled_rows == int(labeled.sum())


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("where", ["query", "row"])
    @pytest.mark.parametrize("k", KS)
    def test_matches_oracle(self, bad, where, k):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(30, 4))
        labels = [None, 2] + rng.integers(0, 3, size=28).tolist()
        query = rng.normal(size=4)
        if where == "query":
            query[1] = bad
        else:
            values[7, 2] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            clf = classifier(values, labels, k=k)
            count = check(clf, query)
            if k > 1 and where == "row":
                # No exact tie: the oracle's introselect order agrees.
                assert clf.predict(StreamPoint(10**9, query)) == knn_predict(
                    clf, StreamPoint(10**9, query)
                )
        assert count == 30  # a non-finite bound admits every row

    def test_overflowing_distances_fall_back_to_full_scan(self):
        values = [[1e300, 0.0], [-1e300, 0.0], [0.0, 1e300]]
        with np.errstate(over="ignore", invalid="ignore"):
            clf = classifier(values, [None, 1, 2])
            for query in ([-1e300, 0.0], [0.0, 0.0], [1e300, 1e300]):
                check(clf, query)


class TestCandidates:
    def test_distances_equal_full_einsum(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n, dim = int(rng.integers(1, 400)), int(rng.integers(1, 20))
            offset = rng.choice([0.0, 10.0, 1e5])
            values = offset + rng.normal(size=(n, dim))
            clf = classifier(values, rng.integers(0, 4, size=n).tolist())
            for k in (1, 3):
                k = min(k, n)
                query = offset + rng.normal(size=dim)
                slots = clf._candidates(query, k)
                dists = clf._distances(slots, query)
                full = full_exact(clf, query)
                assert np.array_equal(dists, full[slots])
                assert np.all(np.diff(slots) > 0)
                # The exact k nearest by (distance, slot) are candidates.
                nearest = np.argsort(full, kind="stable")[:k]
                assert set(nearest.tolist()) <= set(slots.tolist())

    def test_mirror_norms_and_counts_after_rebuild(self):
        rng = np.random.default_rng(2)
        sampler = ExponentialReservoir(50, rng=3)
        clf = ReservoirKnnClassifier(sampler)
        for i in range(200):
            label = None if i % 7 == 0 else i % 3
            sampler.offer(StreamPoint(i + 1, rng.normal(size=3), label))
        clf._ensure_synced()  # out of band: one rebuild
        matrix = clf._matrix[: clf._rows]
        norms = (matrix**2).sum(axis=1)
        assert np.allclose(clf._half_sq[: clf._rows], norms / 2)
        assert clf._labeled_rows == int(clf._labeled[: clf._rows].sum())


def _prequential(make_sampler, points, k):
    """Engine and oracle predictions over the same seeded stream."""
    runs = []
    for cls in (ReservoirKnnClassifier, OracleKnnClassifier):
        clf = cls(make_sampler(), k=k)
        runs.append([clf.predict_then_observe(p) for p in points])
    return runs


def _stream(length, seed, offset=10.0):
    return [
        StreamPoint(p.index, p.values + offset, p.label)
        for p in EvolvingClusterStream(
            length=length, n_clusters=4, dimensions=10, rng=seed
        )
    ]


class TestPrequential:
    def test_exponential_stream_bitwise(self):
        engine, oracle = _prequential(
            lambda: ExponentialReservoir(capacity=300, rng=7), _stream(4000, 1), 1
        )
        assert engine == oracle

    @pytest.mark.parametrize("k", KS)
    def test_variable_reservoir_compaction(self, k):
        """Theorem 3.3 phase ejections log a compaction: the mirror is
        rebuilt from the resident view, norms and counts included."""
        engine, oracle = _prequential(
            lambda: VariableReservoir(lam=1e-2, capacity=60, rng=4),
            _stream(1500, 2),
            k,
        )
        assert engine == oracle

    @pytest.mark.parametrize("k", KS)
    def test_chain_sampler_without_mutation_log(self, k):
        engine, oracle = _prequential(
            lambda: ChainSampler(40, window=300, rng=7), _stream(1200, 3), k
        )
        assert engine == oracle
