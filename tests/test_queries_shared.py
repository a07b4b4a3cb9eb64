"""One estimator across a stream: the shared per-horizon record.

:class:`~repro.queries.estimator.QueryEstimator` computes the support,
``p(r, t)``, the weights and the variance factor once per sampler state
and horizon, and every query of a mix reads them. These tests reuse one
estimator while the sampler moves on, through every way a sampler can
move, and require each result to be bitwise equal both to a fresh
estimator's and to the per-point oracle in ``tests/query_oracle.py``.

GROUP BY, histograms, quantiles and the relevant sample size read the
same record; they must equal the self-contained versions kept in
``tests/query_oracle.py`` bit for bit on the same sampler states.
"""

import types

import numpy as np
import pytest

from repro.core import (
    ChainSampler,
    ExponentialReservoir,
    SpaceConstrainedReservoir,
    UnbiasedReservoir,
    VariableReservoir,
)
from repro.queries import GroupByEstimator, QueryEstimator, label_key
from repro.queries import histogram
from repro.queries.histogram import estimate_histogram, estimate_quantiles
from repro.queries.spec import (
    RatioQuery,
    average_query,
    class_count_query,
    class_distribution_query,
    count_query,
    range_count_query,
    range_selectivity_query,
    sum_query,
)
from repro.shard import ShardedReservoir
from repro.streams.point import PointBlock, StreamPoint
from tests.conftest import make_points
from tests.query_oracle import (
    columnar_accumulate,
    oracle_estimate,
    relevant_sample_size,
    weighted_values,
)

DIMS = 4
N_CLASSES = 3
HORIZONS = (40, 150)


def make_stream(n, seed):
    rng = np.random.default_rng(seed)
    return make_points(
        rng.normal(size=(n, DIMS)), rng.integers(0, N_CLASSES, size=n)
    )


def checkpoint_mix(horizons=HORIZONS):
    """Five queries per horizon, as in the end-to-end benchmark's mix."""
    mix = []
    for h in horizons:
        mix += [
            count_query(h),
            sum_query(h, range(DIMS)),
            average_query(h, range(DIMS)),
            range_count_query(h, (0, 1), (-0.5, -0.5), (0.5, 0.5)),
            class_count_query(h, N_CLASSES),
        ]
    return mix


FULL_MIX = checkpoint_mix(HORIZONS + (None,)) + [
    range_selectivity_query(HORIZONS[0], (0, 1), (-0.5, -0.5), (0.5, 0.5)),
    class_distribution_query(None, N_CLASSES),
]


def assert_same(got, want):
    assert got.sample_support == want.sample_support
    assert got.estimate.tobytes() == want.estimate.tobytes()
    if want.variance is None:
        assert got.variance is None
    else:
        assert got.variance.tobytes() == want.variance.tobytes()


def check(estimator, queries, t=None):
    """The reused estimator first (so nothing else warms a cache), then a
    fresh estimator and the oracle on the same state."""
    sampler = estimator.sampler
    for query in queries:
        got = estimator.estimate(query, t)
        assert_same(got, QueryEstimator(sampler).estimate(query, t))
        assert_same(got, oracle_estimate(sampler, query, t))


def offer_blocks(sampler, points, block):
    for start in range(0, len(points), block):
        sampler.offer_many(points[start : start + block])
        yield


def offer_items(sampler, points):
    for point in points:
        sampler.offer(point)
        yield


FAMILIES = {
    "exponential": lambda: ExponentialReservoir(capacity=40, rng=3),
    "space_constrained": lambda: SpaceConstrainedReservoir(
        lam=1e-2, capacity=40, rng=3
    ),
    "variable": lambda: VariableReservoir(lam=1e-2, capacity=40, rng=3),
    "unbiased": lambda: UnbiasedReservoir(40, rng=3),
    "sharded": lambda: ShardedReservoir(capacity=40, workers=4, rng=3),
}


class TestReusedEstimatorMatchesFresh:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_block_offers(self, family):
        sampler = FAMILIES[family]()
        estimator = QueryEstimator(sampler)
        points = make_stream(600, seed=1)
        for _ in offer_blocks(sampler, PointBlock.from_points(points), 64):
            check(estimator, FULL_MIX)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_per_item_offers(self, family):
        sampler = FAMILIES[family]()
        estimator = QueryEstimator(sampler)
        for step, _ in enumerate(offer_items(sampler, make_stream(400, 2))):
            if step % 7 == 0:
                check(estimator, FULL_MIX)

    def test_rejected_unbiased_offers(self):
        """A rejected offer moves ``t`` and ``p = n/t`` but not storage:
        the record must still be rebuilt."""
        sampler = UnbiasedReservoir(40, rng=4)
        estimator = QueryEstimator(sampler)
        rejected = 0
        for point in make_stream(500, seed=3):
            key = sampler._columns_key()
            stored = sampler.offer(point)
            if not stored:
                assert sampler._columns_key() == key
                rejected += 1
                check(estimator, [count_query(None), average_query(None, [0])])
        assert rejected > 100

    def test_chain_sampler(self):
        sampler = ChainSampler(20, window=100, rng=5)
        estimator = QueryEstimator(sampler)
        for step, _ in enumerate(offer_items(sampler, make_stream(400, 4))):
            if step % 5 == 0:
                check(estimator, FULL_MIX)

    def test_sharded_with_pending_buffers(self):
        """Per-item offers wait in worker buffers; the record is keyed on
        the facade's stream position, and a read flushes them first."""
        sampler = ShardedReservoir(capacity=40, workers=4, rng=6)
        estimator = QueryEstimator(sampler)
        points = make_stream(700, seed=5)
        sampler.offer_many(points[:200])
        check(estimator, FULL_MIX)
        for step, _ in enumerate(offer_items(sampler, points[200:])):
            if step % 9 == 0:
                assert any(sampler._buf_payloads)
                check(estimator, FULL_MIX)

    def test_int_payload_counts_build_no_view(self):
        sampler = ExponentialReservoir(capacity=40, rng=7)
        estimator = QueryEstimator(sampler)

        def no_view():
            raise AssertionError("a count built the resident view")

        sampler.resident_columns = no_view
        counts = [count_query(h) for h in HORIZONS + (None,)]
        for _ in offer_blocks(sampler, list(range(1, 501)), 50):
            check(estimator, counts)
        del sampler.resident_columns
        with pytest.raises(AttributeError):
            estimator.estimate(sum_query(None, [0]))


class TestExplicitT:
    @pytest.mark.parametrize("family", ["unbiased", "variable", "sharded"])
    def test_later_t_never_reuses_another_ts_record(self, family):
        sampler = FAMILIES[family]()
        estimator = QueryEstimator(sampler)
        sampler.offer_many(make_stream(300, seed=6))
        now = sampler.t
        for t in (now + 50, now, now + 50, now + 120, None):
            check(estimator, FULL_MIX, t)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fixed_later_t_across_offers(self, family):
        """The same explicit ``t`` before and after offers is a new state."""
        sampler = FAMILIES[family]()
        estimator = QueryEstimator(sampler)
        points = make_stream(400, seed=7)
        sampler.offer_many(points[:200])
        later = sampler.t + 500
        check(estimator, FULL_MIX, later)
        for step, _ in enumerate(offer_items(sampler, points[200:])):
            if step % 11 == 0:
                check(estimator, FULL_MIX, later)


class TestOnePassPerCheckpoint:
    def test_mix_computes_p_once_per_horizon(self):
        """The ten-query mix over two horizons asks the sampler for
        ``p(r, t)`` twice per checkpoint, not once per query (twelve
        times, counting both parts of the ratio query)."""
        sampler = VariableReservoir(lam=1e-3, capacity=200, rng=8)
        estimator = QueryEstimator(sampler)
        mix = checkpoint_mix()
        assert len(mix) == 10
        calls = []
        model = sampler.inclusion_probabilities

        def spy(r, t=None):
            calls.append(t)
            return model(r, t)

        sampler.inclusion_probabilities = spy
        points = PointBlock.from_points(make_stream(2048, seed=9))
        for _ in offer_blocks(sampler, points, 256):
            calls.clear()
            for query in mix:
                estimator.estimate(query)
            assert calls == [sampler.t] * len(HORIZONS)


# --------------------------------------------------------------------- #
# GROUP BY, histograms, quantiles and the relevant sample size
# --------------------------------------------------------------------- #


def make_mixed_stream(n, seed):
    """Labels -1..2 with ~15% unlabeled, so the ``None`` group, a real
    label ``-1`` and labels outside ``class_count_query`` all occur."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, DIMS))
    labels = rng.integers(-1, N_CLASSES, size=n)
    unlabeled = rng.random(n) < 0.15
    return [
        StreamPoint(i + 1, values[i], None if unlabeled[i] else int(labels[i]))
        for i in range(n)
    ]


def group_mix(horizon):
    """Linear and ratio queries over one horizon."""
    return [
        count_query(horizon),
        sum_query(horizon, range(DIMS)),
        class_count_query(horizon, N_CLASSES),
        average_query(horizon, range(DIMS)),
        range_selectivity_query(horizon, (0, 1), (-0.5, -0.5), (0.5, 0.5)),
        class_distribution_query(horizon, N_CLASSES),
    ]


def quadrant_key(point):
    """A custom key: the signs of the first two coordinates."""
    return (bool(point.values[0] > 0), bool(point.values[1] > 0))


KEYS = {"label": label_key, "custom": quadrant_key}
GROUP_HORIZONS = (None,) + HORIZONS


def parts(query):
    if isinstance(query, RatioQuery):
        return query.numerator, query.denominator
    return query, None


def columnar_groupby(sampler, key):
    """A GROUP BY estimator whose accumulator is the oracle's."""
    oracle = GroupByEstimator(sampler, key)
    oracle._accumulate = types.MethodType(columnar_accumulate, oracle)
    return oracle


def assert_same_totals(got, want):
    (got_groups, got_total), (want_groups, want_total) = got, want
    assert got_total == want_total
    assert list(got_groups) == list(want_groups)
    for key, bucket in want_groups.items():
        mine = got_groups[key]
        assert mine["num"].tobytes() == bucket["num"].tobytes()
        for field in ("den", "support", "weight"):
            assert mine[field] == bucket[field]


def assert_same_groups(got, want):
    assert list(got) == list(want)
    for key, group in want.items():
        mine = got[key]
        assert mine.key == group.key
        assert mine.support == group.support
        assert mine.weight_share == group.weight_share
        assert mine.estimate.tobytes() == group.estimate.tobytes()


def check_groupby(estimators, t=None):
    """Every key, horizon and query of the mix on the reused estimators,
    then fresh ones, against the oracle accumulator."""
    for name, reused in estimators.items():
        sampler, key = reused.sampler, reused.key
        at = sampler.t if t is None else t
        oracle = columnar_groupby(sampler, key)
        for horizon in GROUP_HORIZONS:
            for query in group_mix(horizon):
                numerator, denominator = parts(query)
                assert_same_totals(
                    reused._accumulate(numerator, denominator, at),
                    columnar_accumulate(reused, numerator, denominator, at),
                )
                for min_support in (1, 3):
                    want = oracle.estimate(query, t, min_support)
                    assert_same_groups(
                        reused.estimate(query, t, min_support), want
                    )
                    assert_same_groups(
                        GroupByEstimator(sampler, key).estimate(
                            query, t, min_support
                        ),
                        want,
                    )


def check_distribution(sampler, monkeypatch):
    """Weights, histograms and quantiles against the oracle weights."""
    edges = np.linspace(-2.0, 2.0, 9)
    qs = [0.0, 0.1, 0.5, 0.9, 1.0]
    for horizon in GROUP_HORIZONS:
        for dim in (0, DIMS - 1):
            got = histogram._weighted_values(sampler, dim, horizon)
            want = weighted_values(sampler, dim, horizon)
            for mine, theirs in zip(got, want):
                assert mine.tobytes() == theirs.tobytes()
            hist = estimate_histogram(sampler, dim, edges, horizon)
            quantiles = estimate_quantiles(sampler, dim, qs, horizon)
            with monkeypatch.context() as patch:
                patch.setattr(histogram, "_weighted_values", weighted_values)
                want_hist = estimate_histogram(sampler, dim, edges, horizon)
                want_quantiles = estimate_quantiles(sampler, dim, qs, horizon)
            assert hist.support == want_hist.support
            assert hist.densities.tobytes() == want_hist.densities.tobytes()
            assert quantiles.tobytes() == want_quantiles.tobytes()


def check_sample_size(estimator, t=None):
    for horizon in (1,) + HORIZONS + (10**6,):
        want = relevant_sample_size(estimator.sampler, horizon, t)
        assert estimator.relevant_sample_size(horizon, t) == want
        fresh = QueryEstimator(estimator.sampler)
        assert fresh.relevant_sample_size(horizon, t) == want


def check_all(sampler, estimators, estimator, monkeypatch):
    check_groupby(estimators)
    check_distribution(sampler, monkeypatch)
    check_sample_size(estimator)


def reused_for(sampler):
    estimators = {
        name: GroupByEstimator(sampler, key) for name, key in KEYS.items()
    }
    return estimators, QueryEstimator(sampler)


GROUP_FAMILIES = dict(
    FAMILIES, chain=lambda: ChainSampler(20, window=100, rng=5)
)


class TestRecordReaders:
    @pytest.mark.parametrize(
        "family", sorted(set(GROUP_FAMILIES) - {"chain"})
    )
    def test_block_offers(self, family, monkeypatch):
        sampler = GROUP_FAMILIES[family]()
        estimators, estimator = reused_for(sampler)
        check_all(sampler, estimators, estimator, monkeypatch)  # empty
        points = PointBlock.from_points(make_mixed_stream(480, seed=11))
        for _ in offer_blocks(sampler, points, 96):
            check_all(sampler, estimators, estimator, monkeypatch)

    @pytest.mark.parametrize("family", sorted(GROUP_FAMILIES))
    def test_per_item_offers(self, family, monkeypatch):
        sampler = GROUP_FAMILIES[family]()
        estimators, estimator = reused_for(sampler)
        points = make_mixed_stream(300, seed=12)
        for step, _ in enumerate(offer_items(sampler, points)):
            if step % 37 == 0:
                check_all(sampler, estimators, estimator, monkeypatch)

    def test_sharded_with_pending_buffers(self, monkeypatch):
        sampler = ShardedReservoir(capacity=40, workers=4, rng=6)
        estimators, estimator = reused_for(sampler)
        points = make_mixed_stream(500, seed=13)
        sampler.offer_many(points[:200])
        check_all(sampler, estimators, estimator, monkeypatch)
        for step, _ in enumerate(offer_items(sampler, points[200:])):
            if step % 41 == 0:
                assert any(sampler._buf_payloads)
                check_all(sampler, estimators, estimator, monkeypatch)

    @pytest.mark.parametrize("family", ["unbiased", "variable", "sharded"])
    def test_explicit_later_t(self, family):
        sampler = GROUP_FAMILIES[family]()
        estimators, estimator = reused_for(sampler)
        sampler.offer_many(make_mixed_stream(300, seed=14))
        now = sampler.t
        for t in (now + 50, now, now + 120):
            check_groupby(estimators, t)
            check_sample_size(estimator, t)

    def test_int_payload_counts_and_custom_key(self):
        """Counts grouped by a custom key read only arrivals and payloads,
        so they run over ints; they equal the oracle's groups on a twin
        sampler that drew the same residents as points."""
        ints = ExponentialReservoir(capacity=40, rng=7)
        twin = ExponentialReservoir(capacity=40, rng=7)

        def no_view():
            raise AssertionError("an int-payload count built the view")

        ints.resident_columns = no_view
        reused = GroupByEstimator(ints, key=lambda p: p % 3)
        estimator = QueryEstimator(ints)
        points = make_points(np.arange(1.0, 501.0)[:, None])
        payloads = list(range(1, 501))
        for start in range(0, 500, 50):
            ints.offer_many(payloads[start : start + 50])
            twin.offer_many(points[start : start + 50])
            assert ints.payloads() == [
                int(p.values[0]) for p in twin.payloads()
            ]
            oracle = columnar_groupby(twin, lambda p: int(p.values[0]) % 3)
            for horizon in GROUP_HORIZONS:
                count = count_query(horizon)
                for query in (count, RatioQuery("share", count, count)):
                    assert_same_groups(
                        reused.estimate(query), oracle.estimate(query)
                    )
                check_sample_size(estimator)
        with pytest.raises(AssertionError, match="built the view"):
            reused.estimate(sum_query(None, [0]))


class TestGroupByOnePassPerState:
    def test_repeated_groupby_computes_p_once_per_horizon(self):
        """GROUP BY at one state reads the estimator's records: ``p`` is
        computed once per horizon however many queries, keys or support
        floors ask, and again after the sampler moves."""
        sampler = VariableReservoir(lam=1e-3, capacity=200, rng=8)
        groups = GroupByEstimator(sampler)
        calls = []
        model = sampler.inclusion_probabilities

        def spy(r, t=None):
            calls.append(t)
            return model(r, t)

        sampler.inclusion_probabilities = spy
        points = PointBlock.from_points(make_mixed_stream(2048, seed=16))
        for _ in offer_blocks(sampler, points, 256):
            calls.clear()
            for _repeat in range(2):
                for horizon in HORIZONS:
                    for query in group_mix(horizon):
                        groups.estimate(query)
                        groups.estimate(query, min_support=5)
            assert calls == [sampler.t] * len(HORIZONS)


class TestHorizonBoundary:
    """A horizon reaches the record as ``count_query(horizon)``, so a
    non-positive one is refused with the query's own error."""

    @pytest.fixture
    def sampler(self):
        sampler = ExponentialReservoir(capacity=40, rng=9)
        sampler.offer_many(make_mixed_stream(200, seed=17))
        return sampler

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_histogram(self, sampler, horizon):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            estimate_histogram(sampler, 0, [-1.0, 0.0, 1.0], horizon)

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_quantiles(self, sampler, horizon):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            estimate_quantiles(sampler, 0, [0.5], horizon)

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_relevant_sample_size(self, sampler, horizon):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            QueryEstimator(sampler).relevant_sample_size(horizon)
