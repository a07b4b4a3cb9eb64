"""Columnar query engine: equivalence with the per-point oracle.

The engine's contract is strict: the cached struct-of-arrays resident
view plus each query's columnar ``h`` must reproduce the per-point
estimator in ``tests/query_oracle.py`` *bit for bit* — every builder
query, every sampler family. These tests pin that contract, plus the
cache's invalidation behaviour and the support-index regression paths.
"""

import numpy as np
import pytest

from repro.core import (
    ChainSampler,
    ExponentialReservoir,
    SkipUnbiasedReservoir,
    SpaceConstrainedReservoir,
    UnbiasedReservoir,
    VariableReservoir,
    WindowBuffer,
)
from repro.queries import (
    GroupByEstimator,
    QueryEstimator,
    estimate_histogram,
    estimate_quantiles,
)
from repro.queries.spec import (
    LinearQuery,
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
from repro.streams.point import StreamPoint
from tests.conftest import make_points
from tests.query_oracle import oracle_estimate, oracle_groupby

DIMS = 4
N_CLASSES = 3


def make_stream(n, seed, labeled=True):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, DIMS))
    labels = rng.integers(0, N_CLASSES, size=n) if labeled else None
    return make_points(values, labels)


SAMPLER_FACTORIES = {
    "unbiased": lambda: UnbiasedReservoir(40, rng=5),
    "skip_unbiased": lambda: SkipUnbiasedReservoir(40, rng=5),
    "exponential": lambda: ExponentialReservoir(capacity=40, rng=5),
    "space_constrained": lambda: SpaceConstrainedReservoir(
        lam=1e-2, capacity=40, rng=5
    ),
    "variable": lambda: VariableReservoir(lam=1e-2, capacity=40, rng=5),
    "window": lambda: WindowBuffer(40, rng=5),
    "chain": lambda: ChainSampler(20, window=100, rng=5),
    "sharded": lambda: ShardedReservoir(capacity=40, workers=4, rng=5),
}

QUERY_BUILDERS = {
    "count": lambda h: count_query(h),
    "sum": lambda h: sum_query(h, range(DIMS)),
    "range_count": lambda h: range_count_query(
        h, (0, 1), (-0.5, -0.5), (0.5, 0.5)
    ),
    "class_count": lambda h: class_count_query(h, N_CLASSES),
    "average": lambda h: average_query(h, range(DIMS)),
    "range_selectivity": lambda h: range_selectivity_query(
        h, (0, 1), (-0.5, -0.5), (0.5, 0.5)
    ),
    "class_distribution": lambda h: class_distribution_query(h, N_CLASSES),
}


class TestEveryQueryEverySampler:
    @pytest.mark.parametrize("family", sorted(SAMPLER_FACTORIES))
    @pytest.mark.parametrize("query_name", sorted(QUERY_BUILDERS))
    @pytest.mark.parametrize("horizon", [None, 120])
    def test_columnar_matches_reference_bitwise(
        self, family, query_name, horizon
    ):
        sampler = SAMPLER_FACTORIES[family]()
        for point in make_stream(600, seed=9):
            sampler.offer(point)
        query = QUERY_BUILDERS[query_name](horizon)
        columnar = QueryEstimator(sampler).estimate(query)
        reference = oracle_estimate(sampler, query)
        assert columnar.sample_support == reference.sample_support
        np.testing.assert_array_equal(columnar.estimate, reference.estimate)
        if columnar.variance is None:
            assert reference.variance is None
        else:
            np.testing.assert_array_equal(
                columnar.variance, reference.variance
            )


class TestResidentColumnsView:
    def test_columns_match_payloads(self):
        res = ExponentialReservoir(capacity=30, rng=1)
        for point in make_stream(200, seed=2):
            res.offer(point)
        columns = res.resident_columns()
        payloads = res.payloads()
        assert columns.size == len(payloads)
        np.testing.assert_array_equal(
            columns.values, np.array([p.values for p in payloads])
        )
        np.testing.assert_array_equal(
            columns.labels, np.array([p.label for p in payloads])
        )
        np.testing.assert_array_equal(
            columns.arrivals, res.arrival_indices()
        )

    def test_unlabeled_points_encode_minus_one(self):
        res = UnbiasedReservoir(10, rng=0)
        for point in make_stream(30, seed=3, labeled=False):
            res.offer(point)
        assert np.all(res.resident_columns().labels == -1)

    def test_view_is_cached_between_mutations(self):
        res = UnbiasedReservoir(20, rng=0)
        for point in make_stream(100, seed=4):
            res.offer(point)
        assert res.resident_columns() is res.resident_columns()

    def test_mutation_invalidates_cache(self):
        points = make_stream(100, seed=4)
        res = UnbiasedReservoir(20, rng=0)
        for point in points[:50]:
            res.offer(point)
        before = res.resident_columns()
        for point in points[50:]:
            res.offer(point)
        after = res.resident_columns()
        assert after is not before
        np.testing.assert_array_equal(
            after.values, np.array([p.values for p in res.payloads()])
        )

    def test_batch_ingestion_invalidates_cache(self):
        points = make_stream(400, seed=6)
        res = ExponentialReservoir(capacity=20, rng=0)
        res.offer_many(points[:200])
        before = res.resident_columns()
        res.offer_many(points[200:])
        after = res.resident_columns()
        assert after is not before
        np.testing.assert_array_equal(
            after.arrivals, res.arrival_indices()
        )

    def test_chain_sampler_cache_tracks_stream_position(self):
        """Chains mutate without touching base counters — the override
        must still see every change."""
        points = make_stream(300, seed=7)
        chain = ChainSampler(10, window=50, rng=0)
        for point in points[:100]:
            chain.offer(point)
        before = chain.resident_columns()
        chain.offer(points[100])
        after = chain.resident_columns()
        assert after is not before
        np.testing.assert_array_equal(
            after.arrivals, chain.arrival_indices()
        )

    def test_sharded_view_matches_entries(self):
        sharded = ShardedReservoir(capacity=40, workers=4, rng=0)
        sharded.offer_many(make_stream(500, seed=8))
        columns = sharded.resident_columns()
        assert columns is sharded.resident_columns()
        np.testing.assert_array_equal(
            columns.arrivals, sharded.arrival_indices()
        )
        np.testing.assert_array_equal(
            columns.values,
            np.array([p.values for p in sharded.payloads()]),
        )
        sharded.offer_many(make_stream(100, seed=9))
        assert sharded.resident_columns() is not columns

    @pytest.mark.parametrize("family", ["serial", "chain", "sharded"])
    def test_none_mask_marks_unlabeled_rows(self, family):
        """The mask, not the label, tells ``None`` from a real ``-1``."""
        sampler = {
            "serial": lambda: UnbiasedReservoir(40, rng=0),
            "chain": lambda: ChainSampler(10, window=40, rng=0),
            "sharded": lambda: ShardedReservoir(capacity=40, workers=2, rng=0),
        }[family]()
        sampler.offer_many(
            [
                StreamPoint(i + 1, np.array([i, 0.5]), (None, -1, 3)[i % 3])
                for i in range(60)
            ]
        )
        columns = sampler.resident_columns()
        payloads = sampler.payloads()
        assert columns.none.tolist() == [p.label is None for p in payloads]
        assert -1 in columns.labels[~columns.none].tolist()
        assert np.all(columns.labels[columns.none] == -1)
        with pytest.raises(ValueError):
            columns.none[0] = True

    def test_columns_are_read_only(self):
        res = UnbiasedReservoir(10, rng=0)
        for point in make_stream(30, seed=5):
            res.offer(point)
        columns = res.resident_columns()
        with pytest.raises(ValueError):
            columns.values[0, 0] = 99.0
        with pytest.raises(ValueError):
            columns.arrivals[0] = 1

    def test_non_streampoint_payloads_raise_attribute_error(self):
        res = UnbiasedReservoir(5, rng=0)
        res.extend(range(10))
        with pytest.raises(AttributeError):
            res.resident_columns()


class TestSupportIndexing:
    """Regression tests for the flatnonzero support-selection rewrite."""

    def test_empty_support_returns_zero_and_nan(self):
        """No resident inside the horizon: linear -> 0, ratio -> nan."""
        res = WindowBuffer(10, rng=0)
        points = make_stream(100, seed=11)
        for point in points:
            res.offer(point)
        # Horizon 5 at t=195: every resident (arrivals <= 100) is stale.
        est = QueryEstimator(res)
        linear = est.estimate(sum_query(5, range(DIMS)), t=100 + 95)
        assert linear.sample_support == 0
        np.testing.assert_array_equal(linear.estimate, np.zeros(DIMS))
        ratio = est.estimate(average_query(5, range(DIMS)), t=100 + 95)
        assert np.all(np.isnan(ratio.estimate))

    def test_partial_support_selects_exact_rows(self):
        """Only in-horizon residents may contribute, in storage order."""
        res = WindowBuffer(50, rng=0)
        points = make_stream(50, seed=12)
        for point in points:
            res.offer(point)
        horizon = 20
        est = QueryEstimator(res).estimate(sum_query(horizon, range(DIMS)))
        expected = np.sum(
            [p.values for p in points[-horizon:]], axis=0
        )
        # WindowBuffer residents have p = 1, so HT is the exact sum over
        # the supported rows.
        np.testing.assert_allclose(est.estimate, expected)
        assert est.sample_support == horizon

    def test_empty_reservoir(self):
        res = UnbiasedReservoir(10, rng=0)
        est = QueryEstimator(res).estimate(count_query())
        assert est.sample_support == 0
        assert est.estimate[0] == 0.0


class TestCustomQueryFallback:
    def test_custom_query_without_kernel_matches_reference(self):
        """A custom columnar ``h`` (no builder kernel) matches the same
        ``h`` applied point by point, bitwise."""

        def squared_first(point: StreamPoint) -> np.ndarray:
            return np.array([point.values[0] ** 2])

        query = LinearQuery(
            "squared", lambda values, labels: values[:, :1] ** 2, 1, 80
        )
        res = ExponentialReservoir(capacity=30, rng=3)
        for point in make_stream(300, seed=13):
            res.offer(point)
        columnar = QueryEstimator(res).estimate(query)
        reference = oracle_estimate(res, query, value=squared_first)
        np.testing.assert_array_equal(columnar.estimate, reference.estimate)
        np.testing.assert_array_equal(columnar.variance, reference.variance)

    @pytest.mark.parametrize("family", sorted(SAMPLER_FACTORIES))
    def test_count_reads_arrivals_over_any_payload(self, family):
        """A count reads no resident row: over int payloads it equals the
        per-point oracle, while a row-reading query still raises the
        view's AttributeError."""
        sampler = SAMPLER_FACTORIES[family]()
        sampler.offer_many(range(1, 601))
        for horizon in (None, 120):
            query = count_query(horizon)
            got = QueryEstimator(sampler).estimate(query)
            want = oracle_estimate(sampler, query)
            np.testing.assert_array_equal(got.estimate, want.estimate)
            np.testing.assert_array_equal(got.variance, want.variance)
            assert got.sample_support == want.sample_support
        with pytest.raises(AttributeError):
            QueryEstimator(sampler).estimate(sum_query(None, [0]))


class TestArrivalOrder:
    @pytest.mark.parametrize("family", sorted(SAMPLER_FACTORIES))
    def test_arrival_indices_follow_the_view(self, family):
        """Counts read ``arrival_indices()`` and row-reading queries the
        view's arrivals; a ratio's Hajek sums match the parent's only if
        both list the residents in one order."""
        sampler = SAMPLER_FACTORIES[family]()
        points = make_stream(600, seed=21)
        sampler.offer_many(points[:350])
        for point in points[350:]:
            sampler.offer(point)
        np.testing.assert_array_equal(
            sampler.arrival_indices(), sampler.resident_columns().arrivals
        )

    def test_sharded_arrivals_with_pending_buffers(self):
        """Per-item offers sit in worker buffers until a read flushes
        them; both readers flush first and list workers in one order."""
        sharded = ShardedReservoir(capacity=40, workers=4, rng=2)
        points = make_stream(300, seed=22)
        sharded.offer_many(points[:200])
        for point in points[200:]:
            sharded.offer(point)
        arrivals = sharded.arrival_indices()
        np.testing.assert_array_equal(
            arrivals, sharded.resident_columns().arrivals
        )
        np.testing.assert_array_equal(
            arrivals, [e.arrival for e in sharded.entries()]
        )


class TestDownstreamConsumers:
    """GroupBy and histogram estimators ride the same columnar view."""

    @pytest.mark.parametrize(
        "query",
        [average_query(150, range(DIMS)), class_count_query(None, N_CLASSES)],
    )
    def test_custom_key_matches_per_point_groupby(self, query):
        """A custom key picks each row's group; totals agree with the
        per-point accumulator, groups in order of first appearance."""
        res = ExponentialReservoir(capacity=40, rng=4)
        for point in make_stream(400, seed=16):
            res.offer(point)

        def key(point):
            return bool(point.values[0] > 0)

        got = GroupByEstimator(res, key=key).estimate(query)
        groups, total = oracle_groupby(res, query, key)
        assert list(got) == list(groups)
        for name, bucket in groups.items():
            want = bucket["num"]
            if isinstance(query, RatioQuery):
                want = want / bucket["den"]
            np.testing.assert_allclose(got[name].estimate, want, rtol=1e-12)
            assert got[name].support == bucket["support"]
            assert got[name].weight_share == pytest.approx(
                bucket["weight"] / total, rel=1e-12
            )

    def test_groupby_label_path_matches_generic(self):
        res = ExponentialReservoir(capacity=40, rng=4)
        for point in make_stream(400, seed=14):
            res.offer(point)
        query = average_query(150, range(DIMS))
        by_label = GroupByEstimator(res).estimate(query)
        generic = GroupByEstimator(
            res, key=lambda p: p.label
        ).estimate(query)
        assert set(by_label) == set(generic)
        for key in by_label:
            np.testing.assert_allclose(
                by_label[key].estimate, generic[key].estimate
            )
            assert by_label[key].support == generic[key].support
            assert by_label[key].weight_share == pytest.approx(
                generic[key].weight_share
            )

    def test_histogram_uses_columnar_view(self):
        res = ExponentialReservoir(capacity=40, rng=4)
        for point in make_stream(400, seed=15):
            res.offer(point)
        edges = np.linspace(-3, 3, 9)
        hist = estimate_histogram(res, dim=0, edges=edges, horizon=200)
        assert hist.support > 0
        assert hist.densities.sum() == pytest.approx(1.0)
        qs = estimate_quantiles(res, dim=0, qs=[0.25, 0.5, 0.75])
        assert np.all(np.diff(qs) >= 0)
