"""Tests for GROUP BY estimation over reservoirs (extension)."""

import numpy as np
import pytest

from repro.core.biased import ExponentialReservoir
from repro.core.sliding_window import WindowBuffer
from repro.core.unbiased import UnbiasedReservoir
from repro.queries.groupby import GroupByEstimator, label_key
from repro.queries.spec import average_query, count_query, sum_query
from repro.shard import ShardedReservoir
from repro.streams import point as point_module
from repro.streams.point import PointBlock, StreamPoint
from tests.conftest import make_points


def labeled_points(rng, n=300, n_groups=3, offset=5.0):
    """Points whose dim-0 mean is ``label * offset`` (known per group)."""
    labels = rng.integers(0, n_groups, size=n)
    values = rng.normal(size=(n, 2))
    values[:, 0] += labels * offset
    return make_points(values, labels)


class TestGroupByEstimator:
    def test_window_buffer_groups_are_exact(self, rng):
        """With p = 1 residents the per-group estimates are exact."""
        pts = labeled_points(rng, n=100)
        buf = WindowBuffer(100, rng=0)
        for p in pts:
            buf.offer(p)
        groups = GroupByEstimator(buf).estimate(count_query())
        truth = {}
        for p in pts:
            truth[p.label] = truth.get(p.label, 0) + 1
        for key, est in groups.items():
            assert est.estimate[0] == pytest.approx(truth[key])
            assert est.support == truth[key]

    def test_group_averages_separate_means(self, rng):
        pts = labeled_points(rng, n=600, offset=10.0)
        res = UnbiasedReservoir(300, rng=1)
        for p in pts:
            res.offer(p)
        groups = GroupByEstimator(res).estimate(average_query(None, [0]))
        for key, est in groups.items():
            assert est.estimate[0] == pytest.approx(key * 10.0, abs=1.0)

    def test_weight_shares_sum_to_one(self, rng):
        pts = labeled_points(rng, n=500)
        res = UnbiasedReservoir(200, rng=2)
        for p in pts:
            res.offer(p)
        groups = GroupByEstimator(res).estimate(count_query())
        assert sum(g.weight_share for g in groups.values()) == pytest.approx(
            1.0
        )

    def test_horizon_restricts_groups(self, rng):
        """Groups entirely outside the horizon must not appear."""
        early = make_points(rng.normal(size=(50, 2)), labels=[0] * 50)
        late = make_points(
            rng.normal(size=(50, 2)), labels=[1] * 50, start_index=51
        )
        buf = WindowBuffer(100, rng=3)
        for p in early + late:
            buf.offer(p)
        groups = GroupByEstimator(buf).estimate(count_query(horizon=50))
        assert set(groups) == {1}

    def test_min_support_filters_thin_groups(self, rng):
        pts = labeled_points(rng, n=300, n_groups=3)
        res = UnbiasedReservoir(50, rng=4)
        for p in pts:
            res.offer(p)
        all_groups = GroupByEstimator(res).estimate(count_query())
        thick = GroupByEstimator(res).estimate(count_query(), min_support=100)
        assert len(thick) < len(all_groups)

    def test_empty_reservoir(self):
        res = UnbiasedReservoir(10, rng=5)
        assert GroupByEstimator(res).estimate(count_query()) == {}

    def test_custom_key_function(self, rng):
        pts = make_points(rng.normal(size=(100, 2)))
        res = UnbiasedReservoir(100, rng=6)
        for p in pts:
            res.offer(p)
        groups = GroupByEstimator(
            res, key=lambda p: p.values[0] > 0
        ).estimate(count_query())
        assert set(groups) <= {True, False}
        total = sum(g.estimate[0] for g in groups.values())
        assert total == pytest.approx(100.0)

    def test_default_key_is_label(self, labeled_point):
        assert label_key(labeled_point) == 2

    def test_ratio_with_zero_denominator_is_nan(self, rng):
        """A group whose denominator mass is zero yields nan, not a crash."""

        # Custom ratio: numerator counts all, denominator counts dim0>1e9
        # (never true) — denominator zero for every group.
        from repro.queries.spec import RatioQuery, range_count_query

        pts = labeled_points(rng, n=50)
        res = UnbiasedReservoir(50, rng=7)
        for p in pts:
            res.offer(p)
        q = RatioQuery(
            "weird",
            count_query(),
            range_count_query(None, [0], [1e9], [2e9]),
        )
        groups = GroupByEstimator(res).estimate(q)
        for est in groups.values():
            assert np.isnan(est.estimate).all()

    def test_sum_query_vector_output(self, rng):
        pts = labeled_points(rng, n=200)
        res = UnbiasedReservoir(200, rng=8)
        for p in pts:
            res.offer(p)
        groups = GroupByEstimator(res).estimate(sum_query(None, [0, 1]))
        for est in groups.values():
            assert est.estimate.shape == (2,)


class TestNegativeLabels:
    """The label column's ``None`` mask, not the sign, marks unlabeled
    residents: negative labels are labels."""

    @staticmethod
    def _points(labels):
        return [
            StreamPoint(i + 1, np.array([i, -i]), label)
            for i, label in enumerate(labels)
        ]

    def _groups(self, labels):
        sampler = ExponentialReservoir(capacity=50, rng=0)
        sampler.offer_many(self._points(labels))
        return GroupByEstimator(sampler).estimate(count_query())

    def test_minus_one_keeps_its_key(self):
        groups = self._groups([-1] * 5)
        assert list(groups) == [-1]
        assert groups[-1].support == 5

    def test_none_and_minus_one_are_two_groups(self):
        groups = self._groups([None, -1, None, -1, -1, 3])
        assert list(groups) == [None, -1, 3]
        assert [g.support for g in groups.values()] == [2, 3, 1]

    def test_minus_two_keeps_its_key(self):
        groups = self._groups([-2, -2, 0])
        assert list(groups) == [-2, 0]

    def test_points_arriving_as_a_block(self):
        sampler = ExponentialReservoir(capacity=50, rng=0)
        points = self._points([None, -1, -1, 7])
        sampler.offer_many(PointBlock.from_points(points))
        groups = GroupByEstimator(sampler).estimate(count_query())
        assert {k: g.support for k, g in groups.items()} == {
            None: 1,
            -1: 2,
            7: 1,
        }


class TestCustomKeyBoxesSupportOnly:
    """A custom key boxes the horizon's supported residents, not all."""

    @pytest.fixture
    def boxed(self, monkeypatch):
        counts = []
        box = point_module._box_rows

        def spy(index, *columns):
            counts.append(len(index))
            return box(index, *columns)

        monkeypatch.setattr(point_module, "_box_rows", spy)
        return counts

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ExponentialReservoir(capacity=600, rng=1),
            lambda: ShardedReservoir(capacity=600, workers=3, rng=2),
        ],
        ids=["array_store", "sharded"],
    )
    def test_boxes_no_more_than_the_support(self, factory, boxed):
        rng = np.random.default_rng(3)
        sampler = factory()
        sampler.offer_many(PointBlock.from_points(labeled_points(rng, 4000)))
        payloads = sampler.payloads()
        ages = sampler.t - sampler.arrival_indices()
        for horizon in (40, 100, 400):
            boxed.clear()
            groups = GroupByEstimator(sampler, key=lambda p: p.label % 2)
            got = groups.estimate(count_query(horizon))
            supports = {key: g.support for key, g in got.items()}
            assert 0 < sum(supports.values()) < sampler.size
            assert sum(boxed) <= sum(supports.values())
            # The groups of keying every resident inside the horizon.
            inside = [p.label % 2 for p, age in zip(payloads, ages) if age < horizon]
            assert supports == {key: inside.count(key) for key in set(inside)}
