"""Tests for the exact StreamHistory oracle."""

import numpy as np
import pytest

from repro.queries.exact import StreamHistory
from repro.queries.spec import (
    LinearQuery,
    average_query,
    class_count_query,
    class_distribution_query,
    count_query,
    range_count_query,
    sum_query,
)
from repro.streams.point import StreamPoint
from tests.conftest import make_points


@pytest.fixture
def history():
    """Five labeled 2-D points with known values."""
    h = StreamHistory(dimensions=2)
    values = [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0], [5.0, 50.0]]
    labels = [0, 1, 0, 1, 1]
    for p in make_points(values, labels):
        h.observe(p)
    return h


class TestObservation:
    def test_t_advances(self, history):
        assert history.t == 5

    def test_out_of_order_rejected(self, history):
        with pytest.raises(ValueError, match="out-of-order"):
            history.observe(StreamPoint(99, np.zeros(2)))

    def test_dimension_mismatch_rejected(self, history):
        with pytest.raises(ValueError, match="dimension mismatch"):
            history.observe(StreamPoint(6, np.zeros(3)))

    def test_buffer_growth(self):
        h = StreamHistory(dimensions=2, capacity_hint=16)
        for p in make_points(np.arange(200).reshape(100, 2)):
            h.observe(p)
        assert h.t == 100
        np.testing.assert_array_equal(h.values()[-1], [198.0, 199.0])

    def test_observe_all(self):
        h = StreamHistory(dimensions=2)
        count = h.observe_all(make_points(np.zeros((7, 2))))
        assert count == 7

    def test_labels_view(self, history):
        assert history.labels().tolist() == [0, 1, 0, 1, 1]

    def test_dimensions_validation(self):
        with pytest.raises(ValueError, match="dimensions"):
            StreamHistory(dimensions=0)


class TestExactEvaluation:
    def test_count_whole_stream(self, history):
        assert history.evaluate(count_query())[0] == 5.0

    def test_count_horizon(self, history):
        assert history.evaluate(count_query(horizon=2))[0] == 2.0

    def test_count_horizon_larger_than_stream(self, history):
        assert history.evaluate(count_query(horizon=100))[0] == 5.0

    def test_count_at_past_t(self, history):
        assert history.evaluate(count_query(), t=3)[0] == 3.0

    def test_sum_whole_stream(self, history):
        np.testing.assert_allclose(
            history.evaluate(sum_query(None, [0, 1])), [15.0, 150.0]
        )

    def test_sum_horizon(self, history):
        np.testing.assert_allclose(
            history.evaluate(sum_query(2, [0])), [9.0]  # points 4 and 5
        )

    def test_average_ratio(self, history):
        np.testing.assert_allclose(
            history.evaluate(average_query(2, [0, 1])), [4.5, 45.0]
        )

    def test_average_empty_horizon_is_nan(self, history):
        result = history.evaluate(average_query(3, [0]), t=0)
        assert np.isnan(result).all()

    def test_class_count(self, history):
        np.testing.assert_allclose(
            history.evaluate(class_count_query(None, 2)), [2.0, 3.0]
        )

    def test_class_distribution(self, history):
        np.testing.assert_allclose(
            history.evaluate(class_distribution_query(None, 2)), [0.4, 0.6]
        )

    def test_range_count_fast_path(self, history):
        q = range_count_query(None, [0], [2.0], [4.0])
        assert history.evaluate(q)[0] == 3.0

    def test_range_count_both_dims(self, history):
        q = range_count_query(None, [0, 1], [2.0, 25.0], [4.0, 45.0])
        assert history.evaluate(q)[0] == 2.0  # points 3 and 4

    def test_generic_fallback_matches_fast_path(self, history):
        """A custom ``h`` is summed over the horizon rows."""

        def squared_first(values, labels):
            return values[:, :1] ** 2

        q = LinearQuery("custom", squared_first, 1, horizon=None)
        assert history.evaluate(q)[0] == pytest.approx(1 + 4 + 9 + 16 + 25)

    def test_bad_t_rejected(self, history):
        with pytest.raises(ValueError, match="t must lie"):
            history.evaluate(count_query(), t=6)

    def test_horizon_bounds(self, history):
        assert history.horizon_bounds(2) == (3, 5)
        assert history.horizon_bounds(None) == (0, 5)
        assert history.horizon_bounds(2, t=3) == (1, 3)

    def test_float32_storage(self):
        h = StreamHistory(dimensions=1, dtype=np.float32)
        for p in make_points([[1.5], [2.5]]):
            h.observe(p)
        assert h.evaluate(sum_query(None, [0]))[0] == pytest.approx(4.0)


class TestCustomQueriesByKernel:
    """The prefix answers follow the query's ``h``, never its name."""

    @pytest.fixture
    def twos(self):
        h = StreamHistory(dimensions=2)
        h.observe_all(make_points([[2.0, 1.0]] * 10, [1] * 10))
        return h

    def test_custom_h_named_count_is_summed(self, twos):
        q = LinearQuery("count", lambda values, labels: values[:, :1] ** 2, 1)
        assert twos.evaluate(q)[0] == 40.0
        assert twos.evaluate_scan(q)[0] == 40.0

    def test_custom_h_named_class_count_is_summed(self, twos):
        q = LinearQuery(
            "class_count", lambda values, labels: values[:, ::-1], 2
        )
        np.testing.assert_array_equal(twos.evaluate(q), [10.0, 20.0])
        np.testing.assert_array_equal(twos.evaluate_scan(q), [10.0, 20.0])

    def test_builder_kernel_under_any_name_uses_prefix(self, twos):
        """A renamed builder query is still a sum of its kernel."""
        q = LinearQuery("total", sum_query(None, [1]).h, 1)
        assert twos.evaluate(q)[0] == 10.0
        q = LinearQuery("labels", class_count_query(None, 2).h, 2)
        np.testing.assert_array_equal(twos.evaluate(q), [0.0, 10.0])


class TestAgainstNumpy:
    def test_random_stream_sums_match(self, rng):
        data = rng.normal(size=(300, 4))
        h = StreamHistory(dimensions=4)
        h.observe_all(make_points(data))
        for horizon in (10, 100, 299, None):
            got = h.evaluate(sum_query(horizon, range(4)))
            lo = 0 if horizon is None else max(0, 300 - horizon)
            np.testing.assert_allclose(got, data[lo:].sum(axis=0))


class TestIncrementalAgainstScan:
    """The prefix-structure answers vs the horizon-scan reference."""

    @pytest.fixture
    def long_history(self, rng):
        data = rng.normal(size=(800, 3))
        labels = rng.integers(0, 4, size=800)
        h = StreamHistory(dimensions=3)
        h.observe_all(make_points(data, labels))
        return h

    def test_count_matches_scan_exactly(self, long_history):
        for horizon in (1, 50, 799, 800, 5000, None):
            q = count_query(horizon)
            for t in (100, 457, 800):
                np.testing.assert_array_equal(
                    long_history.evaluate(q, t),
                    long_history.evaluate_scan(q, t),
                )

    def test_class_count_matches_scan_exactly(self, long_history):
        """Counts come from bisected position lists — integers, so the
        agreement is exact, not approximate."""
        for horizon in (1, 50, 333, None):
            q = class_count_query(horizon, 4)
            for t in (100, 457, 800):
                np.testing.assert_array_equal(
                    long_history.evaluate(q, t),
                    long_history.evaluate_scan(q, t),
                )

    def test_sum_matches_scan_tightly(self, long_history):
        """Prefix-sum differences reassociate float additions, so sums
        agree to tight tolerance rather than bitwise."""
        for horizon in (1, 50, 333, None):
            q = sum_query(horizon, range(3))
            for t in (100, 457, 800):
                np.testing.assert_allclose(
                    long_history.evaluate(q, t),
                    long_history.evaluate_scan(q, t),
                    rtol=1e-10,
                    atol=1e-9,
                )

    def test_average_matches_scan_tightly(self, long_history):
        q = average_query(120, range(3))
        np.testing.assert_allclose(
            long_history.evaluate(q), long_history.evaluate_scan(q),
            rtol=1e-10,
        )

    def test_range_count_uses_scan(self, long_history):
        """range_count has no incremental structure; both entry points
        must hit the identical scan path."""
        q = range_count_query(200, (0, 1), (-1.0, -1.0), (1.0, 1.0))
        np.testing.assert_array_equal(
            long_history.evaluate(q), long_history.evaluate_scan(q)
        )

    def test_unlabeled_points_never_counted(self):
        h = StreamHistory(dimensions=1)
        values = [[1.0], [2.0], [3.0]]
        for i, p in enumerate(make_points(values)):
            h.observe(p)
        q = class_count_query(None, 2)
        np.testing.assert_array_equal(h.evaluate(q), np.zeros(2))
        np.testing.assert_array_equal(h.evaluate_scan(q), np.zeros(2))

    def test_prefix_survives_buffer_growth(self, rng):
        """_grow must carry the prefix rows; sums straddle the boundary."""
        data = rng.normal(size=(100, 2))
        h = StreamHistory(dimensions=2, capacity_hint=16)
        h.observe_all(make_points(data))
        np.testing.assert_allclose(
            h.evaluate(sum_query(None, range(2))), data.sum(axis=0)
        )
        np.testing.assert_allclose(
            h.evaluate(sum_query(37, range(2))), data[-37:].sum(axis=0)
        )

    def test_evaluate_scan_handles_ratio_and_empty(self, long_history):
        q = average_query(10, range(3))
        assert np.all(np.isnan(long_history.evaluate_scan(q, t=0)))
        got = long_history.evaluate_scan(q, t=500)
        assert got.shape == (3,)
