"""Tests for query specifications."""

import numpy as np
import pytest

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


def row(query, values, label=None):
    """``h`` of one point: a one-row ``values_matrix`` call."""
    return query.values_matrix(
        np.asarray([values], dtype=float),
        np.array([-1 if label is None else label]),
        np.array([1]),
    )[0]


class TestLinearQuery:
    def test_horizon_coefficient(self):
        q = count_query(horizon=10)
        # ages 5 and 9 are < 10; age 10 is not
        np.testing.assert_array_equal(
            q.coefficients([95, 91, 90], 100), [1.0, 1.0, 0.0]
        )

    def test_whole_stream_coefficient(self):
        q = count_query()
        np.testing.assert_array_equal(q.coefficients([1], 10_000), [1.0])

    def test_coefficients_vectorized_matches_scalar(self):
        q = count_query(horizon=50)
        r = np.arange(1, 101)
        vec = q.coefficients(r, 100)
        scal = [1.0 if 100 - x < 50 else 0.0 for x in range(1, 101)]
        np.testing.assert_array_equal(vec, scal)

    def test_with_horizon_copies(self):
        q = sum_query(None, [0, 1])
        q2 = q.with_horizon(100)
        assert q2.horizon == 100
        assert q2.h is q.h
        assert q2.name == q.name and q2.output_dim == q.output_dim
        assert q.horizon is None

    def test_invalid_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            count_query(horizon=0)

    def test_invalid_output_dim(self):
        with pytest.raises(ValueError, match="output_dim"):
            LinearQuery("x", lambda p: np.ones(1), 0)


class TestBuilders:
    def test_count_value(self):
        q = count_query()
        assert q.h is None
        assert row(q, [1.0, 2.0])[0] == 1.0

    def test_sum_selects_dims(self):
        q = sum_query(None, [1, 2])
        np.testing.assert_array_equal(row(q, [5.0, 6.0, 7.0]), [6.0, 7.0])
        assert q.output_dim == 2
        assert q.h.dims == [1, 2]

    def test_sum_empty_dims_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sum_query(None, [])

    def test_average_is_ratio(self):
        q = average_query(100, [0])
        assert isinstance(q, RatioQuery)
        assert q.horizon == 100

    def test_range_count_inside(self):
        q = range_count_query(None, [0, 1], [0.0, 0.0], [1.0, 1.0])
        assert row(q, [0.5, 0.5, 9.0])[0] == 1.0

    def test_range_count_outside(self):
        q = range_count_query(None, [0, 1], [0.0, 0.0], [1.0, 1.0])
        assert row(q, [0.5, 1.5])[0] == 0.0

    def test_range_count_boundary_inclusive(self):
        q = range_count_query(None, [0], [0.0], [1.0])
        assert row(q, [1.0])[0] == 1.0
        assert row(q, [0.0])[0] == 1.0

    def test_range_count_validation(self):
        with pytest.raises(ValueError, match="low/high"):
            range_count_query(None, [0, 1], [0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="low must be"):
            range_count_query(None, [0], [2.0], [1.0])

    def test_range_selectivity_is_ratio(self):
        q = range_selectivity_query(50, [0], [0.0], [1.0])
        assert isinstance(q, RatioQuery)
        assert q.numerator.name == "range_count"

    def test_class_count_onehot(self):
        q = class_count_query(None, 4)
        np.testing.assert_array_equal(row(q, [0.0], label=2), [0, 0, 1, 0])

    def test_class_count_unlabeled_zero(self):
        q = class_count_query(None, 3)
        np.testing.assert_array_equal(row(q, [0.0]), [0, 0, 0])

    def test_class_count_out_of_range_label_zero(self):
        q = class_count_query(None, 2)
        np.testing.assert_array_equal(row(q, [0.0], label=7), [0, 0])

    def test_class_count_validation(self):
        with pytest.raises(ValueError, match="n_classes"):
            class_count_query(None, 0)

    def test_class_distribution_is_ratio(self):
        q = class_distribution_query(10, 3)
        assert q.numerator.output_dim == 3
        assert q.denominator.name == "count"


class TestRatioQuery:
    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share a horizon"):
            RatioQuery("bad", count_query(10), count_query(20))

    def test_with_horizon(self):
        q = class_distribution_query(10, 3).with_horizon(99)
        assert q.horizon == 99
        assert q.numerator.horizon == 99
        assert q.denominator.horizon == 99
