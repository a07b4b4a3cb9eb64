"""The samplers' inclusion laws against ``core.theory``, and Lemma 4.1."""


import numpy as np
import pytest

from repro.core.biased import ExponentialReservoir
from repro.core.space_constrained import SpaceConstrainedReservoir
from repro.core.theory import (
    expected_inclusion_exponential,
    expected_inclusion_space_constrained,
    expected_inclusion_unbiased,
)
from repro.core.unbiased import UnbiasedReservoir
from repro.queries.variance_analysis import exact_variance


class TestModels:
    def test_unbiased_model_matches_sampler(self):
        res = UnbiasedReservoir(20, rng=0)
        res.extend(range(100))
        r = np.array([1, 50, 100])
        np.testing.assert_allclose(
            expected_inclusion_unbiased(20, r, 100),
            res.inclusion_probabilities(r),
        )

    def test_exponential_model_matches_sampler(self):
        res = ExponentialReservoir(capacity=50, rng=0)
        res.extend(range(300))
        r = np.array([10, 200, 300])
        np.testing.assert_allclose(
            expected_inclusion_exponential(50, r, 300),
            res.inclusion_probabilities(r),
        )

    def test_space_constrained_model_shape(self):
        """Theorem 3.1: a new arrival is in the sample with probability
        ``p_in``, and the sampler decays from there at rate ``p_in / n``."""
        res = SpaceConstrainedReservoir(lam=0.005, capacity=100, rng=0)
        assert res.p_in == pytest.approx(0.5)
        res.extend(range(400))
        r = np.array([1, 200, 399, 400])
        np.testing.assert_allclose(
            expected_inclusion_space_constrained(100, 0.5, np.array([200]), 200),
            [0.5],
        )
        np.testing.assert_allclose(
            expected_inclusion_space_constrained(100, res.p_in, r, 400),
            res.inclusion_probabilities(r),
        )


class TestLemma41Variance:
    def test_zero_variance_when_p_is_one(self):
        c = np.ones(10)
        h = np.ones(10)
        p = np.ones(10)
        np.testing.assert_allclose(exact_variance(c, h, p), [0.0])

    def test_closed_form_small_case(self):
        """Var = sum c^2 h^2 (1/p - 1)."""
        c = np.array([1.0, 1.0])
        h = np.array([2.0, 3.0])
        p = np.array([0.5, 0.25])
        expected = 4 * (2 - 1) + 9 * (4 - 1)
        assert exact_variance(c, h, p)[0] == pytest.approx(expected)

    def test_vector_h(self):
        c = np.array([1.0])
        h = np.array([[2.0, 3.0]])
        p = np.array([0.5])
        np.testing.assert_allclose(exact_variance(c, h, p), [4.0, 9.0])

    def test_zero_coefficient_masks_zero_probability(self):
        """Points outside the horizon (c=0) may have p=0 without error —
        this is exactly why biased sampling works for horizon queries."""
        c = np.array([0.0, 1.0])
        h = np.array([5.0, 1.0])
        p = np.array([0.0, 0.5])
        assert exact_variance(c, h, p)[0] == pytest.approx(1.0)

    def test_nonzero_coefficient_with_zero_probability_rejected(self):
        c = np.array([1.0])
        h = np.array([1.0])
        p = np.array([0.0])
        with pytest.raises(ValueError, match="zero inclusion"):
            exact_variance(c, h, p)

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(ValueError, match="align"):
            exact_variance(np.ones(3), np.ones(2), np.ones(3))

    def test_variance_predicts_monte_carlo(self, rng):
        """Lemma 4.1 must match the empirical variance of HT estimates."""
        from repro.queries.estimator import QueryEstimator
        from repro.queries.spec import count_query
        from tests.conftest import make_points

        t, n = 300, 30
        data = rng.normal(size=(t, 1))
        estimates = []
        for seed in range(300):
            res = UnbiasedReservoir(n, rng=seed)
            for p in make_points(data):
                res.offer(p)
            est = QueryEstimator(res).estimate(count_query(horizon=50))
            estimates.append(est.estimate[0])
        empirical_var = float(np.var(estimates))
        c = count_query(horizon=50).coefficients(np.arange(1, t + 1), t)
        p = expected_inclusion_unbiased(n, np.arange(1, t + 1), t)
        predicted = exact_variance(c, np.ones(t), p)[0]
        # Lemma 4.1 assumes independent inclusions; reservoir sampling has
        # slight negative dependence, so allow a generous band.
        assert empirical_var == pytest.approx(predicted, rel=0.4)
