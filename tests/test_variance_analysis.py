"""Tests for the Section 4 variance analysis."""

from functools import partial

import numpy as np
import pytest

from repro.core.theory import (
    expected_inclusion_exponential,
    expected_inclusion_space_constrained,
    expected_inclusion_unbiased,
)
from repro.queries import variance_analysis as va
from repro.queries.spec import count_query
from repro.queries.variance_analysis import exact_variance


def lemma41_direct(model, h, t):
    """Direct Lemma 4.1 evaluation via the generic machinery."""
    r = np.arange(1, t + 1)
    c = count_query(h).coefficients(r, t)
    p = model(r, t)
    return float(exact_variance(c, np.ones(t), p)[0])


class TestClosedFormsMatchDirectSums:
    @pytest.mark.parametrize("h", [1, 10, 100, 500])
    def test_unbiased(self, h):
        n, t = 50, 1000
        closed = va.count_variance_unbiased(n, h, t)
        direct = lemma41_direct(
            partial(expected_inclusion_unbiased, n), h, t
        )
        assert closed == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("h", [1, 10, 100, 400])
    def test_exponential(self, h):
        n, t = 50, 1000
        closed = va.count_variance_exponential(n, h, t)
        direct = lemma41_direct(
            partial(expected_inclusion_exponential, n), h, t
        )
        assert closed == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("h", [1, 10, 100, 400])
    def test_space_constrained(self, h):
        n, p_in, t = 50, 0.4, 1000
        closed = va.count_variance_space_constrained(n, p_in, h, t)
        direct = lemma41_direct(
            partial(expected_inclusion_space_constrained, n, p_in), h, t
        )
        assert closed == pytest.approx(direct, rel=1e-9)


class TestQualitativeShape:
    def test_unbiased_variance_linear_in_t(self):
        n, h = 100, 500
        v1 = va.count_variance_unbiased(n, h, 10_000)
        v2 = va.count_variance_unbiased(n, h, 20_000)
        assert v2 == pytest.approx(2 * v1, rel=0.02)

    def test_exponential_variance_independent_of_t(self):
        n, h = 100, 500
        assert va.count_variance_exponential(
            n, h, 10_000
        ) == va.count_variance_exponential(n, h, 1_000_000)

    def test_exponential_variance_explodes_in_horizon(self):
        n, t = 100, 100_000
        small = va.count_variance_exponential(n, n, t)
        large = va.count_variance_exponential(n, 10 * n, t)
        assert large > 100 * small

    def test_unbiased_exact_when_n_ge_t(self):
        assert va.count_variance_unbiased(100, 50, 80) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            va.count_variance_unbiased(10, 0, 100)
        with pytest.raises(ValueError):
            va.count_variance_exponential(10, 101, 100)
        with pytest.raises(ValueError):
            va.count_variance_space_constrained(10, 0.0, 5, 100)


class TestCrossover:
    def test_crossover_exists_for_long_streams(self):
        n, t = 1000, 200_000
        h_star = va.crossover_horizon(n, t)
        assert h_star is not None
        # The crossover must actually separate the regimes.
        assert va.count_variance_exponential(
            n, h_star, t
        ) > va.count_variance_unbiased(n, h_star, t)
        assert va.count_variance_exponential(
            n, h_star - 1, t
        ) <= va.count_variance_unbiased(n, h_star - 1, t)

    def test_crossover_moves_out_with_stream_length(self):
        """Longer streams push the crossover to larger horizons — the
        longer the stream, the more horizons favor the biased design."""
        n = 1000
        h1 = va.crossover_horizon(n, 50_000)
        h2 = va.crossover_horizon(n, 500_000)
        assert h1 is not None and h2 is not None
        assert h2 > h1

    def test_no_crossover_within_cap(self):
        # Tiny max_horizon: biased still better everywhere below it.
        assert va.crossover_horizon(1000, 200_000, max_horizon=100) is None

    def test_space_constrained_crossover(self):
        h_star = va.crossover_horizon(1000, 200_000, p_in=0.1)
        assert h_star is not None

    def test_crossover_matches_empirical_regime(self):
        """The Figure 2-5 reproductions crossed over between h=25k and
        h=50k at t=200k with n=1000, p_in=0.1; the analysis must place the
        predicted crossover in that region (same order of magnitude)."""
        h_star = va.crossover_horizon(1000, 200_000, p_in=0.1)
        assert 10_000 < h_star < 120_000


class TestVarianceProfile:
    def test_shape_and_columns(self):
        horizons = np.array([100, 1_000, 10_000])
        profile = va.variance_profile(1000, 100_000, horizons)
        assert profile.shape == (3, 2)
        # biased column grows faster than unbiased at large horizons.
        assert profile[-1, 0] > profile[0, 0]

    def test_profile_with_p_in(self):
        horizons = np.array([100, 1_000])
        profile = va.variance_profile(1000, 100_000, horizons, p_in=0.1)
        assert np.all(profile >= 0)


class TestExactUnbiasedVariance:
    def test_matches_lemma_for_small_horizon(self):
        """For h << t the fpc correction vanishes."""
        n, t, h = 100, 1_000_000, 100
        assert va.count_variance_unbiased_exact(n, h, t) == pytest.approx(
            va.count_variance_unbiased(n, h, t), rel=0.01
        )

    def test_smaller_than_lemma_at_large_horizon(self):
        """Negative dependence of fixed-size sampling reduces variance."""
        n, t, h = 100, 10_000, 6_000
        exact = va.count_variance_unbiased_exact(n, h, t)
        lemma = va.count_variance_unbiased(n, h, t)
        assert exact < lemma
        # exact = h (1-h/t) (t-n)/(t-1) (t/n); lemma = h (t-n)/n, so the
        # ratio is (1 - h/t) * t/(t-1).
        fpc = (1 - h / t) * t / (t - 1)
        assert exact / lemma == pytest.approx(fpc, rel=1e-9)

    def test_zero_when_everything_retained(self):
        assert va.count_variance_unbiased_exact(100, 50, 80) == 0.0

    def test_matches_hypergeometric_monte_carlo(self, rng):
        """Cross-check against scipy's hypergeometric variance."""
        from scipy import stats

        n, t, h = 30, 500, 200
        hyper_var = stats.hypergeom(t, h, n).var() * (t / n) ** 2
        assert va.count_variance_unbiased_exact(n, h, t) == pytest.approx(
            hyper_var, rel=1e-9
        )
