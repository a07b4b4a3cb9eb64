"""Tests for variable reservoir sampling (Theorem 3.3 scheme)."""

import math
import pickle

import numpy as np
import pytest

from repro.core.space_constrained import SpaceConstrainedReservoir
from repro.core.reservoir import from_state_dict
from repro.core.variable import VariableReservoir


class TestConstruction:
    def test_default_q_is_paper_recommendation(self):
        res = VariableReservoir(lam=1e-4, capacity=1000)
        assert res.q == pytest.approx(1 - 1 / 1000)

    def test_target_p_in(self):
        res = VariableReservoir(lam=1e-4, capacity=1000)
        assert res.target_p_in == pytest.approx(0.1)

    def test_starts_at_full_insertion_rate(self):
        res = VariableReservoir(lam=1e-4, capacity=1000)
        assert res.p_in == 1.0

    def test_capacity_above_natural_size_raises(self):
        with pytest.raises(ValueError, match="not constrained"):
            VariableReservoir(lam=1e-2, capacity=500)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_q(self, q):
        with pytest.raises(ValueError, match="q must lie"):
            VariableReservoir(lam=1e-4, capacity=100, q=q)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            VariableReservoir(lam=0.0, capacity=100)


class TestFillBehaviour:
    def test_fills_in_about_capacity_points(self):
        """Figure 1's headline: full after ~n_max arrivals, not n log n/p."""
        res = VariableReservoir(lam=1e-5, capacity=1000, rng=0)
        res.extend(range(1500))
        assert res.size >= 999

    def test_stays_within_one_point_of_full(self):
        """With q = 1 - 1/n_max at most one point is ever missing."""
        res = VariableReservoir(lam=1e-5, capacity=1000, rng=1)
        deficit = 0
        for i in range(5000):
            res.offer(i)
            if i > 1500:
                deficit = max(deficit, res.capacity - res.size)
        assert deficit <= 1

    def test_much_fuller_than_fixed_scheme(self):
        """The Figure 1 contrast, as an invariant."""
        lam, n = 1e-5, 1000
        var = VariableReservoir(lam=lam, capacity=n, rng=2)
        fixed = SpaceConstrainedReservoir(lam=lam, capacity=n, rng=3)
        for i in range(20_000):
            var.offer(i)
            fixed.offer(i)
        assert var.size >= 999
        assert fixed.size < 400

    def test_p_in_descends_towards_target(self):
        res = VariableReservoir(lam=1e-4, capacity=500, rng=4)
        res.extend(range(2000))
        mid_p = res.p_in
        assert mid_p < 1.0
        res.extend(range(200_000))
        assert res.p_in == pytest.approx(res.target_p_in)

    def test_p_in_never_below_target(self):
        res = VariableReservoir(lam=1e-3, capacity=100, rng=5)
        for i in range(50_000):
            res.offer(i)
            assert res.p_in >= res.target_p_in - 1e-12

    def test_phase_history_monotone(self):
        res = VariableReservoir(lam=1e-4, capacity=500, rng=6)
        res.extend(range(30_000))
        times = [t for t, _ in res.phase_history]
        p_values = [p for _, p in res.phase_history]
        assert times == sorted(times)
        assert all(a >= b for a, b in zip(p_values, p_values[1:]))

    def test_aggressive_q_also_correct_but_jumpier(self):
        """Theorem 3.3 holds for any q; halving ejects half per phase."""
        res = VariableReservoir(lam=1e-4, capacity=1000, q=0.5, rng=7)
        res.extend(range(5000))
        assert res.size <= 1000
        # After a halving phase the reservoir can be down to ~half.
        assert res.size >= 400


class TestDistribution:
    def test_converged_age_distribution_matches_fixed_scheme(self):
        """After p_in converges, the sample must look like Algorithm 3.1's
        stationary distribution (Theorem 3.3)."""
        lam, n = 1e-3, 200  # target p_in = 0.2, mean stationary age 1/lam
        ages = []
        for seed in range(12):
            res = VariableReservoir(lam=lam, capacity=n, rng=seed)
            res.extend(range(12_000))
            assert res.p_in == pytest.approx(res.target_p_in)
            ages.append(float(res.ages().mean()))
        assert np.mean(ages) == pytest.approx(1 / lam, rel=0.15)

    def test_inclusion_probability_uses_current_p_in(self):
        res = VariableReservoir(lam=1e-3, capacity=100, rng=8)
        res.extend(range(5000))
        expected = res.p_in * math.exp(-1e-3 * 100)
        assert res.inclusion_probability(4900) == pytest.approx(expected)

    def test_inclusion_probabilities_vectorized(self):
        res = VariableReservoir(lam=1e-3, capacity=100, rng=9)
        res.extend(range(2000))
        r = np.array([500, 1500, 2000])
        np.testing.assert_allclose(
            res.inclusion_probabilities(r),
            [res.inclusion_probability(int(x)) for x in r],
        )

    def test_p_in_at_reconstructs_history(self):
        res = VariableReservoir(lam=1e-4, capacity=500, rng=10)
        res.extend(range(10_000))
        assert res.p_in_at(0) == 1.0
        assert res.p_in_at(res.t) == pytest.approx(res.p_in)
        # Mid-stream value must match some recorded phase.
        mid = res.p_in_at(2000)
        recorded = [p for _, p in res.phase_history]
        assert any(math.isclose(mid, p) for p in recorded)

    def test_p_in_at_matches_a_scan_of_the_history(self):
        res = VariableReservoir(lam=2e-2, capacity=20, rng=11)
        res.offer_many(range(400))
        history = res.phase_history
        assert len(history) > 5
        for t in range(res.t + 2):
            scanned = [value for when, value in history if when <= t][-1]
            assert res.p_in_at(t) == scanned

    def test_p_in_at_negative_raises(self):
        res = VariableReservoir(lam=1e-4, capacity=500)
        with pytest.raises(ValueError, match="t must be >= 0"):
            res.p_in_at(-1)

    def test_restored_phase_history_and_rng_match_original(self):
        """A snapshot taken mid-startup restores the whole phase schedule
        (``p_in_at`` at every position) and the random stream."""
        res = VariableReservoir(lam=2e-3, capacity=100, rng=12)
        res.offer_many(range(3_000))
        restored = from_state_dict(pickle.loads(pickle.dumps(res.state_dict())))
        assert len(res.phase_history) > 50
        assert restored.phase_history == res.phase_history
        for t in range(res.t + 2):
            assert restored.p_in_at(t) == res.p_in_at(t)
        for payload in range(3_000, 4_000):
            assert restored.offer(payload) == res.offer(payload)
        assert restored.phase_history == res.phase_history
        assert restored.rng.random() == res.rng.random()

    def test_survival_is_per_arrival_lambda_in_every_phase(self):
        """The hazard is lambda before the target too, not p_in / n."""
        res = VariableReservoir(lam=1e-3, capacity=100, rng=11)
        res.extend(range(200))
        assert res.p_in > res.target_p_in  # still in the startup phases
        assert res.survival_probability(50) == (1 - 1e-3) ** 50
        with pytest.raises(ValueError, match="age must be >= 0"):
            res.survival_probability(-1)


class TestCapacityOneEdgeCase:
    def test_capacity_one_uses_halving_default(self):
        """n_max = 1 degenerates the paper's q = 1 - 1/n schedule to 0;
        the sampler falls back to halving."""
        res = VariableReservoir(lam=0.1, capacity=1, rng=0)
        assert res.q == 0.5
        res.extend(range(200))
        assert res.size <= 1
