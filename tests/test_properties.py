"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.bias import ExponentialBias, PolynomialBias
from repro.core.biased import ExponentialReservoir
from repro.core.sliding_window import ChainSampler, WindowBuffer
from repro.core.space_constrained import SpaceConstrainedReservoir
from repro.core.theory import (
    expected_fill_trajectory,
    expected_points_to_fill,
    expected_points_to_fraction,
)
from repro.core.unbiased import UnbiasedReservoir
from repro.core.variable import VariableReservoir
from repro.queries.spec import count_query

lambdas = st.floats(min_value=1e-6, max_value=0.5, allow_nan=False)
alphas = st.floats(min_value=0.05, max_value=4.0, allow_nan=False)
times = st.integers(min_value=1, max_value=2000)


class TestBiasFunctionProperties:
    @given(lam=lambdas, t=times)
    def test_exponential_weights_in_unit_interval(self, lam, t):
        bias = ExponentialBias(lam)
        w = bias.weights(np.arange(1, t + 1), t)
        # >= 0 rather than > 0: exp(-lam * age) underflows to 0.0 for very
        # old points, which is acceptable (the true value is positive but
        # below double precision).
        assert np.all(w >= 0.0)
        assert np.all(w <= 1.0)
        assert w[-1] == pytest.approx(1.0)

    @given(lam=lambdas, t=times)
    def test_exponential_monotone_in_r(self, lam, t):
        bias = ExponentialBias(lam)
        w = bias.weights(np.arange(1, t + 1), t)
        assert np.all(np.diff(w) >= 0.0)

    @given(lam=lambdas, t=st.integers(min_value=2, max_value=500))
    def test_requirement_between_one_and_t(self, lam, t):
        bias = ExponentialBias(lam)
        req = bias.max_reservoir_requirement(t)
        assert 1.0 <= req <= t + 1e-9

    @given(lam=lambdas, t=times)
    def test_closed_form_requirement_matches_generic(self, lam, t):
        bias = ExponentialBias(lam)
        indices = np.arange(1, t + 1)
        generic = float(bias.weights(indices, t).sum()) / bias.weight(t, t)
        assert bias.max_reservoir_requirement(t) == pytest.approx(
            generic, rel=1e-9
        )

    @given(alpha=alphas, t=times)
    def test_polynomial_requirement_monotone_in_t(self, alpha, t):
        bias = PolynomialBias(alpha)
        assert bias.max_reservoir_requirement(
            t + 1
        ) >= bias.max_reservoir_requirement(t)

    @given(lam=lambdas, t=st.integers(min_value=2, max_value=300))
    def test_incremental_sum_consistency(self, lam, t):
        bias = ExponentialBias(lam)
        s = 0.0
        for u in range(1, t + 1):
            s = bias.incremental_weight_sum(s, u)
        direct = float(bias.weights(np.arange(1, t + 1), t).sum())
        assert s == pytest.approx(direct, rel=1e-9)


class TestReservoirInvariants:
    @given(
        capacity=st.integers(min_value=1, max_value=50),
        n_points=st.integers(min_value=0, max_value=500),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_unbiased_invariants(self, capacity, n_points, seed):
        res = UnbiasedReservoir(capacity, rng=seed)
        res.extend(range(n_points))
        assert res.size == min(capacity, n_points)
        assert res.size == res.insertions - res.ejections
        arrivals = res.arrival_indices()
        assert len(set(arrivals.tolist())) == len(arrivals)
        if n_points:
            assert arrivals.max() <= n_points

    @given(
        capacity=st.integers(min_value=1, max_value=50),
        n_points=st.integers(min_value=0, max_value=500),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_biased_invariants(self, capacity, n_points, seed):
        res = ExponentialReservoir(capacity=capacity, rng=seed)
        inserted = res.extend(range(n_points))
        assert inserted == n_points  # deterministic insertion
        assert res.size <= capacity
        if n_points:
            # The newest point is always resident (it was just inserted).
            assert n_points in res.arrival_indices()

    @given(
        capacity=st.integers(min_value=2, max_value=40),
        p_in=st.floats(min_value=0.05, max_value=1.0),
        n_points=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_space_constrained_invariants(self, capacity, p_in, n_points, seed):
        res = SpaceConstrainedReservoir(
            capacity=capacity, p_in=p_in, rng=seed
        )
        res.extend(range(n_points))
        assert res.size <= capacity
        assert res.size == res.insertions - res.ejections
        assert res.lam == pytest.approx(p_in / capacity)

    @given(
        capacity=st.integers(min_value=2, max_value=30),
        n_points=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_variable_invariants(self, capacity, n_points, seed):
        lam = 1.0 / (capacity * 10)  # always space-constrained
        res = VariableReservoir(lam=lam, capacity=capacity, rng=seed)
        res.extend(range(n_points))
        assert res.size <= capacity
        assert res.target_p_in - 1e-12 <= res.p_in <= 1.0

    @given(
        window=st.integers(min_value=1, max_value=60),
        n_points=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_window_buffer_holds_exact_suffix(self, window, n_points):
        buf = WindowBuffer(window, rng=0)
        buf.extend(range(n_points))
        expected = list(range(max(0, n_points - window), n_points))
        assert sorted(buf.payloads()) == expected

    @given(
        slots=st.integers(min_value=1, max_value=10),
        window=st.integers(min_value=1, max_value=50),
        n_points=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_chain_sampler_within_window(self, slots, window, n_points, seed):
        cs = ChainSampler(slots, window=window, rng=seed)
        cs.extend(range(n_points))
        for entry in cs.entries():
            assert n_points - window < entry.arrival <= n_points


class TestQueryProperties:
    @given(
        horizon=st.integers(min_value=1, max_value=200),
        t=st.integers(min_value=1, max_value=200),
    )
    def test_horizon_coefficients_count(self, horizon, t):
        q = count_query(horizon)
        c = q.coefficients(np.arange(1, t + 1), t)
        assert int(c.sum()) == min(horizon, t)

    @given(
        t=st.integers(min_value=1, max_value=100),
        horizon=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
    )
    def test_coefficients_are_binary(self, t, horizon):
        q = count_query(horizon)
        c = q.coefficients(np.arange(1, t + 1), t)
        assert set(np.unique(c).tolist()) <= {0.0, 1.0}


class TestTheoryProperties:
    @given(
        n=st.integers(min_value=1, max_value=1000),
        p_in=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_fill_time_decreasing_in_p_in(self, n, p_in):
        assume(p_in < 1.0)
        faster = expected_points_to_fill(n, 1.0)
        slower = expected_points_to_fill(n, p_in)
        assert slower >= faster

    @given(
        n=st.integers(min_value=2, max_value=500),
        f1=st.floats(min_value=0.0, max_value=1.0),
        f2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_fraction_time_monotone(self, n, f1, f2):
        lo, hi = min(f1, f2), max(f1, f2)
        assert expected_points_to_fraction(
            n, lo
        ) <= expected_points_to_fraction(n, hi)

    @given(
        n=st.integers(min_value=1, max_value=500),
        p_in=st.floats(min_value=0.01, max_value=1.0),
        t=st.integers(min_value=0, max_value=10_000),
    )
    def test_trajectory_bounded_by_capacity(self, n, p_in, t):
        val = float(expected_fill_trajectory(n, p_in, t))
        assert 0.0 <= val < n + 1e-9
