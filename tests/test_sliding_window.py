"""Tests for the sliding-window baselines (WindowBuffer, ChainSampler)."""

import numpy as np
import pytest

from repro.core.sliding_window import ChainSampler, WindowBuffer


class TestWindowBuffer:
    def test_holds_exactly_the_window(self):
        buf = WindowBuffer(10, rng=0)
        buf.extend(range(25))
        assert sorted(buf.payloads()) == list(range(15, 25))

    def test_partial_window(self):
        buf = WindowBuffer(10, rng=0)
        buf.extend(range(4))
        assert sorted(buf.payloads()) == [0, 1, 2, 3]

    def test_arrivals_match_window(self):
        buf = WindowBuffer(5, rng=0)
        buf.extend(range(12))
        assert sorted(buf.arrival_indices().tolist()) == [8, 9, 10, 11, 12]

    def test_fifo_eviction_order(self):
        buf = WindowBuffer(3, rng=0)
        for i in range(7):
            buf.offer(i)
            ages = buf.ages()
            assert ages.max() <= 2  # nothing older than the window survives

    def test_inclusion_probability_indicator(self):
        buf = WindowBuffer(10, rng=0)
        buf.extend(range(30))
        assert buf.inclusion_probability(30) == 1.0
        assert buf.inclusion_probability(21) == 1.0
        assert buf.inclusion_probability(20) == 0.0
        assert buf.inclusion_probability(1) == 0.0

    def test_every_offer_inserted(self):
        buf = WindowBuffer(10, rng=0)
        assert buf.extend(range(100)) == 100


class TestChainSampler:
    def test_size_counts_nonempty_chains(self):
        cs = ChainSampler(20, window=100, rng=0)
        cs.extend(range(500))
        assert cs.size == 20  # all chains populated after warm-up

    def test_samples_always_inside_window(self):
        cs = ChainSampler(10, window=50, rng=1)
        for i in range(300):
            cs.offer(i)
            for entry in cs.entries():
                assert entry.arrival > cs.t - 50
                assert entry.arrival <= cs.t

    @pytest.mark.statistical
    def test_uniform_over_window(self):
        """Each slot holds a uniform member of the window (Babcock et al.)."""
        window, reps = 40, 3000
        counts = np.zeros(window)
        for seed in range(reps):
            cs = ChainSampler(1, window=window, rng=seed)
            cs.extend(range(200))
            entry = cs.entries()[0]
            counts[cs.t - entry.arrival] += 1
        freq = counts / reps
        # Each age has probability 1/window = 0.025; sd ~ 0.0029.
        np.testing.assert_allclose(freq, 1 / window, atol=0.012)

    @pytest.mark.statistical
    def test_mean_age_is_half_window(self):
        window = 100
        ages = []
        for seed in range(50):
            cs = ChainSampler(20, window=window, rng=seed)
            cs.extend(range(1000))
            ages.extend((cs.t - cs.arrival_indices()).tolist())
        assert np.mean(ages) == pytest.approx((window - 1) / 2, rel=0.1)

    def test_memory_footprint_is_bounded(self):
        """Expected chain length is O(1); total links stay near capacity."""
        cs = ChainSampler(50, window=1000, rng=2)
        cs.extend(range(20_000))
        assert cs.memory_footprint() < 50 * 8  # far below window size

    def test_inclusion_probability_model(self):
        cs = ChainSampler(10, window=100, rng=3)
        cs.extend(range(500))
        assert cs.inclusion_probability(500) == pytest.approx(0.01)
        assert cs.inclusion_probability(300) == 0.0

    def test_inclusion_before_window_full(self):
        cs = ChainSampler(5, window=100, rng=4)
        cs.extend(range(20))
        assert cs.inclusion_probability(10) == pytest.approx(1 / 20)

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            ChainSampler(5, window=0)

    def test_payloads_match_entries(self):
        cs = ChainSampler(5, window=50, rng=5)
        cs.extend(range(200))
        assert cs.payloads() == [e.payload for e in cs.entries()]

    def test_iteration(self):
        cs = ChainSampler(5, window=50, rng=6)
        cs.extend(range(100))
        assert list(cs) == cs.payloads()


class TestChainSamplerBaseApi:
    def test_fill_fraction_uses_overridden_size(self):
        """The base-class fill metrics must reflect chain storage."""
        cs = ChainSampler(10, window=100, rng=20)
        cs.extend(range(500))
        assert cs.fill_fraction == cs.size / cs.capacity
        assert cs.fill_fraction > 0.0
        assert cs.is_full == (cs.size >= cs.capacity)

    def test_ages_consistent_with_entries(self):
        cs = ChainSampler(5, window=50, rng=21)
        cs.extend(range(200))
        ages = cs.ages()
        assert ages.shape[0] == cs.size
        assert (ages >= 0).all()
        assert (ages < 50).all()

    def test_global_arrivals_are_the_chain_heads(self):
        """Chains leave the shared array store empty; the global axis of
        a stand-alone sampler is its arrival axis."""
        cs = ChainSampler(5, window=50, rng=22)
        cs.extend(range(200))
        assert cs.global_arrivals().tolist() == cs.arrival_indices().tolist()
        assert cs.global_arrivals().size == cs.size > 0
