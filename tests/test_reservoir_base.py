"""Tests for the shared ReservoirSampler machinery (storage, ops log)."""

import numpy as np
import pytest

from repro.core.biased import ExponentialReservoir
from repro.core.reservoir import SampleEntry
from repro.core.unbiased import UnbiasedReservoir
from repro.core.variable import VariableReservoir


def _filled_array_store(capacity, rng):
    """An array-store reservoir holding payloads ``0 .. capacity-1``."""
    res = ExponentialReservoir(capacity=capacity, rng=rng)
    res._restore_storage(
        {"payloads": list(range(capacity)),
         "arrivals": list(range(1, capacity + 1))}
    )
    res.t = res.offers = res.insertions = capacity
    return res


class TestStorageInvariants:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: UnbiasedReservoir(20, rng=0),
            lambda: ExponentialReservoir(capacity=20, rng=0),
            lambda: VariableReservoir(lam=1e-3, capacity=20, rng=0),
        ],
    )
    def test_counters_consistent(self, factory):
        res = factory()
        res.extend(range(5000))
        assert res.size == res.insertions - res.ejections
        assert res.offers == 5000
        assert res.t == 5000
        assert res.size <= res.capacity

    def test_arrivals_unique_and_in_range(self):
        res = ExponentialReservoir(capacity=50, rng=1)
        res.extend(range(2000))
        arrivals = res.arrival_indices()
        assert len(set(arrivals.tolist())) == len(arrivals)
        assert arrivals.min() >= 1
        assert arrivals.max() <= res.t

    def test_payloads_track_arrivals(self):
        """Payload i was offered at arrival i+1 (0-based range payloads)."""
        res = ExponentialReservoir(capacity=50, rng=2)
        res.extend(range(1000))
        for entry in res.entries():
            assert entry.payload == entry.arrival - 1

    def test_ages_non_negative(self):
        res = UnbiasedReservoir(10, rng=3)
        res.extend(range(100))
        assert (res.ages() >= 0).all()

    def test_len_and_iter(self):
        res = UnbiasedReservoir(10, rng=4)
        res.extend(range(5))
        assert len(res) == 5
        assert sorted(res) == [0, 1, 2, 3, 4]

    def test_payloads_returns_copy(self):
        res = UnbiasedReservoir(10, rng=5)
        res.extend(range(5))
        copy = res.payloads()
        copy.append("junk")
        assert len(res.payloads()) == 5

    def test_entries_are_sample_entries(self):
        res = UnbiasedReservoir(5, rng=6)
        res.extend(range(3))
        for e in res.entries():
            assert isinstance(e, SampleEntry)


class TestMutationLog:
    def test_append_ops_recorded(self):
        res = UnbiasedReservoir(5, rng=0)
        res.offer("a")
        assert res.last_ops == [("append", 0)]
        res.offer("b")
        assert res.last_ops == [("append", 1)]

    def test_rejected_offer_logs_nothing(self):
        res = UnbiasedReservoir(2, rng=0)
        res.extend(range(2))
        # Find an offer that is rejected and check the log is empty then.
        rejected_seen = False
        for i in range(200):
            inserted = res.offer(i)
            if not inserted:
                assert res.last_ops == []
                rejected_seen = True
                break
        assert rejected_seen

    def test_replace_op_names_slot(self):
        res = ExponentialReservoir(capacity=2, rng=1)
        res.extend(range(2))
        res.offer("x")
        ops = res.last_ops
        assert len(ops) == 1
        kind, slot = ops[0]
        assert kind == "replace"
        assert res.payloads()[slot] == "x"

    def test_compact_op_on_variable_phase(self):
        """VariableReservoir's phase ejection logs a compact record."""
        res = VariableReservoir(lam=1e-3, capacity=10, rng=2)
        saw_compact = False
        for i in range(200):
            res.offer(i)
            if any(op[0] == "compact" for op in res.last_ops):
                saw_compact = True
                break
        assert saw_compact

    def test_ops_cleared_between_offers(self):
        res = UnbiasedReservoir(3, rng=3)
        res.offer(1)
        res.offer(2)
        assert res.last_ops == [("append", 1)]  # only the latest offer

    def test_eject_random_zero_is_noop(self):
        res = _filled_array_store(5, rng=4)
        assert res._eject_random(0) == []
        assert res.size == 5

    def test_eject_random_returns_entries(self):
        res = _filled_array_store(5, rng=5)
        evicted = res._eject_random(2)
        assert len(evicted) == 2
        assert res.size == 3
        remaining = set(res.payloads())
        for e in evicted:
            assert e.payload not in remaining


class TestInclusionVectorFallback:
    def test_base_loop_matches_scalar(self):
        """The generic vectorized fallback must agree with the scalar."""
        res = VariableReservoir(lam=1e-3, capacity=20, rng=6)
        res.extend(range(500))
        # Use the base-class fallback path via ReservoirSampler directly.
        from repro.core.reservoir import ReservoirSampler

        r = np.array([10, 100, 499])
        fallback = ReservoirSampler.inclusion_probabilities(res, r)
        np.testing.assert_allclose(
            fallback, [res.inclusion_probability(int(x)) for x in r]
        )


class TestExtendContract:
    """`extend` returns the *stored* count, not the reservoir's net growth."""

    def test_exponential_counts_every_offer_even_when_ejecting(self):
        res = ExponentialReservoir(capacity=10, rng=7)
        assert res.extend(range(50)) == 50  # every offer stored
        assert res.size == 10  # ... but growth is bounded by capacity
        assert res.insertions - res.ejections == res.size

    def test_unbiased_counts_only_accepted_offers(self):
        res = UnbiasedReservoir(10, rng=8)
        stored = res.extend(range(500))
        assert stored == res.insertions
        assert 10 <= stored < 500

    def test_offer_many_follows_same_contract(self):
        res = ExponentialReservoir(capacity=10, rng=9)
        assert res.offer_many(range(50)) == 50
        assert res.size == 10


class TestEjectRandomMultiVictim:
    """The count > 1 path of `_eject_random` (bulk compaction)."""

    def test_victims_unique_and_counters_move(self):
        res = _filled_array_store(20, rng=10)
        ejections_before = res.ejections
        evicted = res._eject_random(7)
        assert len(evicted) == 7
        arrivals = [e.arrival for e in evicted]
        assert len(set(arrivals)) == 7  # without replacement
        assert res.size == 13
        assert res.ejections == ejections_before + 7
        # Survivors + evicted partition the original residents.
        assert set(res.payloads()) | {e.payload for e in evicted} == set(
            range(20)
        )
        assert not set(res.payloads()) & {e.payload for e in evicted}

    def test_count_capped_at_size(self):
        res = _filled_array_store(5, rng=11)
        evicted = res._eject_random(99)
        assert len(evicted) == 5
        assert res.size == 0

    def test_records_compact_for_consumers(self):
        res = _filled_array_store(20, rng=12)
        res._eject_random(4)
        assert ("compact",) in res.last_ops

    def test_knn_consumer_resnapshots_after_out_of_band_eject(self):
        """Counter-based sync: a direct multi-victim ejection must trigger
        a mirror rebuild at the next prediction."""
        from repro.mining.knn import ReservoirKnnClassifier
        from repro.streams.point import StreamPoint

        rng = np.random.default_rng(13)
        res = ExponentialReservoir(capacity=15, rng=13)
        clf = ReservoirKnnClassifier(res, k=1)
        for i in range(15):
            clf.observe(StreamPoint(i + 1, rng.normal(size=2), label=i % 2))
        res._eject_random(10)  # out-of-band: classifier not notified
        probe = StreamPoint(99, np.zeros(2), label=None)
        prediction = clf.predict(probe)
        fresh = ReservoirKnnClassifier(res, k=1)
        assert prediction == fresh.predict(probe)
        # The mirror now reflects the shrunken reservoir, not 15 rows.
        assert clf._rows == res.size


class TestInclusionAtStreamStartAllSamplers:
    """Regression: an empty inclusion query at t = 0 must work everywhere
    (ZeroDivisionError in the unbiased samplers before the fix)."""

    def test_empty_vector_before_any_offer(self):
        from repro.core import (
            ChainSampler,
            ExponentialBias,
            GeneralBiasSampler,
            SkipUnbiasedReservoir,
            SpaceConstrainedReservoir,
            TimeDecayReservoir,
            TimestampedExponentialReservoir,
            WindowBuffer,
        )

        fresh = [
            UnbiasedReservoir(10, rng=0),
            SkipUnbiasedReservoir(10, rng=0),
            ExponentialReservoir(capacity=10, rng=0),
            SpaceConstrainedReservoir(lam=1e-2, capacity=50, rng=0),
            VariableReservoir(lam=1e-2, capacity=50, rng=0),
            WindowBuffer(10, rng=0),
            ChainSampler(5, window=20, rng=0),
            GeneralBiasSampler(ExponentialBias(1e-2), target_size=10, rng=0),
            TimeDecayReservoir(lam_time=0.1, capacity=10, rng=0),
        ]
        for sampler in fresh:
            out = sampler.inclusion_probabilities(np.array([]))
            assert out.shape == (0,), type(sampler).__name__
        # The timestamped design is (timestamp, index)-addressed.
        ts = TimestampedExponentialReservoir(lam_time=0.1, capacity=10, rng=0)
        assert ts.inclusion_probabilities_at(np.array([])).shape == (0,)
