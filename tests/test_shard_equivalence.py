"""Sharded-engine correctness: seeded equivalence, folds, and routing.

The load-bearing guarantees:

* At ``W = 1`` the facade is *byte-identical* to the serial sampler it
  wraps — same residents, same counters, same RNG state — for both
  partitioners and both shard families (the facade's only job is
  routing, and with one worker there is nothing to route).
* With the same seed the facade is deterministic, and ``fold()`` at the
  facade's own capacity is a pure union of the shard samples.
* Global arrival bookkeeping survives partitioning: every resident's
  global index identifies the original stream position.
* A mid-stream facade snapshot restores into an equivalent engine, and a
  snapshot no live facade could have written is rejected by field name.

Equivalence runs use matching ``offer_many`` block boundaries on both
sides: the virtual-slot kernel re-canonicalizes slot order per block
during prefill, so block boundaries are part of the byte-level contract
(the *distribution* is boundary-invariant; the storage order is not).
"""

import numpy as np
import pytest

from repro.core import ExponentialReservoir, SpaceConstrainedReservoir
from repro.shard import (
    HashByKeyPartitioner,
    RoundRobinPartitioner,
    ShardedReservoir,
)

BLOCK = 97  # deliberately not a divisor of the stream length


def _stream(length):
    return list(range(1000, 1000 + length))


def _feed_blocks(sampler, points):
    for lo in range(0, len(points), BLOCK):
        sampler.offer_many(points[lo : lo + BLOCK])


def _worker_rng(seed, index, workers=1):
    """The generator the facade hands worker ``index`` for this seed."""
    return np.random.default_rng(
        np.random.SeedSequence(seed).spawn(workers + 1)[index]
    )


class TestSingleWorkerEquivalence:
    @pytest.mark.parametrize("partitioner_cls", [
        RoundRobinPartitioner, HashByKeyPartitioner,
    ])
    def test_exponential_w1_matches_serial(self, partitioner_cls):
        points = _stream(700)
        serial = ExponentialReservoir(capacity=48, rng=_worker_rng(11, 0))
        fac = ShardedReservoir(
            capacity=48, workers=1, rng=11,
            partitioner=partitioner_cls(1),
        )
        _feed_blocks(serial, points)
        _feed_blocks(fac, points)
        assert fac.payloads() == serial.payloads()
        assert list(fac.arrival_indices()) == list(serial.arrival_indices())
        assert fac.t == serial.t
        shard = fac._workers[0].sampler
        assert shard.rng.bit_generator.state == serial.rng.bit_generator.state
        assert (shard.offers, shard.insertions, shard.ejections) == (
            serial.offers, serial.insertions, serial.ejections
        )

    def test_space_constrained_w1_matches_serial(self):
        points = _stream(900)
        serial = SpaceConstrainedReservoir(
            capacity=40, p_in=0.5, rng=_worker_rng(5, 0)
        )
        fac = ShardedReservoir(
            capacity=40, workers=1, lam=0.5 / 40,
            family="space_constrained", rng=5,
        )
        _feed_blocks(serial, points)
        _feed_blocks(fac, points)
        assert fac.payloads() == serial.payloads()
        assert list(fac.arrival_indices()) == list(serial.arrival_indices())


class TestShardedFacade:
    def test_same_seed_same_sample(self):
        points = _stream(800)
        a = ShardedReservoir(capacity=48, workers=4, rng=21)
        b = ShardedReservoir(capacity=48, workers=4, rng=21)
        _feed_blocks(a, points)
        _feed_blocks(b, points)
        assert a.payloads() == b.payloads()
        assert list(a.arrival_indices()) == list(b.arrival_indices())

    def test_global_arrivals_identify_stream_positions(self):
        fac = ShardedReservoir(capacity=48, workers=4, rng=2)
        fac.offer_many(range(1000, 1600))
        for entry in fac.entries():
            # Payload 1000 + i arrived as global index i + 1.
            assert entry.payload - 1000 + 1 == entry.arrival

    def test_per_item_offer_matches_offer_many_after_flush(self):
        """Buffered singles drain through the same kernel path."""
        points = _stream(500)
        singles = ShardedReservoir(capacity=48, workers=4, rng=13)
        for p in points:
            singles.offer(p)
        singles.flush()
        batched = ShardedReservoir(capacity=48, workers=4, rng=13)
        batched.offer_many(points)  # one block == one flushed buffer
        assert singles.payloads() == batched.payloads()

    def test_size_sums_workers_with_buffers_pending(self):
        """``size``, ``len`` and ``is_full`` flush the per-item buffers
        and count the workers' residents without boxing them."""
        sharded = ShardedReservoir(capacity=42, workers=3, rng=0)
        sharded.offer_many(range(20))
        for i in range(20, 27):
            sharded.offer(i)
        assert any(sharded._buf_payloads)
        size = sharded.size
        assert size == len(sharded.entries())
        assert not any(sharded._buf_payloads)
        for i in range(27, 2000):
            sharded.offer(i)
        assert any(sharded._buf_payloads)
        assert len(sharded) == len(sharded.entries()) == 42
        assert sharded.is_full

    def test_hash_partitioner_routes_by_key(self):
        part = HashByKeyPartitioner(4)
        fac = ShardedReservoir(
            capacity=48, workers=4, rng=8, partitioner=part
        )
        fac.offer_many(_stream(400))
        for w, worker in enumerate(fac._workers):
            for payload in worker.sampler.payloads():
                assert part.assign(0, payload) == w

    def test_inclusion_probability_round_robin_exact(self):
        fac = ShardedReservoir(capacity=48, workers=4, rng=0)
        fac.offer_many(range(240))
        m, W, t = 12, 4, 240
        r = np.arange(1, t + 1)
        expected = (1.0 - 1.0 / m) ** ((t - r) // W)
        assert np.allclose(fac.inclusion_probabilities(r), expected)
        assert fac.inclusion_probability(t) == 1.0
        with pytest.raises(ValueError):
            fac.inclusion_probability(0)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="multiple"):
            ShardedReservoir(capacity=50, workers=4)
        with pytest.raises(ValueError, match="family"):
            ShardedReservoir(capacity=48, workers=4, family="nope")
        with pytest.raises(ValueError, match="requires lam"):
            ShardedReservoir(
                capacity=48, workers=4, family="space_constrained"
            )
        with pytest.raises(ValueError, match="exceeds the natural size"):
            ShardedReservoir(
                capacity=48, workers=4, lam=0.5,
                family="space_constrained",
            )
        with pytest.raises(ValueError, match="partitioner routes"):
            ShardedReservoir(
                capacity=48, workers=4,
                partitioner=RoundRobinPartitioner(2),
            )


class TestFold:
    def test_fold_at_own_capacity_is_pure_union(self):
        fac = ShardedReservoir(capacity=48, workers=4, rng=17)
        fac.offer_many(_stream(600))
        folded = fac.fold()
        assert sorted(folded.payloads()) == sorted(fac.payloads())
        assert folded.capacity == 48
        # Union of full shards on the global axis keeps the global rate.
        assert folded.lam == pytest.approx(fac.lam)

    def test_fold_to_smaller_capacity_thins(self):
        fac = ShardedReservoir(capacity=48, workers=4, rng=17)
        fac.offer_many(_stream(600))
        folded = fac.fold(capacity=12)
        assert folded.capacity == 12
        assert folded.size <= 12
        assert folded.p_in == pytest.approx(12 * fac.lam)
        assert set(folded.payloads()) <= set(fac.payloads())

    def test_fold_arrivals_stay_on_global_axis(self):
        fac = ShardedReservoir(capacity=48, workers=4, rng=29)
        fac.offer_many(range(1000, 1600))
        folded = fac.fold()
        for arrival, payload in zip(
            folded.arrival_indices(), folded.payloads()
        ):
            assert int(arrival) == payload - 1000 + 1

    def test_fold_is_seeded_and_repeatable(self):
        def build():
            fac = ShardedReservoir(capacity=48, workers=4, rng=31)
            fac.offer_many(_stream(600))
            return fac

        assert sorted(build().fold(capacity=12).payloads()) == sorted(
            build().fold(capacity=12).payloads()
        )


class TestBackendsAndSnapshots:
    def test_process_backend_is_rejected(self):
        with pytest.raises(ValueError, match="backend 'process'"):
            ShardedReservoir(capacity=48, workers=4, backend="process")
        fac = ShardedReservoir(capacity=48, workers=4, backend="inline")
        assert fac.worker_states()[0]["sampler"]["offers"] == 0

    def test_facade_snapshot_restore_continue_matches(self):
        points = _stream(800)
        uninterrupted = ShardedReservoir(capacity=48, workers=4, rng=23)
        checkpointed = ShardedReservoir(capacity=48, workers=4, rng=23)
        _feed_blocks(uninterrupted, points[:400])
        _feed_blocks(checkpointed, points[:400])
        restored = ShardedReservoir.from_state_dict(
            checkpointed.state_dict()
        )
        _feed_blocks(uninterrupted, points[400:])
        _feed_blocks(restored, points[400:])
        assert restored.payloads() == uninterrupted.payloads()
        assert list(restored.arrival_indices()) == list(
            uninterrupted.arrival_indices()
        )
        assert restored.t == uninterrupted.t
        # The fold stream also resumes identically.
        assert sorted(restored.fold(capacity=12).payloads()) == sorted(
            uninterrupted.fold(capacity=12).payloads()
        )

    def test_snapshot_rejects_foreign_state(self):
        with pytest.raises(ValueError, match="snapshot"):
            ShardedReservoir.from_state_dict({"class": "Other"})

    def test_snapshot_without_flush_size_field(self):
        fac = ShardedReservoir(capacity=48, workers=4, rng=3)
        fac.offer(7)
        state = fac.state_dict()
        assert "flush_size" not in state
        state["flush_size"] = 8192  # written by earlier releases
        restored = ShardedReservoir.from_state_dict(state)
        assert restored.entries() == fac.entries()


    @staticmethod
    def _routes(facade):
        return [facade.partitioner.assign(0, p) for p in range(100, 110)]

    def test_custom_hash_key_is_not_restored_as_default(self):
        """A snapshot cannot hold a key callable, so it names the class
        and a restore without the partitioner is refused rather than
        routing later offers by the default key."""

        def key(payload):
            return payload % 2

        def make(partitioner):
            return ShardedReservoir(
                capacity=48, workers=2, rng=29, partitioner=partitioner
            )

        live = make(HashByKeyPartitioner(2, key=key))
        _feed_blocks(live, _stream(300))
        state = live.state_dict()
        assert state["partitioner"] == "HashByKeyPartitioner"
        with pytest.raises(
            ValueError, match="cannot rebuild partitioner 'HashByKeyPartitioner'"
        ):
            ShardedReservoir.from_state_dict(state)
        restored = ShardedReservoir.from_state_dict(
            state, partitioner=HashByKeyPartitioner(2, key=key)
        )
        assert self._routes(restored) == self._routes(live)
        _feed_blocks(live, _stream(200))
        _feed_blocks(restored, _stream(200))
        assert restored.payloads() == live.payloads()

    def test_default_hash_key_restores_unaided(self):
        live = ShardedReservoir(
            capacity=48, workers=2, rng=31,
            partitioner=HashByKeyPartitioner(2),
        )
        _feed_blocks(live, _stream(300))
        state = live.state_dict()
        assert state["partitioner"] == "hash"
        restored = ShardedReservoir.from_state_dict(state)
        assert restored.partitioner.key is None
        assert self._routes(restored) == self._routes(live)
        _feed_blocks(live, _stream(200))
        _feed_blocks(restored, _stream(200))
        assert restored.payloads() == live.payloads()


def _facade_snapshot(family="exponential"):
    lam = 0.5 / 40 if family == "space_constrained" else None
    fac = ShardedReservoir(
        capacity=40, workers=4, lam=lam, family=family, rng=37
    )
    fac.offer_many(_stream(300))
    return fac.state_dict()


class TestMalformedFacadeSnapshots:
    def test_worker_count_mismatch(self):
        state = _facade_snapshot()
        state["worker_states"] = state["worker_states"][:3]
        with pytest.raises(ValueError, match="'worker_states' has 3"):
            ShardedReservoir.from_state_dict(state)

    def test_worker_capacity_mismatch(self):
        state = _facade_snapshot()
        state["worker_states"][1] = {
            "sampler": ExponentialReservoir(capacity=25, rng=1).state_dict()
        }
        with pytest.raises(ValueError, match="entry 1 has capacity 25"):
            ShardedReservoir.from_state_dict(state)

    @pytest.mark.parametrize("family, other", [
        ("exponential", SpaceConstrainedReservoir(capacity=10, p_in=0.5)),
        ("space_constrained", ExponentialReservoir(capacity=10)),
    ])
    def test_worker_family_mismatch(self, family, other):
        state = _facade_snapshot(family)
        state["worker_states"][2] = {"sampler": other.state_dict()}
        with pytest.raises(ValueError, match="entry 2 holds a"):
            ShardedReservoir.from_state_dict(state)
