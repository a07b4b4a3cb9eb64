"""Snapshot compatibility and snapshot validation.

Two guarantees:

* Journals and snapshots written before :class:`ExponentialReservoir`
  absorbed the shard kernel still restore. Sharded checkpoints of that
  layout name their workers' class ``ArrayExponentialShard``; serial
  ``ExponentialReservoir`` snapshots carry no ``global_arrivals`` field.
  The journals under ``tests/data/parent_journal/`` were written by that
  layout; recovering them must land on the state a fresh run of the
  current code reaches over the same offers, RNG state included.
* :func:`from_state_dict` rejects resident storage no live sampler could
  have produced, naming the offending field.

Regenerate the journals by running this file as a script with the
writing release's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=<checkout>/src python tests/test_snapshot_compat.py OUT_DIR
"""

import io
import pickle
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import ExponentialReservoir, UnbiasedReservoir, from_state_dict
from repro.persist import DurableReservoir
from repro.persist.checkpoint import load_latest_checkpoint
from repro.shard import ShardedReservoir
from repro.streams import StreamPoint

FIXTURES = Path(__file__).parent / "data" / "parent_journal"


def _canon(state):
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.fast = True  # no memo: compare state, not object sharing
    pickler.dump(state)
    return buffer.getvalue()


def _points(lo, hi):
    return [
        StreamPoint(i + 1, np.array([i * 0.5, -i]), None if i % 3 else i % 4)
        for i in range(lo, hi)
    ]


def _serial_sampler():
    return ExponentialReservoir(capacity=8, rng=42)


def _sharded_sampler():
    return ShardedReservoir(capacity=12, workers=3, rng=5)


def _serial_ops():
    """Per-item offers and blocks, ints then StreamPoints."""
    ops = []
    for i in range(0, 60, 6):
        ops.append(("o", i))
        ops.append(("b", list(range(i + 1, i + 6))))
    for lo in range(60, 90, 10):
        ops.append(("o", _points(lo, lo + 1)[0]))
        ops.append(("b", _points(lo + 1, lo + 10)))
    return ops


def _sharded_ops():
    """Int blocks, then StreamPoint blocks, then flushed single offers."""
    ops = [("b", list(range(i, i + 7))) for i in range(0, 84, 7)]
    ops += [("b", _points(lo, lo + 9)) for lo in range(84, 120, 9)]
    ops += [("o", i) for i in range(120, 125)]
    return ops


def _apply(target, ops):
    for op, data in ops:
        if op == "o":
            target.offer(data)
        else:
            target.offer_many(data)
    if isinstance(target, DurableReservoir):
        target.flush()


def write_journals(out_dir):
    """Write both fixture journals, abandoned without a final checkpoint."""
    for name, make, ops in (
        ("serial", _serial_sampler, _serial_ops()),
        ("sharded", _sharded_sampler, _sharded_ops()),
    ):
        engine = DurableReservoir(
            make(),
            Path(out_dir) / name,
            wal_sync="never",
            checkpoint_every_records=5,
        )
        _apply(engine, ops)
        engine.close(final_checkpoint=False)


def _recover_fixture(name, tmp_path):
    journal = tmp_path / name
    shutil.copytree(FIXTURES / name, journal)
    return DurableReservoir.recover(journal, wal_sync="never")


class TestParentJournals:
    def test_fixtures_use_the_parent_layout(self):
        _, serial = load_latest_checkpoint(FIXTURES / "serial")
        assert serial["sampler"]["class"] == "ExponentialReservoir"
        assert "global_arrivals" not in serial["sampler"]
        _, sharded = load_latest_checkpoint(FIXTURES / "sharded")
        workers = sharded["sampler"]["worker_states"]
        assert {w["sampler"]["class"] for w in workers} == {
            "ArrayExponentialShard"
        }
        assert all(w["sampler"]["payloads"] for w in workers)

    def test_serial_journal_recovers_to_fresh_run(self, tmp_path):
        recovered = _recover_fixture("serial", tmp_path)
        fresh = _serial_sampler()
        _apply(fresh, _serial_ops())
        assert recovered.last_recovery.records_replayed > 0
        assert _canon(recovered.state_dict()) == _canon(fresh.state_dict())
        sampler = recovered.sampler
        assert (
            sampler.global_arrivals().tolist()
            == sampler.arrival_indices().tolist()
        )
        more = [("b", list(range(500, 537))), ("o", 537)]
        _apply(recovered, more)
        _apply(fresh, more)
        assert _canon(recovered.state_dict()) == _canon(fresh.state_dict())
        recovered.close(final_checkpoint=False)

    def test_sharded_journal_recovers_to_fresh_run(self, tmp_path):
        recovered = _recover_fixture("sharded", tmp_path)
        fresh = _sharded_sampler()
        _apply(fresh, _sharded_ops())
        fresh.flush()
        assert recovered.last_recovery.records_replayed > 0
        assert _canon(recovered.state_dict()) == _canon(fresh.state_dict())
        more = [("b", list(range(500, 541)))]
        _apply(recovered, more)
        _apply(fresh, more)
        assert _canon(recovered.state_dict()) == _canon(fresh.state_dict())
        recovered.close(final_checkpoint=False)


class TestGlobalArrivalsField:
    def test_state_dict_always_carries_global_arrivals(self):
        sampler = ExponentialReservoir(capacity=10, rng=1)
        assert sampler.state_dict()["global_arrivals"] == []
        sampler.offer_many(range(25))
        state = sampler.state_dict()
        assert state["global_arrivals"] == state["arrivals"]

    def test_missing_global_arrivals_restore_as_arrivals(self):
        reference = ExponentialReservoir(capacity=10, rng=3)
        reference.offer_many(range(40))
        state = reference.state_dict()
        del state["global_arrivals"]
        restored = from_state_dict(state)
        assert restored.global_arrivals().tolist() == state["arrivals"]
        restored.offer_many(range(40, 70))
        reference.offer_many(range(40, 70))
        assert restored.state_dict() == reference.state_dict()

    def test_shard_global_arrivals_round_trip(self):
        shard = ExponentialReservoir(capacity=6, rng=4)
        shard.ingest(
            np.array(list("abcdefghij"), dtype=object), np.arange(3, 33, 3)
        )
        restored = from_state_dict(shard.state_dict())
        assert restored.global_arrivals().tolist() == (
            shard.global_arrivals().tolist()
        )
        assert set(shard.global_arrivals().tolist()) <= set(range(3, 33, 3))


def _snapshot():
    sampler = ExponentialReservoir(capacity=3, rng=0)
    sampler.offer_many(range(5))
    return sampler.state_dict()


def _raises(state, *fragments):
    with pytest.raises(ValueError) as info:
        from_state_dict(state)
    for fragment in fragments:
        assert fragment in str(info.value)


class TestMalformedStorage:
    def test_payloads_and_arrivals_lengths_differ(self):
        state = _snapshot()
        state["payloads"] = list(range(7))
        state["arrivals"] = [1, 2]
        _raises(state, "'arrivals'", "'payloads'")

    def test_global_arrivals_length_differs(self):
        state = _snapshot()
        state["global_arrivals"] = state["global_arrivals"][:-1]
        _raises(state, "'global_arrivals'")

    def test_more_residents_than_capacity(self):
        state = _snapshot()
        state["payloads"] = list(range(7))
        state["arrivals"] = [1, 2, 3, 4, 5, 5, 5]
        state["global_arrivals"] = list(state["arrivals"])
        _raises(state, "'payloads'", "capacity 3")

    def test_arrival_outside_stream(self):
        for bad in (0, 6):
            state = _snapshot()
            state["arrivals"][0] = bad
            _raises(state, "'arrivals'", "[1, 5]")

    def test_list_storage_is_checked_too(self):
        sampler = UnbiasedReservoir(3, rng=0)
        sampler.offer_many(range(5))
        state = sampler.state_dict()
        state["payloads"].append(99)
        _raises(state, "'arrivals'", "'payloads'")


if __name__ == "__main__":
    write_journals(sys.argv[1])
