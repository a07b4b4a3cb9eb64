"""Algorithm 3.1 snapshots written by the list-backed layout still restore.

Before :class:`SpaceConstrainedReservoir` moved onto the
:class:`ExponentialReservoir` array store, it kept its residents in
lists, and a sharded space-constrained worker wrapped every payload as a
``(global_index, payload)`` tuple with no ``global_arrivals`` field. The
pickles under ``tests/data/parent_space_constrained/`` were written by
that layout, together with what it reported about itself: entries,
counters and RNG states. Restoring them must land on exactly that state.

The serial fixture also records the state after more per-item offers;
the per-item Algorithm 3.1 step is unchanged, so a restored sampler must
reach it byte for byte.

Regenerate the fixtures by running this file as a script with the
writing release's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=<checkout>/src python tests/test_space_constrained_compat.py OUT_DIR
"""

import pickle
import sys
from pathlib import Path

from repro.core import SpaceConstrainedReservoir, from_state_dict
from repro.shard import ShardedReservoir

FIXTURES = Path(__file__).parent / "data" / "parent_space_constrained"


def _stream(lo, hi):
    """Ints, with every fifth payload a tuple (must not be unwrapped)."""
    return [("x", i) if i % 5 == 0 else i for i in range(lo, hi)]


def _counters(sampler):
    return (sampler.t, sampler.offers, sampler.insertions, sampler.ejections)


def _entries(sampler):
    return [(int(e.arrival), e.payload) for e in sampler.entries()]


def _serial_record():
    sampler = SpaceConstrainedReservoir(capacity=20, p_in=0.4, rng=7)
    sampler.extend(_stream(0, 300))
    record = {
        "state": sampler.state_dict(),
        "entries": _entries(sampler),
        "counters": _counters(sampler),
        "rng_state": sampler.rng.bit_generator.state,
    }
    sampler.extend(_stream(300, 450))
    record["continued_entries"] = _entries(sampler)
    record["continued_counters"] = _counters(sampler)
    record["continued_rng_state"] = sampler.rng.bit_generator.state
    return record


def _sharded_record():
    facade = ShardedReservoir(
        capacity=24, workers=3, lam=0.5 / 24,
        family="space_constrained", rng=9,
    )
    for lo in range(0, 400, 37):
        facade.offer_many(_stream(lo, min(lo + 37, 400)))
    states = [w["sampler"] for w in facade.worker_states()]
    return {
        "state": facade.state_dict(),
        "entries": _entries(facade),
        "t": facade.t,
        "worker_counters": [
            (s["t"], s["offers"], s["insertions"], s["ejections"])
            for s in states
        ],
        "worker_rng_states": [s["rng_state"] for s in states],
    }


def write_snapshots(out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, record in (
        ("serial", _serial_record()),
        ("sharded", _sharded_record()),
    ):
        with open(out / f"{name}.pkl", "wb") as fh:
            pickle.dump(record, fh, protocol=4)


def _load(name):
    with open(FIXTURES / f"{name}.pkl", "rb") as fh:
        return pickle.load(fh)


class TestParentSerialSnapshot:
    def test_fixture_uses_the_list_layout(self):
        state = _load("serial")["state"]
        assert state["class"] == "SpaceConstrainedReservoir"
        assert "global_arrivals" not in state
        assert "requested_lam" not in state

    def test_restores_to_recorded_state(self):
        record = _load("serial")
        sampler = from_state_dict(record["state"])
        assert type(sampler) is SpaceConstrainedReservoir
        assert _entries(sampler) == record["entries"]
        assert _counters(sampler) == record["counters"]
        assert sampler.rng.bit_generator.state == record["rng_state"]
        assert sampler.global_arrivals().tolist() == (
            sampler.arrival_indices().tolist()
        )

    def test_per_item_continuation_matches_parent(self):
        record = _load("serial")
        sampler = from_state_dict(record["state"])
        sampler.extend(_stream(300, 450))
        assert _entries(sampler) == record["continued_entries"]
        assert _counters(sampler) == record["continued_counters"]
        assert sampler.rng.bit_generator.state == (
            record["continued_rng_state"]
        )


class TestParentShardedSnapshot:
    def test_fixture_uses_the_tuple_layout(self):
        state = _load("sharded")["state"]
        assert state["flush_size"] == 8192
        for worker in state["worker_states"]:
            sampler = worker["sampler"]
            assert sampler["class"] == "SpaceConstrainedReservoir"
            assert "global_arrivals" not in sampler
            assert all(isinstance(p, tuple) for p in sampler["payloads"])

    def test_restores_to_recorded_state(self):
        record = _load("sharded")
        facade = ShardedReservoir.from_state_dict(record["state"])
        assert facade.t == record["t"]
        assert _entries(facade) == record["entries"]
        states = [w["sampler"] for w in facade.worker_states()]
        assert [
            (s["t"], s["offers"], s["insertions"], s["ejections"])
            for s in states
        ] == record["worker_counters"]
        assert [s["rng_state"] for s in states] == record["worker_rng_states"]

    def test_restored_workers_carry_global_axis(self):
        record = _load("sharded")
        facade = ShardedReservoir.from_state_dict(record["state"])
        for state in facade.worker_states():
            sampler = state["sampler"]
            assert len(sampler["global_arrivals"]) == len(sampler["payloads"])
            assert not any(
                isinstance(p, tuple) and isinstance(p[0], int)
                for p in sampler["payloads"]
            )
        folded = facade.fold()
        assert sorted(map(repr, folded.payloads())) == sorted(
            repr(p) for _, p in record["entries"]
        )

    def test_restored_facade_keeps_ingesting(self):
        record = _load("sharded")
        facade = ShardedReservoir.from_state_dict(record["state"])
        facade.offer_many(_stream(400, 700))
        assert facade.t == 700
        entries = facade.entries()
        assert 0 < len(entries) <= facade.capacity
        for entry in entries:
            payload = entry.payload
            index = payload[1] if isinstance(payload, tuple) else payload
            assert entry.arrival == index + 1


if __name__ == "__main__":
    write_snapshots(sys.argv[1])
