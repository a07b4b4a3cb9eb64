"""Theorem 3.3 snapshots written by the list-backed layout still restore.

Before :class:`VariableReservoir` moved onto the
:class:`~repro.core.biased.ExponentialReservoir` array store, it kept its
residents in lists and its snapshots had no ``global_arrivals`` field.
The pickles under ``tests/data/parent_variable/`` were written by that
layout, together with what it reported about itself: entries, counters,
``p_in``, ``phase_history`` and the RNG state, and the pickled snapshot
taken after 150 more per-item offers. Restoring them must land on
exactly that state, and the per-item step is unchanged, so continuing
must reproduce the recorded snapshot byte for byte (less the
``global_arrivals`` field the array store adds).

Regenerate the fixtures by running this file as a script with the
writing release's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=<checkout>/src python tests/test_variable_compat.py OUT_DIR
"""

import pickle
import sys
from pathlib import Path

import pytest

from repro.core import VariableReservoir, from_state_dict

FIXTURES = Path(__file__).parent / "data" / "parent_variable"

#: Fixture name -> constructor arguments. ``q=0.5`` ejects half the
#: residents per phase, so that fixture also crosses the multi-victim
#: compaction path.
CONFIGS = {
    "default_q": {"lam": 1e-2, "capacity": 20},
    "halving_q": {"lam": 1e-3, "capacity": 20, "q": 0.5},
}


def _stream(lo, hi):
    """Ints, with every fifth payload a tuple (must stay whole)."""
    return [("x", i) if i % 5 == 0 else i for i in range(lo, hi)]


def _counters(sampler):
    return (sampler.t, sampler.offers, sampler.insertions, sampler.ejections)


def _entries(sampler):
    return [(int(e.arrival), e.payload) for e in sampler.entries()]


def _record(config):
    sampler = VariableReservoir(rng=11, **config)
    sampler.extend(_stream(0, 300))
    record = {
        "state": sampler.state_dict(),
        "entries": _entries(sampler),
        "counters": _counters(sampler),
        "p_in": sampler.p_in,
        "phase_history": list(sampler.phase_history),
        "rng_state": sampler.rng.bit_generator.state,
    }
    sampler.extend(_stream(300, 450))
    record["continued_snapshot"] = pickle.dumps(
        sampler.state_dict(), protocol=4
    )
    return record


def write_snapshots(out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, config in CONFIGS.items():
        with open(out / f"{name}.pkl", "wb") as fh:
            pickle.dump(_record(config), fh, protocol=4)


def _load(name):
    with open(FIXTURES / f"{name}.pkl", "rb") as fh:
        return pickle.load(fh)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fixture_uses_the_list_layout(name):
    state = _load(name)["state"]
    assert state["class"] == "VariableReservoir"
    assert "global_arrivals" not in state
    # Written mid-startup: some phases done, the target not yet reached.
    assert 1.0 > state["p_in"] > state["capacity"] * state["lam"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_restores_to_recorded_state(name):
    record = _load(name)
    sampler = from_state_dict(record["state"])
    assert type(sampler) is VariableReservoir
    assert _entries(sampler) == record["entries"]
    assert _counters(sampler) == record["counters"]
    assert sampler.p_in == record["p_in"]
    assert sampler.phase_history == record["phase_history"]
    assert sampler.rng.bit_generator.state == record["rng_state"]
    assert sampler.global_arrivals().tolist() == (
        sampler.arrival_indices().tolist()
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_per_item_continuation_matches_parent_bytes(name):
    record = _load(name)
    sampler = from_state_dict(record["state"])
    sampler.extend(_stream(300, 450))
    state = sampler.state_dict()
    assert state.pop("global_arrivals") == state["arrivals"]
    assert pickle.dumps(state, protocol=4) == record["continued_snapshot"]


if __name__ == "__main__":
    write_snapshots(sys.argv[1])
