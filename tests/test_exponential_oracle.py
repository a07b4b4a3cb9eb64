"""Algorithm 2.1 block kernel against its list-based oracle.

:class:`ListOracle` is the virtual-slot block step written the direct
way: two ``np.unique`` passes find each slot's first and last writer,
and a Python loop writes residents into parallel lists. It draws the same
single bulk victim vector per block as
:meth:`ExponentialReservoir.offer_many`, so the scatter kernel must
reproduce it exactly: residents in storage order, arrivals, counters and
RNG state, through prefill and steady state, for every block size.
Algorithm 3.1 at ``p_in = 1`` must be byte-identical to it on every path.

This suite asserts exact RNG-path equivalence, so CI runs it with
``-p no:randomly``.
"""

import numpy as np
import pytest

from repro.core import ExponentialReservoir, SpaceConstrainedReservoir
from repro.streams import StreamPoint

CAPACITY = 40
STREAM = 12 * CAPACITY  # long enough to fill the reservoir at every size


class ListOracle:
    """Algorithm 2.1 over a block, on lists, via two ``np.unique`` passes."""

    def __init__(self, capacity, rng):
        self.capacity = capacity
        self.rng = np.random.default_rng(rng)
        self.payloads = []
        self.arrivals = []
        self.t = self.offers = self.insertions = self.ejections = 0

    def offer_many(self, block):
        n = self.capacity
        b = len(block)
        t0 = self.t
        s0 = len(self.payloads)
        victims = self.rng.integers(0, n, size=b)
        uniq, first_pos = np.unique(victims, return_index=True)
        last_pos = b - 1 - np.unique(victims[::-1], return_index=True)[1]
        existing = uniq < s0
        for slot, w in zip(
            uniq[existing].tolist(), last_pos[existing].tolist()
        ):
            self.payloads[slot] = block[w]
            self.arrivals[slot] = t0 + w + 1
        new_mask = ~existing
        order = np.argsort(first_pos[new_mask], kind="stable")
        for w in last_pos[new_mask][order].tolist():
            self.payloads.append(block[w])
            self.arrivals.append(t0 + w + 1)
        self.t = t0 + b
        self.offers += b
        self.insertions += b
        self.ejections += b - int(new_mask.sum())


def _payloads(kind):
    if kind == "int":
        return list(range(1000, 1000 + STREAM))
    if kind == "tuple":
        return [(i, -i) for i in range(STREAM)]
    return [
        StreamPoint(i + 1, np.array([i * 0.25, -i]), label=i % 3)
        for i in range(STREAM)
    ]


def _assert_same(sampler, oracle):
    payloads = sampler.payloads()
    assert len(payloads) == len(oracle.payloads)
    assert all(a is b for a, b in zip(payloads, oracle.payloads))
    assert sampler.arrival_indices().tolist() == oracle.arrivals
    assert sampler.global_arrivals().tolist() == oracle.arrivals
    assert (
        sampler.t,
        sampler.offers,
        sampler.insertions,
        sampler.ejections,
    ) == (oracle.t, oracle.offers, oracle.insertions, oracle.ejections)
    assert sampler.rng.bit_generator.state == oracle.rng.bit_generator.state


@pytest.mark.parametrize("kind", ["int", "tuple", "streampoint"])
@pytest.mark.parametrize(
    "block", [1, 7, 97, CAPACITY, 3 * CAPACITY], ids=lambda b: f"b{b}"
)
def test_offer_many_matches_oracle(kind, block):
    stream = _payloads(kind)
    sampler = ExponentialReservoir(capacity=CAPACITY, rng=17)
    oracle = ListOracle(CAPACITY, 17)
    saw_partial = False
    for lo in range(0, STREAM, block):
        chunk = stream[lo : lo + block]
        saw_partial |= not sampler.is_full
        sampler.offer_many(chunk)
        oracle.offer_many(chunk)
        _assert_same(sampler, oracle)
    assert saw_partial and sampler.is_full  # prefill and steady state


def test_ingest_matches_oracle_and_keeps_global_indices():
    """``ingest`` is the same kernel; only the global axis differs."""
    stream = _payloads("int")
    sampler = ExponentialReservoir(capacity=CAPACITY, rng=5)
    oracle = ListOracle(CAPACITY, 5)
    for lo in range(0, STREAM, 33):
        chunk = stream[lo : lo + 33]
        globs = 3 * np.arange(lo, lo + len(chunk)) + 2
        arr = np.empty(len(chunk), dtype=object)
        arr[:] = chunk
        assert sampler.ingest(arr, globs) == len(chunk)
        oracle.offer_many(chunk)
    assert sampler.payloads() == oracle.payloads
    assert sampler.arrival_indices().tolist() == oracle.arrivals
    assert sampler.global_arrivals().tolist() == [
        3 * (a - 1) + 2 for a in oracle.arrivals
    ]
    assert sampler.rng.bit_generator.state == oracle.rng.bit_generator.state


def _state_bytes(sampler):
    """Everything but the class name, as comparable plain data."""
    state = sampler.state_dict()
    for field in ("class", "module", "requested_lam", "p_in"):
        state.pop(field, None)
    return state


@pytest.mark.parametrize("path", ["offer", "offer_many", "ingest"])
def test_space_constrained_at_p_in_one_is_algorithm_2_1(path):
    """Algorithm 3.1 with ``p_in = 1`` draws no gate coins: every path
    leaves it byte-identical to :class:`ExponentialReservoir`."""
    stream = _payloads("tuple")
    plain = ExponentialReservoir(capacity=CAPACITY, rng=23)
    gated = SpaceConstrainedReservoir(capacity=CAPACITY, p_in=1.0, rng=23)
    for lo in range(0, STREAM, 37):
        chunk = stream[lo : lo + 37]
        for sampler in (plain, gated):
            if path == "offer":
                assert sampler.extend(chunk) == len(chunk)
            elif path == "offer_many":
                assert sampler.offer_many(chunk) == len(chunk)
            else:
                arr = np.empty(len(chunk), dtype=object)
                arr[:] = chunk
                globs = 2 * np.arange(lo, lo + len(chunk)) + 1
                assert sampler.ingest(arr, globs) == len(chunk)
        assert _state_bytes(gated) == _state_bytes(plain)
        assert gated.last_ops == plain.last_ops
    r = np.arange(1, STREAM + 1)
    assert np.array_equal(
        gated.inclusion_probabilities(r), plain.inclusion_probabilities(r)
    )
    assert gated.survival_probability(9) == plain.survival_probability(9)
