"""Per-item Algorithm 3.1 against its list-based oracle.

:class:`ListOracle` is the Algorithm 3.1 step as it was written before
:class:`SpaceConstrainedReservoir` moved onto the Algorithm 2.1 array
store: a ``p_in`` gate coin (skipped when ``p_in == 1``), then an
``F(t)`` eject coin and a uniform victim over parallel Python lists. The
per-item path (``offer`` and ``extend``) must reproduce it exactly:
residents in storage order, arrivals, counters, mutation records and RNG
state, for every seed.

This suite asserts exact RNG-path equivalence, so CI runs it with
``-p no:randomly``.
"""

import numpy as np
import pytest

from repro.core import SpaceConstrainedReservoir

CAPACITY = 20
STREAM = 100 * CAPACITY  # fills the reservoir even at p_in = 0.1


class ListOracle:
    """Algorithm 3.1, one arrival at a time, on parallel lists."""

    def __init__(self, capacity, p_in, rng):
        self.capacity = capacity
        self.p_in = p_in
        self.rng = np.random.default_rng(rng)
        self.payloads = []
        self.arrivals = []
        self.t = self.offers = self.insertions = self.ejections = 0
        self.last_ops = []

    def offer(self, payload):
        size = len(self.payloads)
        self.t += 1
        self.offers += 1
        self.last_ops = []
        if self.p_in < 1.0 and self.rng.random() >= self.p_in:
            return False
        if size >= self.capacity or self.rng.random() < size / self.capacity:
            slot = int(self.rng.integers(size))
            self.payloads[slot] = payload
            self.arrivals[slot] = self.t
            self.ejections += 1
            self.last_ops = [("replace", slot)]
        else:
            self.payloads.append(payload)
            self.arrivals.append(self.t)
            self.last_ops = [("append", size)]
        self.insertions += 1
        return True


def _assert_same(sampler, oracle):
    assert sampler.payloads() == oracle.payloads
    assert sampler.arrival_indices().tolist() == oracle.arrivals
    assert sampler.global_arrivals().tolist() == oracle.arrivals
    assert (
        sampler.t,
        sampler.offers,
        sampler.insertions,
        sampler.ejections,
    ) == (oracle.t, oracle.offers, oracle.insertions, oracle.ejections)
    assert sampler.rng.bit_generator.state == oracle.rng.bit_generator.state


@pytest.mark.parametrize("p_in", [0.1, 0.4, 1.0])
@pytest.mark.parametrize("seed", range(20))
def test_offer_matches_oracle(seed, p_in):
    sampler = SpaceConstrainedReservoir(capacity=CAPACITY, p_in=p_in, rng=seed)
    oracle = ListOracle(CAPACITY, p_in, seed)
    for x in range(STREAM):
        assert sampler.offer(x) == oracle.offer(x)
        assert sampler.last_ops == oracle.last_ops
        if x % 100 == 0:
            _assert_same(sampler, oracle)
    _assert_same(sampler, oracle)
    assert sampler.is_full


@pytest.mark.parametrize("p_in", [0.1, 0.4, 1.0])
def test_extend_matches_oracle(p_in):
    sampler = SpaceConstrainedReservoir(capacity=CAPACITY, p_in=p_in, rng=3)
    oracle = ListOracle(CAPACITY, p_in, 3)
    payloads = [(i, -i) for i in range(STREAM)]  # tuples stay whole
    stored = sum(oracle.offer(p) for p in payloads)
    assert sampler.extend(payloads) == stored
    _assert_same(sampler, oracle)
