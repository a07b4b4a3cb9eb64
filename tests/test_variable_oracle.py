"""Per-item Theorem 3.3 against its list-based oracle.

:class:`ListOracle` is the variable-reservoir step as it was written
before :class:`VariableReservoir` moved onto the Algorithm 2.1 array
store: an insertion coin against ``p_in``, then an ``F(t)`` coin against
the fictitious capacity ``p_in / lambda`` and a uniform victim over
parallel Python lists, then a phase transition (``p_in`` times ``q``,
uniform ejections: swap-remove for one victim, an order-preserving
filter for more) whenever the physical limit is hit. The per-item path
(``offer`` and ``extend``) must reproduce it exactly: residents in
storage order, arrivals, counters, ``p_in``, ``phase_history``,
mutation records and RNG state, for every seed.

This suite asserts exact RNG-path equivalence, so CI runs it with
``-p no:randomly``.
"""

import numpy as np
import pytest

from repro.core import VariableReservoir

LAM = 1e-2
STREAM = 1500  # past the last phase for q = 1 - 1/n at n = 50


class ListOracle:
    """Theorem 3.3, one arrival at a time, on parallel lists."""

    def __init__(self, lam, capacity, q, rng):
        self.lam = lam
        self.capacity = capacity
        if q is None:
            q = 1.0 - 1.0 / capacity if capacity > 1 else 0.5
        self.q = q
        self.target_p_in = min(1.0, capacity * lam)
        self.p_in = 1.0
        self.phase_history = [(0, 1.0)]
        self.rng = np.random.default_rng(rng)
        self.payloads = []
        self.arrivals = []
        self.t = self.offers = self.insertions = self.ejections = 0
        self.last_ops = []

    def offer(self, payload):
        size = len(self.payloads)
        fill = min(1.0, size / (self.p_in / self.lam))
        self.t += 1
        self.offers += 1
        self.last_ops = []
        accepted = self.rng.random() < self.p_in
        if accepted:
            if size >= self.capacity or self.rng.random() < fill:
                slot = int(self.rng.integers(size))
                self.payloads[slot] = payload
                self.arrivals[slot] = self.t
                self.ejections += 1
                self.last_ops.append(("replace", slot))
            else:
                self.payloads.append(payload)
                self.arrivals.append(self.t)
                self.last_ops.append(("append", size))
            self.insertions += 1
        full = len(self.payloads) >= self.capacity
        if full and self.p_in > self.target_p_in:
            self._reduce_phase()
        return accepted

    def _reduce_phase(self):
        new_p = max(self.target_p_in, self.q * self.p_in)
        fraction_out = 1.0 - new_p / self.p_in
        self._eject(round(len(self.payloads) * fraction_out))
        self.p_in = new_p
        self.phase_history.append((self.t, self.p_in))

    def _eject(self, count):
        size = len(self.payloads)
        count = min(int(count), size)
        if count <= 0:
            return
        if count == 1:
            victim = int(self.rng.integers(size))
            self.payloads[victim] = self.payloads[-1]
            self.arrivals[victim] = self.arrivals[-1]
            self.payloads.pop()
            self.arrivals.pop()
        else:
            victims = self.rng.choice(size, size=count, replace=False)
            keep = np.ones(size, dtype=bool)
            keep[victims] = False
            self.payloads = [p for p, k in zip(self.payloads, keep) if k]
            self.arrivals = [a for a, k in zip(self.arrivals, keep) if k]
        self.ejections += count
        self.last_ops.append(("compact",))


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
    assert sampler.p_in == oracle.p_in
    assert sampler.phase_history == oracle.phase_history
    assert sampler.rng.bit_generator.state == oracle.rng.bit_generator.state


@pytest.mark.parametrize("capacity", [1, 2, 50])
@pytest.mark.parametrize("q", [None, 0.5])
@pytest.mark.parametrize("seed", range(20))
def test_offer_matches_oracle(seed, q, capacity):
    sampler = VariableReservoir(lam=LAM, capacity=capacity, q=q, rng=seed)
    oracle = ListOracle(LAM, capacity, q, seed)
    for x in range(STREAM):
        assert sampler.offer(x) == oracle.offer(x)
        assert sampler.last_ops == oracle.last_ops
        if x % 100 == 0:
            _assert_same(sampler, oracle)
    _assert_same(sampler, oracle)
    assert sampler.p_in == sampler.target_p_in


@pytest.mark.parametrize("capacity", [1, 2, 50])
@pytest.mark.parametrize("q", [None, 0.5])
def test_extend_matches_oracle(q, capacity):
    sampler = VariableReservoir(lam=LAM, capacity=capacity, q=q, rng=3)
    oracle = ListOracle(LAM, capacity, q, 3)
    payloads = [(i, -i) for i in range(STREAM)]  # tuples stay whole
    stored = sum(oracle.offer(p) for p in payloads)
    assert sampler.extend(payloads) == stored
    _assert_same(sampler, oracle)
