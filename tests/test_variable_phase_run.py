"""The Theorem 3.3 phase run against its event-by-event oracle.

``VariableReservoir._phase_run`` writes a run of startup phases that
each eject one resident as one last-writer write.
:class:`~tests.variable_phase_oracle.PhaseRunOracle` draws the same
arrays from a twin generator and replays them one arrival at a time on
lists (replacement, append at ``n - 1``, swap-remove of the phase
victim). The kernel must match it exactly: residents in storage order,
arrivals, counters, ``p_in`` and ``phase_history``, for blocks that end
mid-phase, runs that reach the clamped last phase, and runs that stop
before a clamped phase ejecting nobody (the walker's). A statistical
test checks the run's phase schedule against the per-item path.

This suite asserts exact RNG-path equivalence, so CI runs it with
``-p no:randomly``.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.core import VariableReservoir
from repro.streams.point import PointBlock
from tests.conftest import make_points
from tests.variable_phase_oracle import PhaseRunOracle

# (capacity, lambda): the clamped last phase ejects one resident in the
# first of each pair and nobody in the second.
PARAMS = [(2, 0.04), (2, 0.05), (5, 0.03), (5, 0.01), (50, 0.005), (50, 0.01)]
BLOCKS = [1, 7, 97, 1024]
STREAM = 40_000


def _clamp_ejects_one(n, lam):
    """Whether the reduction to the target ejects one resident."""
    sampler = VariableReservoir(lam=lam, capacity=n)
    p, q, target = 1.0, sampler.q, sampler.target_p_in
    while q * p > target:
        p *= q
    return round(n * (1.0 - target / p)) == 1


@lru_cache(maxsize=None)
def _stream(kind):
    if kind == "int":
        return np.arange(STREAM).astype(object)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(STREAM, 3))
    return PointBlock.from_points(
        make_points(values, rng.integers(0, 4, STREAM))
    )


def _after_first_phase(n, lam, seed, stream):
    """A sampler that took per-item offers up to its first reduction
    (``n - 1`` residents, ``p_in = q``); returns it and the next row."""
    sampler = VariableReservoir(lam=lam, capacity=n, rng=seed)
    row = 0
    while sampler.p_in == 1.0:
        sampler.offer(stream[row])
        row += 1
    assert sampler.size == n - 1
    if isinstance(stream, PointBlock):
        assert sampler._holds(stream)  # what `_offer_block` does first
    return sampler, row


def _key(payload):
    if isinstance(payload, (int, np.integer)):
        return int(payload)
    return (payload.index, payload.label, payload.values.tobytes())


def _assert_same(sampler, oracle):
    assert sampler.size == len(oracle.payloads)
    assert [_key(p) for p in sampler.payloads()] == [
        _key(p) for p in oracle.payloads
    ]
    assert sampler.arrival_indices().tolist() == oracle.arrivals
    assert sampler.global_arrivals().tolist() == oracle.globals
    assert sampler.insertions == oracle.insertions
    assert sampler.ejections == oracle.ejections
    assert sampler.p_in == oracle.p_in
    assert sampler.phase_history == oracle.phase_history
    assert sampler.rng.bit_generator.state == oracle.rng.bit_generator.state


def _blocks(stream, start, block):
    for lo in range(start, len(stream), block):
        yield lo, stream[lo : lo + block]


@pytest.mark.parametrize("kind", ["int", "points"])
@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n, lam", PARAMS)
def test_phase_run_matches_event_oracle(n, lam, block, kind):
    stream = _stream(kind)
    sampler, start = _after_first_phase(n, lam, 11 * n + block, stream)
    oracle = PhaseRunOracle(sampler)
    boxed = stream.points() if kind == "points" else stream
    mid_phase = 0
    for lo, pay in _blocks(stream, start, block):
        b = len(pay)
        local = sampler.t + 1 + np.arange(b, dtype=np.int64)
        glob = 3 * local
        got = sampler._phase_run(pay, local, glob, 0)
        assert got == oracle.phase_run(boxed[lo : lo + b], local, glob, 0)
        _assert_same(sampler, oracle)
        sampler.t += got
        if got < b or not got:
            break
        mid_phase += sampler.phase_history[-1][0] != sampler.t
    else:
        pytest.fail("the stream ended inside the startup")
    if n == 50 and block < 1024:  # a startup of ~1,000 arrivals
        assert mid_phase
    if _clamp_ejects_one(n, lam):
        assert sampler.p_in == sampler.target_p_in
    else:
        # The run stops before the clamped phase, which ejects nobody and
        # goes to the walker.
        assert sampler.p_in > sampler.target_p_in
        assert sampler._phase_run(pay, local, glob, got) == got


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n, lam", [(5, 2e-4), (50, 2e-3), (200, 1e-3)])
def test_offer_many_inside_the_startup_is_the_run(n, lam, block):
    """While the run covers whole blocks, ``offer_many`` is the run and
    nothing else: same state, same generator, ``t`` at the block end."""
    stream = _stream("int")
    sampler, start = _after_first_phase(n, lam, 7 * n + block, stream)
    oracle = PhaseRunOracle(sampler)
    blocks = 0
    for lo, pay in _blocks(stream, start, block):
        local = sampler.t + 1 + np.arange(len(pay), dtype=np.int64)
        if oracle.phase_run(pay, local, local, 0) < len(pay):
            break
        before = sampler.insertions
        assert sampler.offer_many(list(pay)) == oracle.insertions - before
        _assert_same(sampler, oracle)
        assert sampler.t == sampler.offers == lo + len(pay)
        blocks += 1
    assert blocks


def _schedule(mode, seeds, n=100, lam=2e-3, t=1500):
    """Phases completed, final ``p_in`` and mean resident arrival after
    ``t`` arrivals, per item or in 1024-point blocks."""
    out = []
    for seed in seeds:
        sampler = VariableReservoir(lam=lam, capacity=n, rng=seed)
        if mode == "item":
            sampler.extend(range(t))
        else:
            for lo in range(0, t, 1024):
                sampler.offer_many(range(lo, min(lo + 1024, t)))
        out.append(
            (
                len(sampler.phase_history),
                sampler.p_in,
                sampler.arrival_indices().mean(),
            )
        )
    return np.array(out)


def test_block_run_phase_schedule_matches_per_item():
    """A 1024-point block spans a hundred phases of the run; their count,
    the final ``p_in`` and the residents' mean arrival match the per-item
    path (a one-arrival bias in each phase's gap moves the phase count
    by tens of sigma)."""
    item = _schedule("item", range(300))
    block = _schedule("block", range(1000, 1300))
    assert block[:, 0].min() > 100  # many phases inside the first block
    for column in range(3):
        sigma = np.sqrt((item[:, column].var() + block[:, column].var()) / 300)
        assert abs(item[:, column].mean() - block[:, column].mean()) < 5 * sigma
