"""The six families ported to the array store against their list oracles.

:mod:`tests.list_store_oracle` keeps the list-store steps of
:class:`UnbiasedReservoir`, :class:`SkipUnbiasedReservoir`,
:class:`WindowBuffer`, :class:`TimestampedExponentialReservoir`,
:class:`TimeDecayReservoir` and :class:`GeneralBiasSampler` as they were
before the families moved onto the array store. Every path must
reproduce them exactly, per item and per block (``offer_many``, and
``offer_many_at`` for the hybrid sampler), for blocks of 1, 7, ``n`` and
``3n`` and ten seeds: payloads in storage order, arrivals, counters,
mutation records, the family's snapshot extras and the RNG state. Point
payloads also go in as :class:`PointBlock` blocks, and the resident view
must match the oracle's payloads; a snapshot round trip halfway through
must not change the path.

This suite asserts exact RNG-path equivalence, so CI runs it with
``-p no:randomly``.
"""

import numpy as np
import pytest

from repro.core import (
    ExponentialBias,
    GeneralBiasSampler,
    SkipUnbiasedReservoir,
    TimeDecayReservoir,
    TimestampedExponentialReservoir,
    UnbiasedReservoir,
    WindowBuffer,
    from_state_dict,
)
from repro.streams import PointBlock, StreamPoint
from tests import list_store_oracle as oracles

N = 12

#: Family -> (array-store sampler, list oracle), both built from a seed.
FAMILIES = {
    "unbiased": (
        lambda seed: UnbiasedReservoir(N, rng=seed),
        lambda seed: oracles.UnbiasedOracle(N, seed),
    ),
    "skip_unbiased": (
        lambda seed: SkipUnbiasedReservoir(N, rng=seed),
        lambda seed: oracles.SkipUnbiasedOracle(N, seed),
    ),
    "window": (
        lambda seed: WindowBuffer(N, rng=seed),
        lambda seed: oracles.WindowOracle(N, seed),
    ),
    "timestamped": (
        lambda seed: TimestampedExponentialReservoir(0.02, N, rng=seed),
        lambda seed: oracles.TimestampedOracle(0.02, N, seed),
    ),
    "time_decay": (
        lambda seed: TimeDecayReservoir(0.05, N, rate_memory=0.2, rng=seed),
        lambda seed: oracles.TimeDecayOracle(0.05, N, 0.2, seed),
    ),
    "general_bias": (
        lambda seed: GeneralBiasSampler(ExponentialBias(0.1), 4, rng=seed),
        lambda seed: oracles.GeneralBiasOracle(ExponentialBias(0.1), 4, seed),
    ),
}

#: Block sizes as multiples of the capacity, or absolute when an int.
BLOCKS = {"1": 1, "7": 7, "n": "n", "3n": "3n"}


def _stream(kind, length):
    """Ints with every fifth a tuple, or 2-d points whose labels include
    ``None`` and ``-1``."""
    if kind == "objects":
        return [("x", i) if i % 5 == 0 else i for i in range(length)]
    return [
        StreamPoint(
            i + 1,
            np.array([i * 0.25, -float(i % 7)]),
            None if i % 4 == 0 else (i % 3) - 1,
        )
        for i in range(length)
    ]


def _key(payload):
    if isinstance(payload, StreamPoint):
        return (payload.index, payload.values.tolist(), payload.label)
    return payload


def _assert_same(sampler, oracle):
    assert [_key(p) for p in sampler.payloads()] == [
        _key(p) for p in oracle.payloads
    ]
    assert sampler.arrival_indices().tolist() == oracle.arrivals
    assert sampler.global_arrivals().tolist() == oracle.arrivals
    assert (
        sampler.t,
        sampler.offers,
        sampler.insertions,
        sampler.ejections,
    ) == (oracle.t, oracle.offers, oracle.insertions, oracle.ejections)
    extras = oracle.extras()
    state = sampler.state_dict()
    assert {name: state[name] for name in extras} == extras
    assert sampler.rng.bit_generator.state == oracle.rng.bit_generator.state


def _assert_view(sampler, oracle):
    """The resident view holds the oracle's point payloads, in order."""
    view = sampler.resident_columns()
    points = oracle.payloads
    assert view.arrivals.tolist() == oracle.arrivals
    if not points:
        assert view.size == 0
        return
    assert view.values.tolist() == [p.values.tolist() for p in points]
    assert view.none.tolist() == [p.label is None for p in points]
    assert view.labels.tolist() == [
        -1 if p.label is None else p.label for p in points
    ]


def _gaps(rng, count):
    """Wall-clock gaps: repeats, small steps and long pauses that empty
    the decay samplers."""
    return rng.choice([0.0, 0.3, 1.0, 2.5, 40.0], size=count)


def _drive(family, kind, block, seed):
    make_sampler, make_oracle = FAMILIES[family]
    sampler, oracle = make_sampler(seed), make_oracle(seed)
    n = sampler.capacity
    b = {"n": n, "3n": 3 * n}.get(block, block)
    stream = _stream(kind, 8 * n + 5 * b)
    clock = np.random.default_rng(1000 + seed)
    timed = family in ("timestamped", "time_decay")
    i = chunk = 0
    while i < len(stream):
        for x in stream[i : i + 3]:
            if timed:
                stamp = oracle.now + _gaps(clock, 1)[0]
                assert sampler.offer_at(x, stamp) == oracle.offer_at(x, stamp)
            else:
                assert sampler.offer(x) == oracle.offer(x)
            assert sampler.last_ops == oracle.last_ops
        i += 3
        part = stream[i : i + b]
        i += b
        if not part:
            break
        chunk += 1
        if family == "timestamped" and chunk % 2:
            stamps = oracle.now + np.cumsum(_gaps(clock, len(part)))
            assert sampler.offer_many_at(part, stamps) == (
                oracle.offer_many_at(part, stamps)
            )
        else:
            given = part
            if kind == "points" and chunk % 3 == 0:
                given = PointBlock.from_points(part)
            assert sampler.offer_many(given) == oracle.offer_many(part)
        assert sampler.last_ops == oracle.last_ops
        _assert_same(sampler, oracle)
        if kind == "points":
            _assert_view(sampler, oracle)
        if chunk == 4:
            sampler = from_state_dict(sampler.state_dict())
            _assert_same(sampler, oracle)
    _assert_same(sampler, oracle)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("block", sorted(BLOCKS))
@pytest.mark.parametrize("kind", ["objects", "points"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matches_list_oracle(family, kind, block, seed):
    _drive(family, kind, BLOCKS[block], seed)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_extend_matches_list_oracle(family):
    """``extend`` is the per-item loop, tuples stay whole."""
    make_sampler, make_oracle = FAMILIES[family]
    sampler, oracle = make_sampler(5), make_oracle(5)
    stream = _stream("objects", 400)
    stored = sum(oracle.offer(x) for x in stream)
    assert sampler.extend(stream) == stored
    _assert_same(sampler, oracle)
