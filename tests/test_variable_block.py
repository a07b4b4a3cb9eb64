"""The Theorem 3.3 block path and the array store's refreshed columns.

``VariableReservoir.offer_many`` draws the same Markov chain as
``offer`` in bulk: a vectorized fill segment, one geometric segment per
phase, then Algorithm 3.1's gated scatter at the target ``p_in``. Its
random stream differs from the per-item one, so these tests pin what
must hold exactly (counters, invariants, snapshot resumption) and
compare the phase schedule with the per-item path statistically; the
``variable-age-batched`` conformance spec checks the age law.
"""

import pickle

import numpy as np
import pytest

from repro.core import (
    ExponentialReservoir,
    VariableReservoir,
    build_resident_columns,
    from_state_dict,
)
from repro.streams.point import StreamPoint

N, LAM = 50, 1e-2
BLOCK_SIZES = [1, 7, 97, N, 3 * N]


def _feed(sampler, stream, block):
    for lo in range(0, len(stream), block):
        sampler.offer_many(stream[lo : lo + block])


def _assert_invariants(sampler, t):
    assert sampler.t == sampler.offers == t
    assert sampler.insertions - sampler.ejections == sampler.size
    assert sampler.size <= sampler.capacity
    assert sampler.p_in >= sampler.target_p_in
    whens = [w for w, _ in sampler.phase_history]
    values = [p for _, p in sampler.phase_history]
    assert whens == sorted(whens)
    assert values == sorted(values, reverse=True)
    assert values[-1] == sampler.p_in
    arrivals = sampler.arrival_indices()
    assert len(set(arrivals.tolist())) == len(arrivals)
    if len(arrivals):
        assert 1 <= arrivals.min() and arrivals.max() <= t
    # Payload x arrived at position x + 1.
    assert sampler.payloads() == (arrivals - 1).tolist()


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("t", [40, 120, 400, 2000])
def test_block_counters_and_invariants(block, t):
    sampler = VariableReservoir(lam=LAM, capacity=N, rng=block * 1000 + t)
    stored = 0
    for lo in range(0, t, block):
        stored += sampler.offer_many(range(lo, min(lo + block, t)))
        _assert_invariants(sampler, min(lo + block, t))
    assert stored == sampler.insertions


@pytest.mark.parametrize(
    "lam, capacity, q",
    [(1e-2, 50, None), (1e-2, 50, 0.5), (0.1, 1, None), (0.05, 2, 0.9),
     (0.05, 10, None), (0.1, 10, None)],
)
def test_one_block_crosses_fill_phases_and_steady_state(lam, capacity, q):
    """A single block runs every segment kind, including the full-before-
    a-phase arrivals of capacity 1 and of q close to 1, and ``p_in = 1``
    throughout (``capacity * lam = 1``)."""
    sampler = VariableReservoir(lam=lam, capacity=capacity, q=q, rng=5)
    stored = sampler.offer_many(range(5000))
    _assert_invariants(sampler, 5000)
    assert stored == sampler.insertions
    assert sampler.p_in == sampler.target_p_in
    assert sampler.size >= capacity - 1


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_snapshot_restore_resume_is_byte_identical(block):
    stream = list(range(1500))
    live = VariableReservoir(lam=LAM, capacity=N, rng=17)
    _feed(live, stream[:200], block)
    restored = from_state_dict(pickle.loads(pickle.dumps(live.state_dict())))
    _feed(live, stream[200:], block)
    _feed(restored, stream[200:], block)
    assert pickle.dumps(restored.state_dict()) == pickle.dumps(
        live.state_dict()
    )


def test_ingest_records_global_indices():
    sampler = VariableReservoir(lam=LAM, capacity=N, rng=3)
    payloads = np.empty(600, dtype=object)
    payloads[:] = list(range(600))
    sampler.ingest(payloads, 10 * np.arange(1, 601))
    assert sampler.global_arrivals().tolist() == (
        10 * sampler.arrival_indices()
    ).tolist()
    _assert_invariants(sampler, 600)


def _phase_schedule(mode, seeds, t=120):
    """Phases completed and final ``p_in`` after ``t`` arrivals."""
    phases, p_in = [], []
    for seed in seeds:
        sampler = VariableReservoir(lam=LAM, capacity=N, rng=seed)
        if mode == "item":
            sampler.extend(range(t))
        else:
            _feed(sampler, list(range(t)), 31)
        phases.append(len(sampler.phase_history))
        p_in.append(sampler.p_in)
    return np.array(phases, dtype=float), np.array(p_in)


def test_phase_schedule_matches_per_item():
    """The block path completes phases at the per-item rate (a one-arrival
    error in each phase's gap moves the mean by tens of sigma)."""
    item_phases, item_p = _phase_schedule("item", range(300))
    block_phases, block_p = _phase_schedule("block", range(1000, 1300))
    sigma = np.sqrt((item_phases.var() + block_phases.var()) / 300)
    assert abs(item_phases.mean() - block_phases.mean()) < 5 * sigma
    sigma_p = np.sqrt((item_p.var() + block_p.var()) / 300)
    assert abs(item_p.mean() - block_p.mean()) < 5 * sigma_p


# ---------------------------------------------------------------------- #
# Resident columns refreshed by dirty rows
# ---------------------------------------------------------------------- #


def _points(lo, hi, rng):
    return [
        StreamPoint(i + 1, rng.normal(size=3), label=None if i % 7 else i % 3)
        for i in range(lo, hi)
    ]


def _assert_columns_exact(sampler):
    columns = sampler.resident_columns()
    fresh = build_resident_columns(
        sampler.payloads(), sampler.arrival_indices()
    )
    assert columns.values.tobytes() == fresh.values.tobytes()
    assert columns.values.shape == fresh.values.shape
    assert columns.labels.tolist() == fresh.labels.tolist()
    assert columns.arrivals.tolist() == fresh.arrivals.tolist()
    return columns


@pytest.mark.parametrize(
    "factory",
    [
        lambda: VariableReservoir(lam=2e-2, capacity=20, rng=1),
        lambda: VariableReservoir(lam=2e-2, capacity=20, q=0.5, rng=2),
        lambda: ExponentialReservoir(capacity=20, rng=3),
    ],
)
def test_refreshed_columns_match_a_fresh_build(factory):
    """Per-item offers, blocks and phase ejections (swap-remove and
    compaction) between refreshes all land in the refreshed columns."""
    rng = np.random.default_rng(0)
    sampler = factory()
    assert sampler.resident_columns().size == 0
    position = 0
    for step in range(60):
        count = int(rng.integers(1, 40))
        points = _points(position, position + count, rng)
        position += count
        if step % 3:
            sampler.offer_many(points)
        else:
            for point in points:
                sampler.offer(point)
        if step % 2:
            _assert_columns_exact(sampler)


def test_views_are_frozen_copies():
    rng = np.random.default_rng(1)
    sampler = VariableReservoir(lam=2e-2, capacity=20, rng=4)
    sampler.offer_many(_points(0, 100, rng))
    columns = sampler.resident_columns()
    held = (columns.values, columns.labels, columns.arrivals)
    before = [column.copy() for column in held]
    assert sampler.resident_columns() is columns
    sampler.offer_many(_points(100, 300, rng))
    assert sampler.resident_columns() is not columns
    for column, kept in zip(held, before):
        np.testing.assert_array_equal(column, kept)
        with pytest.raises(ValueError):
            column[0] = 0


def test_restore_rebuilds_columns():
    rng = np.random.default_rng(2)
    sampler = VariableReservoir(lam=2e-2, capacity=20, rng=5)
    sampler.offer_many(_points(0, 100, rng))
    sampler.resident_columns()
    restored = from_state_dict(sampler.state_dict())
    restored.offer_many(_points(100, 150, rng))
    _assert_columns_exact(restored)


def test_columns_reject_non_streampoint_payloads():
    sampler = VariableReservoir(lam=2e-2, capacity=20, rng=6)
    sampler.offer_many(range(30))
    with pytest.raises(AttributeError):
        sampler.resident_columns()
