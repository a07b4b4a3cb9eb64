"""The ``WindowBuffer`` block kernel against the per-item loop.

Arrival ``t`` always takes slot ``(t - 1) % capacity``, so
``WindowBuffer.offer_many`` writes only the block's last ``capacity``
rows, with one last-writer write, and moves the counters in bulk. No
randomness is involved, so the block path must reproduce a loop of
:meth:`~repro.core.sliding_window.WindowBuffer.offer` exactly: counters,
arrivals and the resident columns' bytes, for list and
:class:`~repro.streams.point.PointBlock` input, with and without a
resident view between blocks, and across a snapshot restore.
"""

import pickle

import numpy as np
import pytest

from repro.core import WindowBuffer, from_state_dict
from repro.streams.point import PointBlock
from tests.conftest import make_points

N = 1000
STREAM = 7000
BLOCKS = [1, 7, 999, 1000, 3001]


def _points(seed=5):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, STREAM)
    points = make_points(rng.normal(size=(STREAM, 3)), labels)
    # Some unlabeled rows, so the None mask moves too.
    for i in range(0, STREAM, 11):
        points[i] = type(points[i])(points[i].index, points[i].values)
    return points


def _block_input(kind, payloads, lo, hi):
    if kind == "points":
        return PointBlock.from_points(payloads[lo:hi])
    return payloads[lo:hi]


def _key(payload):
    if isinstance(payload, int):
        return payload
    return (payload.index, payload.label, payload.values.tobytes())


def _assert_same(block_path, per_item, view):
    for name in ("t", "offers", "insertions", "ejections", "size"):
        assert getattr(block_path, name) == getattr(per_item, name)
    assert block_path.arrival_indices().tolist() == (
        per_item.arrival_indices().tolist()
    )
    assert block_path.global_arrivals().tolist() == (
        per_item.global_arrivals().tolist()
    )
    assert [_key(p) for p in block_path.payloads()] == [
        _key(p) for p in per_item.payloads()
    ]
    mine, theirs = block_path._storage_state(), per_item._storage_state()
    assert mine.keys() == theirs.keys()
    for field, value in theirs.get("points", {}).items():
        assert mine["points"][field].tobytes() == value.tobytes()
    if view and per_item.size:
        got, want = block_path.resident_columns(), per_item.resident_columns()
        for field in ("values", "labels", "none", "arrivals"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


@pytest.mark.parametrize("view", [False, True])
@pytest.mark.parametrize("kind", ["list", "points", "ints"])
@pytest.mark.parametrize("block", BLOCKS)
def test_block_kernel_matches_per_item_loop(block, kind, view):
    payloads = list(range(STREAM)) if kind == "ints" else _points()
    view = view and kind != "ints"
    block_path, per_item = WindowBuffer(N), WindowBuffer(N)
    restored = False
    every = max(1, 400 // block)  # compare every ~400 arrivals at least
    for step, lo in enumerate(range(0, STREAM, block)):
        hi = min(lo + block, STREAM)
        if not restored and lo >= STREAM // 2:
            # Restore mid-stream: the kernel continues from a snapshot.
            state = pickle.loads(pickle.dumps(block_path.state_dict()))
            block_path = from_state_dict(state)
            restored = True
        assert block_path.offer_many(_block_input(kind, payloads, lo, hi)) == (
            hi - lo
        )
        for payload in payloads[lo:hi]:
            per_item.offer(payload)
        if view:
            block_path.resident_columns()
            per_item.resident_columns()
        if step % every == 0 or hi == STREAM:
            _assert_same(block_path, per_item, view)
    assert restored


def test_small_blocks_wrap_and_mix_with_per_item_offers():
    """Blocks shorter and longer than the window, with per-item offers
    in between, land in the slots the per-item loop fills."""
    payloads = list(range(200))
    block_path, per_item = WindowBuffer(13), WindowBuffer(13)
    lo = 0
    for step, size in enumerate([3, 13, 1, 40, 12, 14, 2, 27, 5]):
        hi = lo + size
        if step % 3 == 2:
            for payload in payloads[lo:hi]:
                block_path.offer(payload)
        else:
            block_path.offer_many(payloads[lo:hi])
        for payload in payloads[lo:hi]:
            per_item.offer(payload)
        _assert_same(block_path, per_item, view=False)
        lo = hi
    assert sorted(block_path.payloads()) == list(range(lo - 13, lo))
