"""Columnar points: :class:`PointBlock` from the CSV reader to checkpoints.

Pins four things:

* the block itself — the one eligibility rule (:meth:`PointBlock.from_points`
  and its one-point form), read-only arrays, and which kinds of indexing
  box rows into :class:`StreamPoint` s;
* the samplers — a block and the same points as a list leave Algorithms
  2.1 and 3.1, Theorem 3.3 and a two-worker sharded facade in the same
  state: RNG, counters, arrivals, payload bytes, resident columns and
  the pickled ``state_dict()``, also across mixed call sequences and a
  snapshot restore;
* the journal — WAL bytes do not depend on the form, a crash at every
  record of a block journal recovers to the uninterrupted state, and a
  points record holding index 0 is refused;
* the edges — list-form snapshots still restore, a label outside int64
  makes the reader fall back to a list, and a payload the point columns
  cannot hold drops them without changing what the sampler returns.

Exact-RNG equivalence: run with ``-p no:randomly``, as CI does.
"""

import io
import pickle

import numpy as np
import pytest

from repro.core import (
    ExponentialReservoir,
    SpaceConstrainedReservoir,
    VariableReservoir,
    from_state_dict,
)
from repro.persist import DurableReservoir
from repro.persist.wal import (
    HEADER,
    KIND_PICKLE,
    KIND_POINTS,
    WalBlock,
    encode_record,
    frame_record,
    scan_wal,
)
from repro.shard import ShardedReservoir
from repro.streams import (
    PointBlock,
    StreamPoint,
    load_stream_csv_chunks,
    save_stream_csv,
)


def _canon(obj):
    """Memo-free pickle: compares values, not object sharing."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(obj)
    return buffer.getvalue()


def _block(lo, hi, d=3):
    """Arrivals ``lo+1 .. hi`` with ``None`` and ``-1`` among the labels."""
    index = np.arange(lo + 1, hi + 1, dtype=np.int64)
    none = index % 3 == 0
    label = np.where(none, 0, index % 4 - 1)
    values = np.random.default_rng(lo).normal(size=(hi - lo, d))
    return PointBlock(index, label, none, values)


FAMILIES = {
    "alg2.1": lambda: ExponentialReservoir(capacity=40, rng=7),
    "alg3.1": lambda: SpaceConstrainedReservoir(capacity=40, p_in=0.6, rng=7),
    "thm3.3": lambda: VariableReservoir(lam=0.01, capacity=40, rng=7),
    "sharded": lambda: ShardedReservoir(capacity=40, workers=2, rng=7),
}
FAMILY = pytest.mark.parametrize("family", sorted(FAMILIES))


def _serial_view(sampler):
    columns = sampler.resident_columns() if sampler.size else None
    return {
        "rng": sampler.rng.bit_generator.state,
        "counters": (
            sampler.t,
            sampler.offers,
            sampler.insertions,
            sampler.ejections,
        ),
        "arrivals": sampler.arrival_indices().tolist(),
        "global": sampler.global_arrivals().tolist(),
        "payloads": [
            (type(p), type(p.index), p.index, type(p.label), p.label,
             p.values.dtype, p.values.tobytes())
            for p in sampler.payloads()
        ],
        "columns": None if columns is None else (
            columns.values.tobytes(),
            columns.values.shape,
            columns.labels.tobytes(),
            columns.arrivals.tobytes(),
        ),
    }


def _observed(sampler):
    """Everything the equivalence compares, state pickle last."""
    if isinstance(sampler, ShardedReservoir):
        view = [_serial_view(w.sampler) for w in sampler._workers]
        columns = sampler.resident_columns()
        view.append(
            (columns.values.tobytes(), columns.labels.tobytes(),
             columns.arrivals.tobytes(), sampler.t)
        )
    else:
        view = _serial_view(sampler)
    return view, _canon(sampler.state_dict())


# ---------------------------------------------------------------------- #
# The block
# ---------------------------------------------------------------------- #


class _SubPoint(StreamPoint):
    pass


def _ineligible():
    row = np.ones(3)
    return {
        "mixed_dimensionality": [StreamPoint(1, row), StreamPoint(2, np.ones(2))],
        "np_int64_index": [StreamPoint(np.int64(1), row)],
        "np_int64_label": [StreamPoint(1, row, np.int64(2))],
        "bool_label": [StreamPoint(1, row, True)],
        "big_label": [StreamPoint(1, row, 2**63)],
        "big_index": [StreamPoint(2**63, row)],
        "subclass": [_SubPoint(1, row)],
        "two_d_values": [StreamPoint(1, np.ones((2, 3)))],
        "integers": [1, 2, 3],
        "empty": [],
    }


class TestBlock:
    @pytest.mark.parametrize("name", sorted(_ineligible()))
    def test_ineligible_points_have_no_block(self, name):
        points = _ineligible()[name]
        assert PointBlock.from_points(points) is None
        if len(points) == 1:
            assert PointBlock.row_of(points[0]) is None

    def test_eligible_points_round_trip(self):
        block = _block(0, 9)
        points = list(block)
        again = PointBlock.from_points(points)
        for name in ("index", "label", "none", "values"):
            assert getattr(again, name).tobytes() == getattr(block, name).tobytes()
        for point in points:
            index, label, none, values = PointBlock.row_of(point)
            assert (index, label, none) == (
                point.index, 0 if point.label is None else point.label,
                point.label is None,
            )
            assert values is point.values

    def test_rows_box_into_points_that_own_their_values(self):
        block = _block(0, 6)
        for i, point in enumerate(block):
            assert type(point) is StreamPoint
            assert type(point.index) is int and point.index == i + 1
            want = None if block.none[i] else int(block.label[i])
            assert point.label == want and type(point.label) is type(want)
            assert point.values.base is None
            assert not point.values.flags.writeable
            assert point.values.tobytes() == block.values[i].tobytes()
        # Boxed rows pickle like constructed points.
        built = [StreamPoint(p.index, p.values.copy(), p.label) for p in block]
        assert _canon(list(block)) == _canon(built)
        assert block[-1].index == 6 and block[2].index == 3
        with pytest.raises(IndexError):
            block[6]

    def test_slices_and_masks_return_blocks(self):
        block = _block(0, 10)
        for key in (slice(2, 7), [0, 4, 4, 9], np.arange(10) % 2 == 0):
            part = block[key]
            assert isinstance(part, PointBlock)
            assert part.index.tolist() == block.index[key].tolist()
            assert part.values.tobytes() == block.values[key].tobytes()
        assert len(block[5:5]) == 0

    def test_arrays_are_read_only_and_checked(self):
        values = np.zeros((2, 2))
        block = PointBlock([1, 2], [5, 7], [False, True], values)
        assert block.label.tolist() == [5, 0]  # a None row's label is 0
        for name in ("index", "label", "none", "values"):
            with pytest.raises(ValueError):
                getattr(block, name)[0] = 1
        assert values.flags.writeable  # the caller's array is untouched
        with pytest.raises(ValueError, match="index must be >= 1"):
            PointBlock([0, 1], [0, 0], [False, False], values)
        with pytest.raises(ValueError, match="disagree"):
            PointBlock([1, 2], [0], [False, False], values)


# ---------------------------------------------------------------------- #
# Samplers: a block and the same points as a list
# ---------------------------------------------------------------------- #


def _feed(sampler, blocks, as_list):
    for block in blocks:
        sampler.offer_many(list(block) if as_list else block)


@FAMILY
def test_block_and_list_leave_the_same_state(family):
    blocks = [_block(0, 150), _block(150, 151), _block(151, 400)]
    by_block, by_list = FAMILIES[family](), FAMILIES[family]()
    _feed(by_block, blocks[:2], as_list=False)
    _feed(by_list, blocks[:2], as_list=True)
    assert _observed(by_block) == _observed(by_list)
    # The list side now has point columns too, filled per block call.
    _feed(by_block, blocks[2:], as_list=False)
    _feed(by_list, blocks[2:], as_list=True)
    assert _observed(by_block) == _observed(by_list)


@FAMILY
def test_mixed_sequence_with_restore(family):
    """Block, list, per-item, restore, block — against all lists."""

    def run(as_blocks):
        sampler = FAMILIES[family]()
        first, second = _block(0, 90), _block(90, 170)
        sampler.offer_many(first if as_blocks else list(first))
        sampler.offer_many(list(second))
        for point in _block(170, 200):
            sampler.offer(point)
        if family == "sharded":
            state = pickle.loads(pickle.dumps(sampler.state_dict()))
            sampler = ShardedReservoir.from_state_dict(state)
        else:
            sampler = from_state_dict(pickle.loads(pickle.dumps(sampler.state_dict())))
        last = _block(200, 330)
        sampler.offer_many(last if as_blocks else list(last))
        return _observed(sampler)

    assert run(True) == run(False)


@pytest.mark.parametrize("family", ["alg2.1", "thm3.3"])
def test_snapshot_form_depends_on_residents_alone(family):
    by_block, per_item = FAMILIES[family](), FAMILIES[family]()
    by_block.offer_many(_block(0, 120))
    for point in _block(0, 120):
        per_item.offer(point)
    state = by_block.state_dict()
    assert "points" in state and "payloads" not in state
    assert {k: v.dtype.name for k, v in state["points"].items()} == {
        "index": "int64", "label": "int64", "none": "uint8", "values": "float64"
    }
    assert "points" in per_item.state_dict()
    integers = FAMILIES[family]()
    integers.offer_many(range(50))
    assert "points" not in integers.state_dict()


@pytest.mark.parametrize("family", ["alg2.1", "alg3.1", "thm3.3"])
def test_list_snapshot_restores_like_the_columnar_one(family):
    sampler = FAMILIES[family]()
    sampler.offer_many(_block(0, 200))
    columnar = sampler.state_dict()
    legacy = {k: v for k, v in columnar.items() if k != "points"}
    legacy["payloads"] = list(PointBlock(**columnar["points"]))
    restored = [from_state_dict(columnar), from_state_dict(legacy)]
    assert restored[1]._vals is None  # object cells until a block arrives
    for each in restored:
        each.offer_many(_block(200, 320))
        for point in _block(320, 330):
            each.offer(point)
    assert _observed(restored[0]) == _observed(restored[1])


def test_payload_the_columns_cannot_hold_drops_them():
    sampler = ExponentialReservoir(capacity=30, rng=3)
    sampler.offer_many(_block(0, 60))
    sampler.offer(StreamPoint(61, np.ones(3), np.int64(4)))  # not a block row
    assert sampler._vals is None
    reference = ExponentialReservoir(capacity=30, rng=3)
    reference.offer_many(list(_block(0, 60)))
    reference.offer(StreamPoint(61, np.ones(3), np.int64(4)))
    assert _canon(sampler.payloads()) == _canon(reference.payloads())
    assert _observed(sampler) == _observed(reference)
    # A non-point payload: columns gone, resident_columns refuses as before.
    sampler.offer_many(_block(61, 80))
    sampler.offer_many([("not", "a point")] * 3)
    assert sampler._vals is None
    with pytest.raises(AttributeError):
        sampler.resident_columns()


def test_none_payload_survives_a_column_drop():
    """A ``None`` payload written by the block that drops the columns is
    not mistaken for a column-only row."""
    by_block, by_list = (
        VariableReservoir(lam=0.05, capacity=10, rng=1) for _ in range(2)
    )
    by_block.offer_many(_block(0, 40))
    by_list.offer_many(list(_block(0, 40)))
    for sampler in (by_block, by_list):
        sampler.offer_many([None, 7, None])
    assert by_block._vals is None
    assert None in by_block.payloads()
    assert _canon(by_block.payloads()) == _canon(by_list.payloads())
    assert _canon(by_block.state_dict()) == _canon(by_list.state_dict())


# ---------------------------------------------------------------------- #
# Journal
# ---------------------------------------------------------------------- #


def test_wal_bytes_do_not_depend_on_the_form():
    block = _block(0, 33)
    globs = np.arange(3, 3 + 2 * 33, 2)
    for op, extra in (("b", None), ("s", globs)):
        as_block = encode_record(9, WalBlock(op, block, extra))
        objects = np.empty(len(block), dtype=object)
        objects[:] = list(block)
        for payloads in (list(block), objects):
            assert encode_record(9, WalBlock(op, payloads, extra)) == as_block
        assert as_block[3] == KIND_POINTS
    sliced = block[4:20]
    assert encode_record(2, WalBlock("b", sliced)) == encode_record(
        2, WalBlock("b", list(sliced))
    )


def test_decoded_records_are_blocks_that_do_not_alias_the_segment(tmp_path):
    wal = tmp_path / "seg.log"
    block = _block(0, 12)
    wal.write_bytes(encode_record(1, WalBlock("b", block)))
    [(seq, record)] = scan_wal(wal).blocks()
    decoded = record.payloads
    assert seq == 1 and isinstance(decoded, PointBlock)
    for name in ("index", "label", "none", "values"):
        assert getattr(decoded, name).tobytes() == getattr(block, name).tobytes()
        owner = getattr(decoded, name)
        while isinstance(owner, np.ndarray) and owner.base is not None:
            owner = owner.base
        assert isinstance(owner, np.ndarray)  # a copy, not the file's bytes


def test_points_record_with_index_zero_is_refused(tmp_path):
    frame = bytearray(encode_record(5, WalBlock("b", _block(0, 3))))
    body = bytes(frame[HEADER.size:])
    header_len = int.from_bytes(body[:4], "little")
    arrays = bytearray(body[4 + header_len:])
    arrays[8:16] = (0).to_bytes(8, "little")  # second point's index
    bad = frame_record(KIND_POINTS, 6, body[: 4 + header_len] + bytes(arrays))
    wal = tmp_path / "z.log"
    wal.write_bytes(bytes(frame) + bad)
    with pytest.raises(ValueError, match=r"z\.log, record seq 6.*index"):
        scan_wal(wal)


def _journal_ops():
    """Blocks with per-item offers between them."""
    ops, lo = [], 0
    for size in (23, 1, 40, 17, 64, 5, 31):
        ops.append(("b", _block(lo, lo + size)))
        lo += size
        ops.append(("o", StreamPoint(lo + 1, np.full(3, lo * 0.5), lo % 5)))
        lo += 1
    return ops


def _apply(target, ops):
    for op, data in ops:
        if op == "o":
            target.offer(data)
        else:
            target.offer_many(data)


@pytest.mark.parametrize("family", ["alg2.1", "thm3.3", "sharded"])
def test_kill_at_every_record_of_a_block_journal(tmp_path, family):
    ops = _journal_ops()
    reference = FAMILIES[family]()
    _apply(reference, ops)
    if family == "sharded":
        reference.flush()
    want = _canon(reference.state_dict())
    for k in range(len(ops) + 1):
        journal = tmp_path / f"j{k:02d}"
        engine = DurableReservoir(
            FAMILIES[family](), journal, wal_sync="never",
            checkpoint_every_records=3,
        )
        _apply(engine, ops[:k])
        if family == "sharded":
            engine.flush()
        engine.close(final_checkpoint=False)
        recovered = DurableReservoir.recover(journal, wal_sync="never")
        _apply(recovered, ops[k:])
        if family == "sharded":
            recovered.flush()
        assert _canon(recovered.state_dict()) == want, f"crash after op {k}"
        recovered.close(final_checkpoint=False)


# ---------------------------------------------------------------------- #
# Reader
# ---------------------------------------------------------------------- #


def test_reader_yields_blocks_and_falls_back_on_int64_overflow(tmp_path):
    points = list(_block(0, 10))
    big = StreamPoint(11, np.array([1.5, -2.0, 0.25]), 2**63)
    tail = list(_block(11, 14))
    path = tmp_path / "s.csv"
    save_stream_csv(points + [big] + tail, path)
    chunks = list(load_stream_csv_chunks(path, 5))
    assert [type(c) for c in chunks] == [PointBlock, PointBlock, list]
    assert chunks[2][0].label == 2**63 and type(chunks[2][0].label) is int
    read = [p for chunk in chunks for p in chunk]
    assert _canon(read) == _canon(points + [big] + tail)
    # The overflow chunk journals as a pickle record and stays exact.
    frame = encode_record(1, WalBlock("b", chunks[2]))
    assert frame[3] == KIND_PICKLE
    by_chunk, by_list = (ExponentialReservoir(capacity=20, rng=0) for _ in "ab")
    for chunk in chunks:
        by_chunk.offer_many(chunk)
        by_list.offer_many(list(chunk))
    assert _canon(by_chunk.state_dict()) == _canon(by_list.state_dict())
    by_chunk.offer(big)  # a resident the point columns cannot hold
    assert by_chunk._vals is None
    assert any(p is big for p in by_chunk.payloads())
