"""Columnar WAL records for StreamPoint blocks.

Pins the points record kind of :mod:`repro.persist.wal`: which blocks
take it, that decoding returns payloads of the same Python types and
bits as the live ones, that the pickle kind still replays journals in
the format it has always written, and that a CRC-valid but hostile body
is refused instead of replayed. The crash/recover sweeps over
StreamPoint payloads live in ``tests/test_persist_recovery.py``.
"""

import io
import pickle

import numpy as np
import pytest

from repro.core import ExponentialReservoir
from repro.persist import (
    DurableReservoir,
    WalWriter,
    corrupt_tail_record_crc,
    duplicate_tail_record,
    hostile_points_body,
    scan_wal,
    tear_tail_bytes,
)
from repro.persist.wal import (
    HEADER,
    KIND_PICKLE,
    KIND_POINTS,
    WalBlock,
    encode_record,
    frame_record,
    last_record_span,
)
from repro.shard import ShardedReservoir
from repro.streams import StreamPoint


def _canon(obj):
    """Memo-free pickle: compares values, not object sharing."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(obj)
    return buffer.getvalue()


def _chunk_points(n=6, d=3, labels=None, start=1):
    """Row views of one chunk array, as the stream generators produce."""
    chunk = np.arange(n * d, dtype=np.float64).reshape(n, d) * 0.25 - 1.0
    if labels is None:
        labels = [i % 3 for i in range(n)]
    return [StreamPoint(start + i, chunk[i], labels[i]) for i in range(n)]


def _kind(frame):
    return frame[3]  # magic(2) version(1) kind(1)


def _roundtrip(tmp_path, block):
    """Journal ``block`` as record seq 1; return (kind byte, decoded)."""
    wal = tmp_path / "rt.log"
    wal.unlink(missing_ok=True)
    with WalWriter(wal, sync="never") as writer:
        writer.append(1, block)
    result = scan_wal(wal)
    assert result.damage is None
    [(seq, decoded)] = result.blocks()
    assert seq == 1
    return _kind(wal.read_bytes()), decoded


def _assert_same_payloads(live, decoded):
    assert len(live) == len(decoded)
    for a, b in zip(live, decoded):
        assert type(b) is StreamPoint
        assert type(b.index) is int and b.index == a.index
        assert type(b.label) is type(a.label) and b.label == a.label
        assert b.values.dtype == np.float64
        assert b.values.shape == a.values.shape
        assert b.values.tobytes() == a.values.tobytes()
        assert not b.values.flags.writeable
    assert _canon(list(live)) == _canon(list(decoded))


class TestCodecRoundTrip:
    def test_block_goes_columnar_and_roundtrips(self, tmp_path):
        points = _chunk_points()
        kind, decoded = _roundtrip(tmp_path, WalBlock("b", points))
        assert kind == KIND_POINTS
        assert decoded.op == "b" and decoded.globs is None
        _assert_same_payloads(points, decoded.payloads)

    def test_columnar_is_smaller_than_pickle(self):
        points = _chunk_points(n=256, d=10)
        columnar = encode_record(1, WalBlock("b", points))
        pickled = encode_record(1, ("b", points))
        assert _kind(columnar) == KIND_POINTS
        assert _kind(pickled) == KIND_PICKLE
        assert len(columnar) < len(pickled)

    def test_all_none_labels(self, tmp_path):
        points = _chunk_points(labels=[None] * 6)
        kind, decoded = _roundtrip(tmp_path, WalBlock("b", points))
        assert kind == KIND_POINTS
        assert [p.label for p in decoded.payloads] == [None] * 6
        _assert_same_payloads(points, decoded.payloads)

    def test_mixed_none_and_minus_one_labels(self, tmp_path):
        labels = [None, -1, 0, None, -1, 7]
        points = _chunk_points(labels=labels)
        kind, decoded = _roundtrip(tmp_path, WalBlock("b", points))
        assert kind == KIND_POINTS
        assert [p.label for p in decoded.payloads] == labels
        _assert_same_payloads(points, decoded.payloads)

    def test_single_dimension(self, tmp_path):
        points = _chunk_points(d=1)
        kind, decoded = _roundtrip(tmp_path, WalBlock("b", points))
        assert kind == KIND_POINTS
        assert decoded.payloads[0].values.shape == (1,)
        _assert_same_payloads(points, decoded.payloads)

    def test_special_float_bits(self, tmp_path):
        bits = np.array(
            [0x7FF8000000000123, 0xFFF0000000000001, 0x8000000000000000],
            dtype=np.uint64,
        )
        specials = np.concatenate(
            [bits.view(np.float64), [np.inf, -np.inf, -0.0]]
        )
        chunk = specials.reshape(2, 3)
        points = [StreamPoint(1, chunk[0], 1), StreamPoint(2, chunk[1])]
        kind, decoded = _roundtrip(tmp_path, WalBlock("b", points))
        assert kind == KIND_POINTS
        _assert_same_payloads(points, decoded.payloads)

    def test_row_views_decode_without_aliasing_the_segment(self, tmp_path):
        points = _chunk_points()
        assert points[0].values.base is not None  # live rows are views
        _kind_byte, decoded = _roundtrip(tmp_path, WalBlock("b", points))
        for p in decoded.payloads:
            # Each row is an owned copy, never a view of the segment's bytes.
            assert p.values.base is None

    def test_shard_block_carries_global_indices(self, tmp_path):
        points = _chunk_points()
        payloads = np.empty(len(points), dtype=object)
        payloads[:] = points
        globs = np.array([3, 5, 8, 13, 21, 34], dtype=np.int64)
        kind, decoded = _roundtrip(tmp_path, WalBlock("s", payloads, globs))
        assert kind == KIND_POINTS
        assert decoded.op == "s"
        assert decoded.globs.dtype == np.int64
        assert decoded.globs.tolist() == globs.tolist()
        _assert_same_payloads(points, decoded.payloads)


class _SubPoint(StreamPoint):
    pass


def _fallback_blocks():
    chunk = np.ones((2, 3))
    return {
        "mixed_dimensionality": [
            StreamPoint(1, chunk[0]),
            StreamPoint(2, np.ones(2)),
        ],
        "np_int64_index": [StreamPoint(np.int64(1), chunk[0])],
        "np_int64_label": [StreamPoint(1, chunk[0], np.int64(2))],
        "bool_label": [StreamPoint(1, chunk[0], True)],
        "subclass": [_SubPoint(1, chunk[0])],
        "two_d_values": [StreamPoint(1, chunk)],
        "integers": [1, 2, 3],
        "mixed_objects": [StreamPoint(1, chunk[0]), ("k", 2)],
    }


class TestPickleFallback:
    @pytest.mark.parametrize("name", sorted(_fallback_blocks()))
    def test_ineligible_block_takes_pickle_kind(self, tmp_path, name):
        payloads = _fallback_blocks()[name]
        kind, decoded = _roundtrip(tmp_path, WalBlock("b", payloads))
        assert kind == KIND_PICKLE
        assert decoded.op == "b"
        assert [type(p) for p in decoded.payloads] == [
            type(p) for p in payloads
        ]
        assert _canon(decoded.payloads) == _canon(payloads)

    def test_single_offer_stays_pickled(self, tmp_path):
        point = _chunk_points(n=1)[0]
        kind, decoded = _roundtrip(tmp_path, WalBlock("o", [point]))
        assert kind == KIND_PICKLE
        assert decoded.op == "o"
        _assert_same_payloads([point], decoded.payloads)

    def test_pickle_kind_keeps_the_legacy_record_shapes(self):
        point = _chunk_points(n=1)[0]
        cases = [
            (WalBlock("o", [7]), ("o", 7)),
            (WalBlock("b", [1, 2]), ("b", [1, 2])),
            (
                WalBlock("s", [point, 9], np.array([4, 6])),
                ([4, 6], [point, 9]),
            ),
        ]
        for block, legacy in cases:
            frame = encode_record(5, block)
            assert _kind(frame) == KIND_PICKLE
            body = pickle.loads(frame[HEADER.size :])
            assert _canon(body) == _canon(legacy)


def _legacy_serial_journal(tmp_path, ops):
    """A journal whose WAL holds records exactly as the pickle-only
    format wrote them: ``("o", payload)`` and ``("b", [payloads])``."""
    journal = tmp_path / "legacy"
    engine = DurableReservoir(
        ExponentialReservoir(capacity=5, rng=3), journal, wal_sync="never"
    )
    engine.close(final_checkpoint=False)
    segment = journal / "wal-main-000001.log"
    with WalWriter(segment, sync="never") as writer:
        for seq, record in enumerate(ops, start=1):
            writer.append(seq, record)
    return journal


class TestLegacySegments:
    def test_pickle_only_serial_segment_replays(self, tmp_path):
        points = _chunk_points(n=9)
        ops = [("o", points[0]), ("b", points[1:6]), ("o", points[6])]
        ops.append(("b", points[7:]))
        journal = _legacy_serial_journal(tmp_path, ops)
        assert {_kind(f) for f in _frames(journal)} == {KIND_PICKLE}

        reference = ExponentialReservoir(capacity=5, rng=3)
        for op, data in ops:
            if op == "o":
                reference.offer(data)
            else:
                reference.offer_many(data)
        recovered = DurableReservoir.recover(journal, wal_sync="never")
        assert recovered.last_recovery.records_replayed == len(ops)
        assert _canon(recovered.state_dict()) == _canon(
            reference.state_dict()
        )
        recovered.close(final_checkpoint=False)

    def test_pickle_only_sharded_segments_replay(self, tmp_path):
        blocks = [_chunk_points(n=5, start=1 + 5 * i) for i in range(4)]
        reference = ShardedReservoir(capacity=4, workers=2, rng=9)
        for block in blocks:
            reference.offer_many(block)

        # Capture the dispatches a live run makes and journal them in
        # the legacy ([global indices], [payloads]) shape.
        facade = ShardedReservoir(capacity=4, workers=2, rng=9)
        dispatched = []
        facade.dispatch_listener = lambda w, p, g: dispatched.append(
            (w, list(p), g.tolist())
        )
        for block in blocks:
            facade.offer_many(block)
        journal = tmp_path / "legacy"
        engine = DurableReservoir(
            ShardedReservoir(capacity=4, workers=2, rng=9),
            journal,
            wal_sync="never",
        )
        engine.close(final_checkpoint=False)
        for seq, (w, payloads, globs) in enumerate(dispatched, start=1):
            segment = journal / f"wal-shard{w:03d}-000001.log"
            with WalWriter(segment, sync="never") as writer:
                writer.append(seq, (globs, payloads))
        assert {_kind(f) for f in _frames(journal)} == {KIND_PICKLE}

        recovered = DurableReservoir.recover(journal, wal_sync="never")
        assert recovered.last_recovery.records_replayed == len(dispatched)
        assert _canon(recovered.state_dict()) == _canon(
            reference.state_dict()
        )
        recovered.close(final_checkpoint=False)


def _frames(journal):
    """Every record frame in a journal's WAL segments."""
    out = []
    for segment in sorted(journal.glob("wal-*.log")):
        data = segment.read_bytes()
        offset = 0
        while offset < len(data):
            length = HEADER.unpack_from(data, offset)[4]
            out.append(data[offset : offset + HEADER.size + length])
            offset += HEADER.size + length
    return out


def _points_journal(tmp_path, sharded=False, blocks=4):
    """A killed journal fed StreamPoint blocks, plus its reference."""
    data = [_chunk_points(n=6, start=1 + 6 * i) for i in range(blocks)]

    def sampler():
        if sharded:
            return ShardedReservoir(capacity=4, workers=2, rng=5)
        return ExponentialReservoir(capacity=5, rng=5)

    journal = tmp_path / ("sharded" if sharded else "serial")
    engine = DurableReservoir(sampler(), journal, wal_sync="never")
    for block in data:
        engine.offer_many(block)
    engine.close(final_checkpoint=False)
    reference = sampler()
    for block in data:
        reference.offer_many(block)
    prefix = sampler()
    for block in data[:-1]:
        prefix.offer_many(block)
    return journal, reference, prefix, data


def _tail_segment(journal):
    candidates = [
        p
        for p in sorted(journal.glob("wal-*.log"))
        if last_record_span(p) is not None
    ]
    return candidates[-1]


@pytest.mark.parametrize("sharded", [False, True], ids=["serial", "sharded"])
class TestColumnarJournals:
    def test_engine_writes_points_records(self, tmp_path, sharded):
        journal, reference, _prefix, _data = _points_journal(
            tmp_path, sharded
        )
        assert {_kind(f) for f in _frames(journal)} == {KIND_POINTS}
        recovered = DurableReservoir.recover(journal, wal_sync="never")
        assert _canon(recovered.state_dict()) == _canon(
            reference.state_dict()
        )
        recovered.close(final_checkpoint=False)

    def test_fault_helpers_reach_columnar_tails(self, tmp_path, sharded):
        journal, reference, prefix, _data = _points_journal(
            tmp_path, sharded
        )
        segment = _tail_segment(journal)
        assert duplicate_tail_record(segment)
        recovered = DurableReservoir.recover(journal, wal_sync="never")
        assert recovered.last_recovery.duplicates_dropped == 1
        assert _canon(recovered.state_dict()) == _canon(
            reference.state_dict()
        )
        recovered.close(final_checkpoint=False)

        journal, _reference, prefix, _data = _points_journal(
            tmp_path / "crc", sharded
        )
        assert corrupt_tail_record_crc(_tail_segment(journal))
        recovered = DurableReservoir.recover(journal, wal_sync="never")
        reasons = [r for _p, r in recovered.last_recovery.truncated_tails]
        assert reasons == ["bad_crc"]
        if not sharded:
            assert _canon(recovered.state_dict()) == _canon(
                prefix.state_dict()
            )
        recovered.close(final_checkpoint=False)

    def test_hostile_body_refused_by_recovery(self, tmp_path, sharded):
        journal, _reference, _prefix, _data = _points_journal(
            tmp_path, sharded
        )
        segment = _tail_segment(journal)
        assert hostile_points_body(segment)
        assert scan_wal(segment, min_seq=10**9).damage is None  # CRC ok
        with pytest.raises(ValueError, match=r"record seq \d+") as err:
            DurableReservoir.recover(journal, wal_sync="never")
        assert segment.name in str(err.value)


def test_torn_columnar_tail_at_every_byte(tmp_path):
    """Tearing the last points record at any byte truncates exactly that
    record; the recovered state is the prefix run's."""
    journal, _reference, prefix, _data = _points_journal(tmp_path / "probe")
    offset, size = last_record_span(_tail_segment(journal))
    want = _canon(prefix.state_dict())
    for drop in range(1, size, 7):
        journal, _ref, _prefix, _data = _points_journal(
            tmp_path / f"d{drop:05d}"
        )
        segment = _tail_segment(journal)
        tear_tail_bytes(segment, drop)
        recovered = DurableReservoir.recover(journal, wal_sync="never")
        assert recovered.last_recovery.truncated_tails
        assert segment.stat().st_size == offset
        assert _canon(recovered.state_dict()) == want, drop
        recovered.close(final_checkpoint=False)


def _points_frame(seq, header, array_bytes):
    head = header if isinstance(header, bytes) else header.encode()
    body = len(head).to_bytes(4, "little") + head + array_bytes
    return frame_record(KIND_POINTS, seq, body)


class TestHostileBodies:
    """CRC-valid points records that lie must raise, naming the segment
    and seq; they are tampering, not a torn tail to truncate."""

    @pytest.mark.parametrize(
        "header, array_bytes",
        [
            (b"{not json", b""),
            (b"\xff\xfe", b""),
            ('["b", 1, 1]', b""),
            ('{"op": "b", "n": 1}', b"\x00" * 25),
            ('{"op": "x", "n": 1, "d": 1}', b"\x00" * 25),
            ('{"op": "b", "n": -1, "d": 1}', b""),
            ('{"op": "b", "n": 1, "d": -3}', b"\x00" * 25),
            ('{"op": "b", "n": 1.5, "d": 1}', b"\x00" * 25),
            ('{"op": "b", "n": 2, "d": 1}', b"\x00" * 25),
            ('{"op": "b", "n": 1, "d": 2}', b"\x00" * 25),
            ('{"op": "s", "n": 1, "d": 1}', b"\x00" * 25),
        ],
    )
    def test_bad_header_raises(self, tmp_path, header, array_bytes):
        wal = tmp_path / "h.log"
        good = encode_record(1, WalBlock("b", _chunk_points(n=2, d=1)))
        wal.write_bytes(good + _points_frame(7, header, array_bytes))
        with pytest.raises(ValueError, match=r"h\.log, record seq 7"):
            scan_wal(wal)

    def test_short_body_raises(self, tmp_path):
        wal = tmp_path / "h.log"
        wal.write_bytes(frame_record(KIND_POINTS, 3, b"\x01"))
        with pytest.raises(ValueError, match="record seq 3"):
            scan_wal(wal)

    def test_bad_label_mask_raises(self, tmp_path):
        wal = tmp_path / "h.log"
        arrays = (
            np.array([1], "<i8").tobytes()
            + np.array([0], "<i8").tobytes()
            + b"\x02"
            + np.array([0.5], "<f8").tobytes()
        )
        wal.write_bytes(_points_frame(4, '{"op":"b","n":1,"d":1}', arrays))
        with pytest.raises(ValueError, match="record seq 4"):
            scan_wal(wal)

    def test_zero_index_raises(self, tmp_path):
        wal = tmp_path / "h.log"
        arrays = bytes(8 + 8 + 1) + np.array([0.5], "<f8").tobytes()
        wal.write_bytes(_points_frame(4, '{"op":"b","n":1,"d":1}', arrays))
        with pytest.raises(ValueError, match="record seq 4"):
            scan_wal(wal)


def test_unknown_kind_reports_bad_kind(tmp_path):
    wal = tmp_path / "k.log"
    good = encode_record(1, "a")
    wal.write_bytes(good + frame_record(9, 2, b"whatever"))
    result = scan_wal(wal)
    assert result.damage.reason == "bad_kind"
    assert result.valid_bytes == len(good)
    assert [r for _s, r in result.records] == ["a"]


class TestDispatchListener:
    def test_listener_sees_each_block_before_ingest(self):
        facade = ShardedReservoir(capacity=4, workers=2, rng=1)
        seen = []

        def listener(w, payloads, globs):
            seen.append((w, globs.tolist(), facade._workers[w].sampler.t))

        facade.dispatch_listener = listener
        facade.offer_many(list(range(6)))
        assert [(w, g) for w, g, _t in seen] == [
            (0, [1, 3, 5]),
            (1, [2, 4, 6]),
        ]
        assert [t for _w, _g, t in seen] == [0, 0]  # not yet ingested

    def test_engine_attaches_and_detaches_without_patching(self, tmp_path):
        facade = ShardedReservoir(capacity=4, workers=2, rng=1)
        engine = DurableReservoir(facade, tmp_path / "j", wal_sync="never")
        assert facade.dispatch_listener is not None
        assert "_dispatch" not in vars(facade)
        engine.close()
        assert facade.dispatch_listener is None
