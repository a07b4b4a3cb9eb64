"""Append-only write-ahead log with CRC-framed, length-prefixed records.

On-disk format
--------------

A WAL *segment* is a flat file of back-to-back records. Each record is::

    +--------+---------+------+-------------+-------------+----------+
    | magic  | version | kind | seq (int64) | len (uint32)| crc (u32)|
    | 2 B    | 1 B     | 1 B  | 8 B         | 4 B         | 4 B      |
    +--------+---------+------+-------------+-------------+----------+
    | payload (len bytes, body of the record kind, CRC-32 over them) |
    +----------------------------------------------------------------+

All integers are little-endian. ``seq`` is a strictly increasing record
sequence number assigned by the writer; the reader uses it to drop
duplicate tail records (a crash between a completed append and its
acknowledgement can legitimately leave the same record twice).

Record kinds
------------

====  ==========  ====================================================
byte  name        payload
====  ==========  ====================================================
0     pickle      one pickled Python object
1     points      a columnar block of :class:`~repro.streams.StreamPoint`
====  ==========  ====================================================

The engine journals one :class:`WalBlock` per ingestion call and
:func:`encode_record` picks the kind from the payloads alone. A
:class:`~repro.streams.point.PointBlock` goes columnar as it is, its
arrays written directly; any other block goes columnar when
:meth:`PointBlock.from_points <repro.streams.point.PointBlock.from_points>`
accepts it: every payload exactly a ``StreamPoint`` (no subclass) with
an ``int`` index, an ``int``-or-``None`` label within int64 and one
shared 1-D dimensionality ``d``. The same points give the same bytes
either way. Everything else — per-item offers,
integer or arbitrary-object payloads, ``np.int64`` labels, mixed
dimensionality — is pickled in the shape older releases wrote:
``("o", payload)``, ``("b", [payloads])`` or, for a shard dispatch,
``([global indices], [payloads])``. Readers from before the points kind
stop at a points record as tail damage.

A points body is a JSON header followed by raw little-endian arrays::

    header_len  uint32
    header      UTF-8 JSON {"op": "b" | "s", "n": n, "d": d}
    index       int64[n]     arrival indices
    label       int64[n]     labels (0 where the label is None)
    none        uint8[n]     1 where the label is None, else 0
    values      float64[n*d] feature vectors, row-major
    globs       int64[n]     global arrival indices (op "s" only)

An explicit ``none`` mask keeps ``-1`` a legal label. Decoding copies
every array out of the segment buffer into a
:class:`~repro.streams.point.PointBlock` (the record's ``payloads``),
which replay hands to the sampler whole; its rows box into
``StreamPoint`` s of the same Python types and bits as the live ones,
so crash → recover → resume stays byte-identical. A body whose arrays
hold an index below 1 is refused like a malformed header.

The reader is *tolerant*: a torn header, a short payload, a magic, kind
or CRC mismatch, or a non-monotonic garbage tail all terminate the scan
at the last fully valid record instead of raising, and report how many
clean bytes precede the damage so the caller can truncate the tail
(:func:`truncate_to`). This is the standard WAL recovery contract — a
crash mid-append must never poison the records that were already
durable. A points record whose CRC is valid but whose header is
malformed or disagrees with its length is not a torn write; the scan
raises ``ValueError`` naming the segment and ``seq`` instead.

Fsync policy
------------

``WalWriter(sync=...)`` accepts:

* ``"always"`` — flush + ``os.fsync`` after every append. Maximum
  durability, one fsync per record.
* ``"batch"`` (default) — flush to the OS after every append, fsync only
  at :meth:`WalWriter.sync` points (the engine syncs at every
  checkpoint). A kernel crash can lose the un-synced tail; the tolerant
  reader recovers to the last durable record.
* ``"never"`` — flush only; no explicit fsync (benchmark / test mode).

Writers accept an ``opener`` callable (``opener(path, mode) -> file``)
so the fault-injection harness (:mod:`repro.persist.faults`) can wrap
the file object and tear or drop writes at byte granularity.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.streams.point import PointBlock

__all__ = [
    "WAL_VERSION",
    "RECORD_MAGIC",
    "HEADER",
    "KIND_PICKLE",
    "KIND_POINTS",
    "WalBlock",
    "WalDamage",
    "ScanResult",
    "WalWriter",
    "encode_record",
    "frame_record",
    "scan_wal",
    "count_frames",
    "truncate_to",
    "last_record_span",
    "SYNC_POLICIES",
]

PathLike = Union[str, Path]
Opener = Callable[[PathLike, str], Any]

#: Current WAL record-framing schema version.
WAL_VERSION = 1

#: Two-byte frame marker opening every record.
RECORD_MAGIC = b"\xabW"

#: magic(2s) version(B) kind(B) seq(q) payload_len(I) payload_crc(I)
HEADER = struct.Struct("<2sBBqII")

#: Record kind byte: a pickled Python object.
KIND_PICKLE = 0

#: Record kind byte: a columnar block of StreamPoints (module docstring).
KIND_POINTS = 1

SYNC_POLICIES = ("always", "batch", "never")

#: Refuse to allocate absurd buffers when a corrupt length field claims
#: a multi-gigabyte payload; anything larger than this is tail damage.
_MAX_PAYLOAD = 1 << 30

_U32 = struct.Struct("<I")


class WalBlock(NamedTuple):
    """One journaled ingestion call, as the engine writes and replays it.

    ``op`` is ``"o"`` (one ``offer``; ``payloads`` is a one-element
    list), ``"b"`` (one ``offer_many`` block) or ``"s"`` (one shard
    dispatch; ``globs`` holds the payloads' int64 global arrival
    indices). A decoded points record carries its payloads as a
    :class:`~repro.streams.point.PointBlock`, a pickle record as a list.
    """

    op: str
    payloads: Any
    globs: Optional[np.ndarray] = None


@dataclass(frozen=True)
class WalDamage:
    """Description of why a scan stopped before end-of-file."""

    reason: str  # "torn_header" | "torn_payload" | "bad_magic" |
    # "bad_version" | "bad_kind" | "bad_length" | "bad_crc"
    offset: int  # byte offset of the first damaged record


@dataclass
class ScanResult:
    """Outcome of a tolerant segment scan."""

    #: Decoded ``(seq, record)`` pairs, duplicates dropped: the unpickled
    #: object for a pickle record, a :class:`WalBlock` for a points one.
    records: List[Tuple[int, Any]] = field(default_factory=list)
    #: Bytes of clean prefix (valid records end exactly here).
    valid_bytes: int = 0
    #: ``None`` for a clean file, else why the scan stopped early.
    damage: Optional[WalDamage] = None
    #: Sequence numbers of dropped duplicate tail records.
    duplicates: List[int] = field(default_factory=list)
    #: The scanned segment, named in decoding errors.
    path: Optional[Path] = None

    def blocks(self) -> List[Tuple[int, WalBlock]]:
        """The records as ``(seq, WalBlock)`` pairs, in sequence order."""
        return [(seq, self._as_block(seq, r)) for seq, r in self.records]

    def _as_block(self, seq: int, record: Any) -> WalBlock:
        if isinstance(record, WalBlock):
            return record
        if isinstance(record, tuple) and len(record) == 2:
            head, data = record
            if head == "o":
                return WalBlock("o", [data])
            if head == "b" and isinstance(data, list):
                return WalBlock("b", data)
            if isinstance(head, list) and isinstance(data, list):
                if len(head) == len(data) > 0:
                    return WalBlock("s", data, np.asarray(head, np.int64))
        raise _record_error(self.path, seq, "not an ingestion record")


def _record_error(path: Optional[Path], seq: int, why: str) -> ValueError:
    return ValueError(f"WAL segment {path}, record seq {seq}: {why}")


def frame_record(kind: int, seq: int, payload: bytes) -> bytes:
    """Frame an encoded payload of ``kind`` as WAL record bytes."""
    header = HEADER.pack(
        RECORD_MAGIC,
        WAL_VERSION,
        kind,
        int(seq),
        len(payload),
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    return header + payload


def _points_body(block: WalBlock) -> Optional[bytes]:
    """Columnar body of a StreamPoint block, or ``None`` if ineligible."""
    if block.op == "o":
        return None
    points = PointBlock.from_points(block.payloads)
    if points is None:
        return None
    arrays = [
        points.index.astype("<i8", copy=False),
        points.label.astype("<i8", copy=False),
        points.none.view(np.uint8),
        points.values.astype("<f8", copy=False),
    ]
    if block.op == "s":
        arrays.append(np.asarray(block.globs).astype("<i8", copy=False))
    n, d = points.values.shape
    header = json.dumps({"op": block.op, "n": n, "d": d}).encode()
    return b"".join(
        [_U32.pack(len(header)), header] + [a.tobytes() for a in arrays]
    )


def _pickle_form(block: WalBlock) -> Tuple[Any, Any]:
    """The pickled record shape older releases wrote for ``block``."""
    if block.op == "o":
        return ("o", block.payloads[0])
    if block.op == "s":
        return (np.asarray(block.globs).tolist(), list(block.payloads))
    return ("b", list(block.payloads))


def encode_record(seq: int, obj: Any) -> bytes:
    """Frame one record: a :class:`WalBlock` or any picklable object."""
    if isinstance(obj, WalBlock):
        body = _points_body(obj)
        if body is not None:
            return frame_record(KIND_POINTS, seq, body)
        obj = _pickle_form(obj)
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return frame_record(KIND_PICKLE, seq, payload)


def _decode_points(body: memoryview) -> WalBlock:
    """Rebuild a :class:`WalBlock` whose payloads are a
    :class:`~repro.streams.point.PointBlock` from a points body.

    ``ValueError`` if the header is malformed or disagrees with the body
    length, the label mask holds a byte other than 0/1, or an arrival
    index is below 1.
    """
    if len(body) < _U32.size:
        raise ValueError("points body shorter than its header length")
    (header_len,) = _U32.unpack_from(body)
    start = _U32.size + header_len
    try:
        header = json.loads(bytes(body[_U32.size : start]))
        op, n, d = header["op"], header["n"], header["d"]
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"malformed points header ({exc})") from None
    if (
        op not in ("b", "s")
        or type(n) is not int
        or type(d) is not int
        or n < 1
        or d < 0
    ):
        raise ValueError(f"bad points header {header!r}")
    columns = (3 if op == "s" else 2) * 8 + 1 + 8 * d
    if len(body) - start != n * columns:
        raise ValueError(
            f"points header claims n={n}, d={d} ({n * columns} array "
            f"bytes) but the body holds {len(body) - start}"
        )
    offset = start

    def take(dtype: str, count: int, native: type) -> np.ndarray:
        nonlocal offset
        raw = np.frombuffer(body, dtype=dtype, count=count, offset=offset)
        offset += raw.nbytes
        return raw.astype(native)  # a copy: never alias the segment

    index = take("<i8", n, np.int64)
    labels = take("<i8", n, np.int64)
    none = take("u1", n, np.uint8)
    if none.max() > 1:
        raise ValueError("points label mask holds a byte other than 0/1")
    values = take("<f8", n * d, np.float64).reshape(n, d)
    globs = take("<i8", n, np.int64) if op == "s" else None
    points = PointBlock(index, labels, none.view(np.bool_), values)
    return WalBlock(op, points, globs)


_DECODERS = {
    KIND_PICKLE: pickle.loads,
    KIND_POINTS: _decode_points,
}


class _Frame(NamedTuple):
    offset: int
    end: int
    kind: int
    seq: int
    payload: memoryview


def _parse_frames(data: bytes) -> Tuple[List[_Frame], Optional[WalDamage]]:
    """Every CRC-valid frame of ``data`` up to the first damage."""
    view = memoryview(data)
    frames: List[_Frame] = []
    offset = 0
    while offset < len(data):
        if offset + HEADER.size > len(data):
            return frames, WalDamage("torn_header", offset)
        magic, version, kind, seq, length, crc = HEADER.unpack_from(
            data, offset
        )
        if magic != RECORD_MAGIC:
            return frames, WalDamage("bad_magic", offset)
        if version != WAL_VERSION:
            return frames, WalDamage("bad_version", offset)
        if kind not in _DECODERS:
            return frames, WalDamage("bad_kind", offset)
        if length > _MAX_PAYLOAD:
            return frames, WalDamage("bad_length", offset)
        start = offset + HEADER.size
        end = start + length
        if end > len(data):
            return frames, WalDamage("torn_payload", offset)
        payload = view[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return frames, WalDamage("bad_crc", offset)
        frames.append(_Frame(offset, end, kind, seq, payload))
        offset = end
    return frames, None


def _read_frames(path: PathLike) -> Tuple[List[_Frame], Optional[WalDamage]]:
    path = Path(path)
    if not path.exists():
        return [], None
    return _parse_frames(path.read_bytes())


class WalWriter:
    """Appends framed records to one segment file.

    Parameters
    ----------
    path:
        Segment file; created if missing, appended to if present.
    sync:
        Fsync policy (see module docstring).
    opener:
        File factory, ``opener(path, mode) -> file-like``; the default is
        :func:`open`. Fault-injection wrappers plug in here.
    """

    def __init__(
        self,
        path: PathLike,
        sync: str = "batch",
        opener: Opener = open,
    ) -> None:
        if sync not in SYNC_POLICIES:
            raise ValueError(
                f"unknown sync policy {sync!r}; choose from {SYNC_POLICIES}"
            )
        self.path = Path(path)
        self.sync_policy = sync
        self._file = opener(self.path, "ab")
        self.bytes_written = self._file.tell() if self._file.seekable() else 0
        self.records_written = 0

    def append(self, seq: int, obj: Any) -> int:
        """Append one record; returns its encoded size in bytes."""
        frame = encode_record(seq, obj)
        self._file.write(frame)
        self._file.flush()
        if self.sync_policy == "always":
            os.fsync(self._file.fileno())
        self.bytes_written += len(frame)
        self.records_written += 1
        return len(frame)

    def sync(self) -> None:
        """Force bytes to stable storage (no-op under ``"never"``)."""
        self._file.flush()
        if self.sync_policy != "never":
            os.fsync(self._file.fileno())

    def close(self) -> None:
        if self._file is None:
            return
        try:
            self.sync()
        finally:
            self._file.close()
            self._file = None

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scan_wal(path: PathLike, min_seq: int = -1) -> ScanResult:
    """Tolerantly scan a segment, returning valid records and damage info.

    ``min_seq`` filters out records with ``seq <= min_seq`` (already
    covered by a checkpoint); they are skipped without decoding. Within
    the file, a record whose ``seq`` does not exceed its predecessor's is
    a duplicate tail (crash-between-append-and-ack) and is dropped.
    Raises ``ValueError`` naming the segment and ``seq`` for a CRC-valid
    record whose body cannot be decoded.
    """
    path = Path(path)
    frames, damage = _read_frames(path)
    result = ScanResult(damage=damage, path=path)
    last_seq: Optional[int] = None
    for frame in frames:
        if last_seq is not None and frame.seq <= last_seq:
            result.duplicates.append(frame.seq)
            continue
        last_seq = frame.seq
        if frame.seq > min_seq:
            try:
                record = _DECODERS[frame.kind](frame.payload)
            except ValueError as exc:
                raise _record_error(path, frame.seq, str(exc)) from exc
            result.records.append((frame.seq, record))
    result.valid_bytes = frames[-1].end if frames else 0
    return result


def count_frames(path: PathLike) -> Tuple[int, int]:
    """``(records, clean bytes)`` of a segment's valid prefix, counting
    duplicates and without decoding any payload."""
    frames, _damage = _read_frames(path)
    return len(frames), (frames[-1].end if frames else 0)


def truncate_to(path: PathLike, valid_bytes: int) -> bool:
    """Drop a damaged tail, keeping exactly ``valid_bytes``; True if cut."""
    path = Path(path)
    if not path.exists() or path.stat().st_size <= valid_bytes:
        return False
    with open(path, "r+b") as fh:
        fh.truncate(valid_bytes)
        fh.flush()
        os.fsync(fh.fileno())
    return True


def last_record_span(path: PathLike) -> Optional[Tuple[int, int]]:
    """``(offset, size)`` of the last fully valid record, or ``None``.

    Used by the fault harness to surgically corrupt or duplicate the
    tail record of a real segment.
    """
    frames, _damage = _read_frames(path)
    if not frames:
        return None
    return frames[-1].offset, frames[-1].end - frames[-1].offset
