"""Fault-injection harness for the durability layer.

Two complementary attack surfaces:

* **In-flight faults** — :class:`CrashingOpener` is a pluggable
  ``opener(path, mode)`` factory (the hook every
  :class:`~repro.persist.wal.WalWriter` accepts) whose
  :class:`FaultyFile` wrapper counts bytes across all files it opened
  and simulates a process kill mid-write: once the byte budget is
  exhausted it writes only the prefix that "made it to disk" (a torn
  write) and raises :class:`SimulatedCrash`. Sweeping the budget over
  every byte offset of a run exercises a crash at every possible write
  boundary, including between an append and its fsync.

* **At-rest corruption** — helpers that damage real on-disk state after
  a clean shutdown: tear the last record's tail bytes, flip a payload
  byte so the CRC fails, append a duplicate of the tail record, or
  truncate a checkpoint file. These model kernel-level loss and bit
  rot that no userspace write path can produce deliberately.

* **Hostile bodies** — :func:`hostile_points_body` rewrites a columnar
  tail record so its header lies about its length and re-CRCs it, the
  way a foreign or tampered journal would look.

Every fault in :data:`FAULT_NAMES` has a matching recovery assertion in
``tests/test_persist_recovery.py``: recovery must detect the damage,
truncate (not replay) the poisoned tail, and land byte-identical to the
last durable prefix. A hostile body is not damage a crash can leave, so
recovery must refuse it instead (``tests/test_persist_columnar.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, List, Optional, Union

from repro.persist.wal import (
    HEADER,
    KIND_POINTS,
    frame_record,
    last_record_span,
)

__all__ = [
    "SimulatedCrash",
    "FaultyFile",
    "CrashingOpener",
    "tear_tail_bytes",
    "corrupt_tail_record_crc",
    "duplicate_tail_record",
    "hostile_points_body",
    "truncate_file",
    "FAULT_NAMES",
]

PathLike = Union[str, Path]

#: The fault vocabulary the recovery test sweep iterates over.
FAULT_NAMES = (
    "torn_write",
    "truncated_checkpoint",
    "corrupted_crc",
    "duplicate_tail_record",
    "crash_between_fsync",
)


class SimulatedCrash(RuntimeError):
    """Raised by :class:`FaultyFile` at the injected kill point."""


class FaultyFile:
    """File-like proxy that tears a write and "kills the process".

    Forwards everything to the wrapped file until the shared byte budget
    of its :class:`CrashingOpener` runs out; the fatal write persists
    only its in-budget prefix before :class:`SimulatedCrash` propagates,
    so the on-disk state is exactly what a mid-``write(2)`` kill leaves.
    """

    def __init__(self, inner: Any, owner: "CrashingOpener") -> None:
        self._inner = inner
        self._owner = owner

    def write(self, data: bytes) -> int:
        budget = self._owner.remaining
        if budget is None or len(data) <= budget:
            if budget is not None:
                self._owner.remaining = budget - len(data)
            return self._inner.write(data)
        # Torn write: only the first `budget` bytes reach the file.
        self._owner.remaining = 0
        if budget > 0:
            self._inner.write(data[:budget])
        self._inner.flush()
        raise SimulatedCrash(
            f"simulated kill after {self._owner.crash_after_bytes} bytes "
            f"(torn write of {budget}/{len(data)} bytes)"
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc) -> None:
        self._inner.close()


class CrashingOpener:
    """``opener(path, mode)`` that kills the run after N written bytes.

    ``crash_after_bytes=None`` disables the fault (pass-through), which
    lets one test harness drive both the clean and the crashed run.
    """

    def __init__(self, crash_after_bytes: Optional[int] = None) -> None:
        self.crash_after_bytes = crash_after_bytes
        self.remaining = crash_after_bytes
        self.opened: List[Path] = []

    def __call__(self, path: PathLike, mode: str) -> Any:
        self.opened.append(Path(path))
        inner = open(path, mode)
        if self.remaining is None:
            return inner
        return FaultyFile(inner, self)


def tear_tail_bytes(path: PathLike, drop: int) -> int:
    """Truncate the last ``drop`` bytes of ``path`` (a torn tail write).

    Returns the new size. ``drop`` larger than the file empties it.
    """
    path = Path(path)
    size = path.stat().st_size
    keep = max(0, size - max(0, int(drop)))
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return keep


def corrupt_tail_record_crc(path: PathLike) -> bool:
    """Flip one payload byte of the last WAL record so its CRC fails.

    Returns ``False`` when the file holds no complete record to damage.
    """
    span = last_record_span(path)
    if span is None:
        return False
    offset, size = span
    with open(path, "r+b") as fh:
        fh.seek(offset + size - 1)  # last payload byte
        byte = fh.read(1)
        fh.seek(offset + size - 1)
        fh.write(bytes([byte[0] ^ 0xFF]))
    return True


def duplicate_tail_record(path: PathLike) -> bool:
    """Re-append a byte-exact copy of the last WAL record.

    Models a crash between a completed append and its acknowledgement
    followed by a client retry; the reader's sequence-number check must
    drop the duplicate instead of replaying it twice.
    """
    span = last_record_span(path)
    if span is None:
        return False
    offset, size = span
    data = Path(path).read_bytes()
    with open(path, "ab") as fh:
        fh.write(data[offset : offset + size])
    return True


def hostile_points_body(path: PathLike) -> bool:
    """Make the last WAL record a CRC-valid points record that lies.

    Rewrites the JSON header's ``n`` to one more than the record holds,
    then re-frames the body with a fresh CRC, so only the body check can
    catch it. Returns ``False`` when the tail record is not columnar.
    """
    span = last_record_span(path)
    if span is None:
        return False
    offset, size = span
    data = Path(path).read_bytes()
    _magic, _version, kind, seq, _length, _crc = HEADER.unpack_from(
        data, offset
    )
    if kind != KIND_POINTS:
        return False
    body = data[offset + HEADER.size : offset + size]
    header_len = int.from_bytes(body[:4], "little")
    header = json.loads(body[4 : 4 + header_len])
    header["n"] += 1
    new_header = json.dumps(header).encode()
    new_body = (
        len(new_header).to_bytes(4, "little")
        + new_header
        + body[4 + header_len :]
    )
    with open(path, "r+b") as fh:
        fh.truncate(offset)
        fh.seek(offset)
        fh.write(frame_record(KIND_POINTS, seq, new_body))
    return True


def truncate_file(path: PathLike, keep_bytes: int) -> int:
    """Truncate any file (e.g. a checkpoint) to ``keep_bytes``."""
    path = Path(path)
    keep = max(0, min(int(keep_bytes), path.stat().st_size))
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return keep
