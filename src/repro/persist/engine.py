"""`DurableReservoir`: crash-safe ingestion over any reservoir sampler.

The engine journals every ingestion call to a write-ahead log *before*
applying it to the wrapped sampler, and periodically persists the
sampler's complete :meth:`~repro.core.reservoir.ReservoirSampler.state_dict`
(counters, storage, family extras, and the RNG bit-generator state) as
an atomic checkpoint. :meth:`DurableReservoir.recover` loads the newest
valid checkpoint and replays the WAL tail **through the sampler's real
ingestion path** — ``offer`` / ``offer_many`` for serial samplers, the
per-shard ``ShardWorker.ingest`` kernel for sharded ones — so the
recovered sampler consumes exactly the random sequence the uninterrupted
run would have, and its ``state_dict()`` is byte-identical to never
having crashed (asserted record-by-record in
``tests/test_persist_recovery.py``).

Journal layout (all inside one directory)::

    ckpt-0000000000.ckpt     checkpoint at record seq 0 (initial state)
    ckpt-0000000421.ckpt     newer checkpoints, last `retain` kept
    wal-main-000000.log      serial WAL segments, one per generation
    wal-shard000-000001.log  sharded mode: per-shard segments instead

The WAL rolls to a new *generation* of segments at every checkpoint
(compaction): a checkpoint records the generation opened immediately
after it, recovery replays all generations >= that number, and segments
older than the oldest retained checkpoint's generation are deleted.
Checkpoints fire explicitly (:meth:`checkpoint`) or automatically every
``checkpoint_every_records`` WAL records / ``checkpoint_every_bytes``
WAL bytes.

Sharded mode
------------

Wrapping a :class:`~repro.shard.coordinator.ShardedReservoir` sets the
facade's ``dispatch_listener``: every block a shard worker ingests —
whether from ``offer_many`` partitioning or from the per-item buffer
flushing — is journaled to that shard's own segment as one ``"s"``
:class:`~repro.persist.wal.WalBlock` *keyed by global arrival index*,
before the worker sees it.
Within a shard, records replay in sequence order; across shards order is
irrelevant because worker RNG streams are independent. Per-item offers
that are still sitting in the facade's in-memory buffer are not yet
durable — call :meth:`flush` (or :meth:`checkpoint`, which flushes) to
push them over the dispatch boundary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.reservoir import from_state_dict
from repro.persist.checkpoint import (
    list_checkpoints,
    load_latest_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.persist.wal import (
    SYNC_POLICIES,
    ScanResult,
    WalBlock,
    WalWriter,
    count_frames,
    scan_wal,
    truncate_to,
)
from repro.streams.point import PointBlock

__all__ = ["DurableReservoir", "RecoveryInfo", "PERSIST_SCHEMA_VERSION"]

PathLike = Union[str, Path]
Opener = Callable[[PathLike, str], Any]

#: Schema version of the checkpoint payload this engine writes/reads.
PERSIST_SCHEMA_VERSION = 1

_SEGMENT_RE = re.compile(r"^wal-(?P<stream>[a-z0-9]+)-(?P<gen>\d{6})\.log$")


def _segment_name(stream: str, generation: int) -> str:
    return f"wal-{stream}-{generation:06d}.log"


def _is_sharded(sampler: Any) -> bool:
    return hasattr(sampler, "worker_states") and hasattr(sampler, "partitioner")


@dataclass
class RecoveryInfo:
    """What :meth:`DurableReservoir.recover` found and did."""

    checkpoint_seq: int
    generation: int
    records_replayed: int = 0
    duplicates_dropped: int = 0
    #: ``(segment path, damage reason)`` for every truncated torn/corrupt
    #: tail; the damaged bytes were cut, not replayed.
    truncated_tails: List[Tuple[str, str]] = field(default_factory=list)


class DurableReservoir:
    """Durable ingestion facade over a sampler or sharded facade.

    Parameters
    ----------
    sampler:
        Any :class:`~repro.core.reservoir.ReservoirSampler` or a
        :class:`~repro.shard.coordinator.ShardedReservoir`.
    directory:
        Journal directory. Starting a *new* engine requires it to hold
        no prior journal (use :meth:`recover` to resume one).
    wal_sync:
        WAL fsync policy: ``"always"``, ``"batch"`` (default), or
        ``"never"`` — see :mod:`repro.persist.wal`.
    checkpoint_every_records / checkpoint_every_bytes:
        Auto-checkpoint (and WAL-roll) thresholds on the current
        generation; ``None`` disables that trigger.
    retain_checkpoints:
        How many checkpoints (and their WAL generations) to keep.
    opener:
        WAL file factory for fault injection; default :func:`open`.
    """

    def __init__(
        self,
        sampler: Any,
        directory: PathLike,
        wal_sync: str = "batch",
        checkpoint_every_records: Optional[int] = None,
        checkpoint_every_bytes: Optional[int] = None,
        retain_checkpoints: int = 3,
        opener: Opener = open,
        _recovering: bool = False,
    ) -> None:
        if wal_sync not in SYNC_POLICIES:
            raise ValueError(
                f"unknown wal_sync {wal_sync!r}; choose from {SYNC_POLICIES}"
            )
        for name, value in (
            ("checkpoint_every_records", checkpoint_every_records),
            ("checkpoint_every_bytes", checkpoint_every_bytes),
        ):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if retain_checkpoints < 1:
            raise ValueError(
                f"retain_checkpoints must be >= 1, got {retain_checkpoints}"
            )
        if _is_sharded(sampler):
            from repro.shard.partition import snapshot_name

            if snapshot_name(sampler.partitioner) is None:
                # recover() rebuilds the facade from its checkpoint alone.
                raise ValueError(
                    f"partitioner {type(sampler.partitioner).__name__} "
                    "cannot be rebuilt from a checkpoint (only round-robin "
                    "and default-key hash partitioners can), so a recovered "
                    "facade would route later offers differently"
                )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sampler = sampler
        self.wal_sync = wal_sync
        self.checkpoint_every_records = checkpoint_every_records
        self.checkpoint_every_bytes = checkpoint_every_bytes
        self.retain_checkpoints = retain_checkpoints
        self._opener = opener
        self._sharded = _is_sharded(sampler)
        self._streams = (
            [f"shard{w:03d}" for w in range(sampler.workers)]
            if self._sharded
            else ["main"]
        )
        self._writers: Dict[str, WalWriter] = {}
        self._seq = 0
        self._generation = 0
        self._records_in_generation = 0
        self._bytes_in_generation = 0
        self._closed = False
        self.last_recovery: Optional[RecoveryInfo] = None
        self._sharded_max_glob = 0
        if self._sharded:
            sampler.dispatch_listener = self._journal_dispatch
        if not _recovering:
            if self._existing_journal():
                raise ValueError(
                    f"{self.directory} already holds a journal; use "
                    "DurableReservoir.recover() to resume it (or point a "
                    "new engine at an empty directory)"
                )
            self._open_writers()
            # Anchor recovery: the initial state is checkpoint 0, so a
            # crash before the first explicit checkpoint still recovers.
            self.checkpoint()

    # ------------------------------------------------------------------ #
    # Journal plumbing
    # ------------------------------------------------------------------ #

    def _existing_journal(self) -> bool:
        return bool(
            list(self.directory.glob("ckpt-*.ckpt"))
            or list(self.directory.glob("wal-*.log"))
        )

    def _open_writers(self) -> None:
        for stream in self._streams:
            self._writers[stream] = WalWriter(
                self.directory / _segment_name(stream, self._generation),
                sync=self.wal_sync,
                opener=self._opener,
            )

    def _close_writers(self) -> None:
        for writer in self._writers.values():
            writer.close()
        self._writers = {}

    def _journal(self, stream: str, block: WalBlock) -> None:
        self._seq += 1
        size = self._writers[stream].append(self._seq, block)
        self._records_in_generation += 1
        self._bytes_in_generation += size

    def _journal_dispatch(self, w: int, payloads, globs) -> None:
        """Dispatch listener: journal a shard block before it is ingested."""
        self._journal(self._streams[w], WalBlock("s", payloads, globs))

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def offer(self, payload: Any) -> bool:
        """Journal then apply one arrival.

        Serial samplers journal one ``"o"`` record per offer.
        Sharded facades route through their per-item buffer; the WAL
        record is written when the buffered block is dispatched to its
        shard (see the module docstring on the durability boundary).
        """
        self._check_open()
        if self._sharded:
            stored = self.sampler.offer(payload)
        else:
            self._journal("main", WalBlock("o", [payload]))
            stored = self.sampler.offer(payload)
        self._maybe_checkpoint()
        return stored

    def offer_many(self, payloads: Iterable[Any]) -> int:
        """Journal then apply a block of arrivals.

        A :class:`~repro.streams.point.PointBlock` goes to the journal
        and the sampler whole; any other iterable is listed first.
        """
        self._check_open()
        block = payloads if isinstance(payloads, PointBlock) else list(payloads)
        if not len(block):
            return 0
        if self._sharded:
            # The dispatch listener journals each shard's sub-block.
            stored = self.sampler.offer_many(block)
        else:
            self._journal("main", WalBlock("b", block))
            stored = self.sampler.offer_many(block)
        self._maybe_checkpoint()
        return stored

    def extend(self, payloads: Iterable[Any]) -> int:
        """Alias for :meth:`offer_many`."""
        return self.offer_many(payloads)

    def flush(self) -> None:
        """Push sharded per-item buffers over the durable boundary."""
        self._check_open()
        if self._sharded:
            self.sampler.flush()

    def sync(self) -> None:
        """Fsync every open WAL segment."""
        for writer in self._writers.values():
            writer.sync()

    # ------------------------------------------------------------------ #
    # Checkpoint / compaction
    # ------------------------------------------------------------------ #

    def _maybe_checkpoint(self) -> None:
        n, b = self.checkpoint_every_records, self.checkpoint_every_bytes
        if (n is not None and self._records_in_generation >= n) or (
            b is not None and self._bytes_in_generation >= b
        ):
            self.checkpoint()

    def checkpoint(self) -> Path:
        """Snapshot the sampler, roll the WAL, prune old state.

        Sequence: flush buffered offers (their dispatch records land in
        the *current* generation), fsync the WAL, capture
        ``state_dict()``, open the next generation's segments, write the
        checkpoint naming that generation, then delete checkpoints and
        segments beyond the retention horizon.
        """
        self._check_open()
        if self._sharded:
            self.sampler.flush()
        self.sync()
        state = self.sampler.state_dict()
        self._close_writers()
        self._generation += 1
        self._open_writers()
        self._records_in_generation = 0
        self._bytes_in_generation = 0
        payload = {
            "schema": PERSIST_SCHEMA_VERSION,
            "kind": "sharded" if self._sharded else "serial",
            "record_seq": self._seq,
            "generation": self._generation,
            "streams": list(self._streams),
            "wal_sync": self.wal_sync,
            "sampler": state,
        }
        path = write_checkpoint(
            self.directory, self._seq, payload, retain=self.retain_checkpoints
        )
        self._prune_segments()
        return path

    def _prune_segments(self) -> None:
        """Delete WAL generations no retained checkpoint can need."""
        # Oldest retained checkpoint decides the oldest needed generation.
        floor = self._oldest_retained_generation()
        if floor is None:
            return
        for path in self.directory.glob("wal-*.log"):
            match = _SEGMENT_RE.match(path.name)
            if match and int(match.group("gen")) < floor:
                try:
                    path.unlink()
                except OSError:
                    pass

    def _oldest_retained_generation(self) -> Optional[int]:
        for _seq, path in list_checkpoints(self.directory):  # oldest first
            try:
                return int(read_checkpoint(path)["generation"])
            except (ValueError, KeyError, EOFError):
                continue
        return None

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    @classmethod
    def recover(
        cls,
        directory: PathLike,
        wal_sync: str = "batch",
        checkpoint_every_records: Optional[int] = None,
        checkpoint_every_bytes: Optional[int] = None,
        retain_checkpoints: int = 3,
        opener: Opener = open,
    ) -> "DurableReservoir":
        """Rebuild the engine from the newest valid checkpoint + WAL tail.

        Torn or CRC-corrupt WAL tails are detected and *truncated* (never
        replayed); duplicate tail records are dropped by sequence number;
        a damaged newest checkpoint falls back to the previous retained
        one, whose WAL generations are still on disk. Details land in
        :attr:`last_recovery`.
        """
        directory = Path(directory)
        loaded = load_latest_checkpoint(directory)
        if loaded is None:
            raise ValueError(
                f"no valid checkpoint in {directory}; nothing to recover"
            )
        _seq_name, payload = loaded
        schema = payload.get("schema")
        if schema != PERSIST_SCHEMA_VERSION:
            raise ValueError(
                f"checkpoint schema version {schema!r} is not supported by "
                f"this library (expected {PERSIST_SCHEMA_VERSION})"
            )
        kind = payload["kind"]
        if kind == "sharded":
            from repro.shard import ShardedReservoir

            sampler = ShardedReservoir.from_state_dict(payload["sampler"])
        else:
            sampler = from_state_dict(payload["sampler"])
        engine = cls(
            sampler,
            directory,
            wal_sync=wal_sync,
            checkpoint_every_records=checkpoint_every_records,
            checkpoint_every_bytes=checkpoint_every_bytes,
            retain_checkpoints=retain_checkpoints,
            opener=opener,
            _recovering=True,
        )
        info = RecoveryInfo(
            checkpoint_seq=int(payload["record_seq"]),
            generation=int(payload["generation"]),
        )
        engine._seq = int(payload["record_seq"])
        engine._generation = int(payload["generation"])
        engine._replay(payload, info)
        engine.last_recovery = info
        return engine

    def _segments_for(self, stream: str, from_generation: int):
        """Existing segments of one stream, ascending generation."""
        out = []
        for path in self.directory.glob(f"wal-{stream}-*.log"):
            match = _SEGMENT_RE.match(path.name)
            if match and int(match.group("gen")) >= from_generation:
                out.append((int(match.group("gen")), path))
        return sorted(out)

    def _replay(self, payload: Dict[str, Any], info: RecoveryInfo) -> None:
        min_seq = int(payload["record_seq"])
        from_gen = int(payload["generation"])
        max_gen = from_gen
        tail_records = 0
        tail_bytes = 0
        for w, stream in enumerate(self._streams):
            segments = self._segments_for(stream, from_gen)
            for gen, path in segments:
                result = scan_wal(path, min_seq=min_seq)
                self._apply_records(w, result)
                info.records_replayed += len(result.records)
                info.duplicates_dropped += len(result.duplicates)
                if result.records:
                    self._seq = max(self._seq, result.records[-1][0])
                max_gen = max(max_gen, gen)
                if result.damage is not None:
                    truncate_to(path, result.valid_bytes)
                    info.truncated_tails.append(
                        (str(path), result.damage.reason)
                    )
                    # Everything after the first damage in a stream is
                    # untrusted; do not replay later generations of it.
                    break
        # Resume appending into the newest generation present on disk.
        self._generation = max_gen
        for stream in self._streams:
            records, clean = count_frames(
                self.directory / _segment_name(stream, max_gen)
            )
            tail_records += records
            tail_bytes += clean
        self._records_in_generation = tail_records
        self._bytes_in_generation = tail_bytes
        self._open_writers()
        if self._sharded:
            self._finish_sharded_replay()

    def _apply_records(self, w: int, result: ScanResult) -> None:
        """Feed replayed records through the sampler's real ingest path."""
        for seq, block in result.blocks():
            if self._sharded != (block.op == "s"):
                raise ValueError(
                    f"WAL segment {result.path}, record seq {seq}: op "
                    f"{block.op!r} does not belong in this journal"
                )
            if block.op == "o":
                self.sampler.offer(block.payloads[0])
            elif block.op == "b":
                self.sampler.offer_many(block.payloads)
            else:
                self.sampler._workers[w].ingest(block.payloads, block.globs)
                self._sharded_max_glob = max(
                    self._sharded_max_glob, int(block.globs[-1])
                )

    def _finish_sharded_replay(self) -> None:
        """Advance the facade clock past every replayed global index."""
        if self._sharded_max_glob > self.sampler.t:
            self.sampler.t = self._sharded_max_glob

    # ------------------------------------------------------------------ #
    # Passthrough inspection
    # ------------------------------------------------------------------ #

    @property
    def capacity(self) -> int:
        return self.sampler.capacity

    @property
    def t(self) -> int:
        return self.sampler.t

    @property
    def size(self) -> int:
        return self.sampler.size

    def payloads(self) -> List[Any]:
        return self.sampler.payloads()

    def entries(self):
        return self.sampler.entries()

    def state_dict(self) -> Dict[str, Any]:
        return self.sampler.state_dict()

    def __len__(self) -> int:
        return self.sampler.size

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("DurableReservoir is closed")

    def close(self, final_checkpoint: bool = True) -> None:
        """Checkpoint (by default), detach, and release file handles."""
        if self._closed:
            return
        if final_checkpoint:
            self.checkpoint()
        if self._sharded:
            self.sampler.dispatch_listener = None
        self._close_writers()
        self._closed = True

    def __enter__(self) -> "DurableReservoir":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Crash-path exits skip the final checkpoint: recovery must see
        # exactly what the WAL captured, not a rescue snapshot.
        self.close(final_checkpoint=exc_type is None)

    def __repr__(self) -> str:
        return (
            f"DurableReservoir({type(self.sampler).__name__}, "
            f"dir={str(self.directory)!r}, sync={self.wal_sync!r}, "
            f"seq={self._seq}, generation={self._generation})"
        )
