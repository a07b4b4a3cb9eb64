"""Durable persistence & crash recovery for reservoir samplers.

A reservoir's whole value proposition is that its ``1/lambda``-slot
sample can be kept *forever* — which is forfeited the moment a process
crash wipes process memory. This package is the durability layer:

* :mod:`repro.persist.wal` — append-only, CRC-32-framed,
  length-prefixed write-ahead log of ingestion records, with a tolerant
  reader that detects and truncates torn or corrupt tails and drops
  duplicate tail records by sequence number.
* :mod:`repro.persist.checkpoint` — versioned, checksummed snapshot
  files written atomically (temp file + rename + directory fsync), with
  retention of the last K checkpoints.
* :mod:`repro.persist.engine` — :class:`DurableReservoir`, the facade
  wrapping any serial sampler or a sharded facade: journal first, apply
  second, checkpoint-and-roll periodically, and
  :meth:`~repro.persist.engine.DurableReservoir.recover` back to a
  sampler byte-identical to an uninterrupted run (WAL replay goes
  through the real ``offer``/``offer_many``/shard-ingest RNG paths).
* :mod:`repro.persist.faults` — the fault-injection harness (simulated
  mid-write kills via a pluggable file wrapper, plus at-rest tail
  corruption, plus a CRC-valid hostile columnar body) that the recovery
  test sweep drives.

The byte-identity contract is also enforced statistically as the
``recovery_equivalence`` spec in :mod:`repro.verify.registry`.
"""

from repro.persist.checkpoint import (
    CHECKPOINT_VERSION,
    list_checkpoints,
    load_latest_checkpoint,
    prune_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.persist.engine import (
    PERSIST_SCHEMA_VERSION,
    DurableReservoir,
    RecoveryInfo,
)
from repro.persist.faults import (
    FAULT_NAMES,
    CrashingOpener,
    FaultyFile,
    SimulatedCrash,
    corrupt_tail_record_crc,
    duplicate_tail_record,
    hostile_points_body,
    tear_tail_bytes,
    truncate_file,
)
from repro.persist.wal import (
    WAL_VERSION,
    ScanResult,
    WalDamage,
    WalWriter,
    scan_wal,
    truncate_to,
)

__all__ = [
    "DurableReservoir",
    "RecoveryInfo",
    "PERSIST_SCHEMA_VERSION",
    "WalWriter",
    "scan_wal",
    "truncate_to",
    "ScanResult",
    "WalDamage",
    "WAL_VERSION",
    "CHECKPOINT_VERSION",
    "write_checkpoint",
    "read_checkpoint",
    "list_checkpoints",
    "load_latest_checkpoint",
    "prune_checkpoints",
    "SimulatedCrash",
    "FaultyFile",
    "CrashingOpener",
    "FAULT_NAMES",
    "tear_tail_bytes",
    "corrupt_tail_record_crc",
    "duplicate_tail_record",
    "hostile_points_body",
    "truncate_file",
]
