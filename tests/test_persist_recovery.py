"""Crash-recovery equivalence for :class:`repro.persist.DurableReservoir`.

The durability contract under test: crash at any record boundary (or at
any byte inside a record, via the fault opener), recover, resume — and
the final ``state_dict()``, *including the RNG bit-generator state*, is
byte-for-byte identical to a run that never crashed. Every fault in
:data:`repro.persist.FAULT_NAMES` is exercised against both the serial
sampler and the sharded facade.

The kill-at-every-record sweeps run over integer payloads (journaled as
pickle records) and ``StreamPoint`` payloads (journaled as columnar
records). States compare as a memo-free pickle: a resident restored from
a checkpoint carries its own unpickled dtype object where a live one
shares numpy's, and a memo would encode that sharing, not the state.

This suite asserts exact RNG-path equivalence, so it is run with
``-p no:randomly`` in CI (random test order does not change outcomes —
each test seeds its own samplers — but the flag keeps failure replays
deterministic).
"""

import io
import pickle
import random

import numpy as np
import pytest

from repro.core import ExponentialReservoir
from repro.persist import (
    FAULT_NAMES,
    CrashingOpener,
    DurableReservoir,
    SimulatedCrash,
    corrupt_tail_record_crc,
    duplicate_tail_record,
    list_checkpoints,
    tear_tail_bytes,
    truncate_file,
)
from repro.persist.wal import last_record_span
from repro.shard import ShardedReservoir
from repro.streams import StreamPoint

CAPACITY = 8
SEED = 42
SH_CAPACITY, SH_WORKERS, SH_SEED = 12, 3, 5


def _canon(state):
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.fast = True  # no memo: compare state, not object sharing
    pickler.dump(state)
    return buffer.getvalue()


#: Run a sweep over integer and StreamPoint payloads.
PAYLOADS = pytest.mark.parametrize(
    "points", [False, True], ids=["int", "streampoint"]
)


def _points(xs):
    """StreamPoints for arrivals ``xs``: row views of one chunk array, as
    generators produce, with ``None`` and ``-1`` among the labels."""
    xs = [int(x) for x in xs]
    arr = np.asarray(xs, dtype=np.float64)
    chunk = np.column_stack([arr * 0.5, -arr, np.sqrt(arr)])
    return [
        StreamPoint(x + 1, row, None if x % 3 == 0 else x % 4 - 1)
        for x, row in zip(xs, chunk)
    ]


def _kill(engine):
    """Abandon the engine without a final checkpoint (process death)."""
    engine.close(final_checkpoint=False)


def _serial_sampler():
    return ExponentialReservoir(capacity=CAPACITY, rng=SEED)


def _sharded_sampler():
    return ShardedReservoir(
        capacity=SH_CAPACITY, workers=SH_WORKERS, rng=SH_SEED
    )


def _serial_ops(n=18, seed=0, points=False):
    """Deterministic mix of per-item offers and offer_many blocks.

    ``offer`` and ``offer_many`` consume different random sequences, so
    the mix is what proves the WAL preserves the exact call shape. With
    ``points`` the payloads are StreamPoints instead of integers."""
    rnd = random.Random(seed)
    ops, x = [], 0
    for _ in range(n):
        if rnd.random() < 0.5:
            ops.append(("o", x))
            x += 1
        else:
            k = rnd.randrange(1, 5)
            ops.append(("b", list(range(x, x + k))))
            x += k
    if points:
        ops = [
            (op, _points([data])[0] if op == "o" else _points(data))
            for op, data in ops
        ]
    return ops


def _apply(target, ops):
    for op, data in ops:
        if op == "o":
            target.offer(data)
        else:
            target.offer_many(data)


def _serial_reference(ops):
    sampler = _serial_sampler()
    _apply(sampler, ops)
    return _canon(sampler.state_dict())


def _blocks(n=12, size=7, points=False):
    blocks = [list(range(i * size, (i + 1) * size)) for i in range(n)]
    return [_points(b) for b in blocks] if points else blocks


def _sharded_reference(blocks):
    facade = _sharded_sampler()
    for block in blocks:
        facade.offer_many(block)
    return _canon(facade.state_dict())


def _newest_nonempty_segment(directory, stream="main"):
    candidates = [
        p
        for p in sorted(directory.glob(f"wal-{stream}*-*.log"))
        if last_record_span(p) is not None
    ]
    assert candidates, f"no non-empty {stream} segment in {directory}"
    return candidates[-1]


class TestSerialKillSweep:
    @PAYLOADS
    def test_kill_at_every_record_boundary(self, tmp_path, points):
        """Crash after each of the N ops; recover+resume == uninterrupted."""
        ops = _serial_ops(points=points)
        want = _serial_reference(ops)
        for k in range(len(ops) + 1):
            journal = tmp_path / f"j{k:02d}"
            engine = DurableReservoir(
                _serial_sampler(),
                journal,
                wal_sync="never",
                checkpoint_every_records=5,
            )
            _apply(engine, ops[:k])
            _kill(engine)
            recovered = DurableReservoir.recover(journal, wal_sync="never")
            _apply(recovered, ops[k:])
            assert _canon(recovered.state_dict()) == want, (
                f"state diverged after crash at record boundary {k}"
            )
            recovered.close(final_checkpoint=False)

    def test_crash_mid_write_sweep(self, tmp_path):
        """FAULT crash_between_fsync (serial): kill at byte offsets inside
        the WAL stream; the torn record is truncated, never replayed, and
        its op re-fed on resume lands byte-identical."""
        ops = _serial_ops()
        want = _serial_reference(ops)
        # Clean probe run to learn the journal's total WAL byte count.
        probe_dir = tmp_path / "probe"
        probe = DurableReservoir(
            _serial_sampler(),
            probe_dir,
            wal_sync="batch",
            checkpoint_every_records=5,
            retain_checkpoints=99,
        )
        _apply(probe, ops)
        _kill(probe)
        total = sum(
            p.stat().st_size for p in probe_dir.glob("wal-main-*.log")
        )
        assert total > 0
        crashes = 0
        for budget in range(1, total, 29):
            journal = tmp_path / f"b{budget:05d}"
            opener = CrashingOpener(crash_after_bytes=budget)
            engine = DurableReservoir(
                _serial_sampler(),
                journal,
                wal_sync="batch",
                checkpoint_every_records=5,
                opener=opener,
            )
            applied = 0
            try:
                for op in ops:
                    _apply(engine, [op])
                    applied += 1
            except SimulatedCrash:
                crashes += 1
            _kill(engine)
            recovered = DurableReservoir.recover(journal, wal_sync="never")
            _apply(recovered, ops[applied:])
            assert _canon(recovered.state_dict()) == want, (
                f"state diverged after mid-write crash at byte {budget}"
            )
            recovered.close(final_checkpoint=False)
        assert crashes > 0, "sweep never triggered the injected crash"


class TestShardedKillSweep:
    @PAYLOADS
    def test_kill_at_every_block_boundary(self, tmp_path, points):
        blocks = _blocks(points=points)
        want = _sharded_reference(blocks)
        for k in range(len(blocks) + 1):
            journal = tmp_path / f"j{k:02d}"
            engine = DurableReservoir(
                _sharded_sampler(),
                journal,
                wal_sync="never",
                checkpoint_every_records=4,
            )
            for block in blocks[:k]:
                engine.offer_many(block)
            _kill(engine)
            recovered = DurableReservoir.recover(journal, wal_sync="never")
            for block in blocks[k:]:
                recovered.offer_many(block)
            assert _canon(recovered.state_dict()) == want, (
                f"sharded state diverged after crash at block boundary {k}"
            )
            recovered.close(final_checkpoint=False)

    def test_crash_mid_dispatch_recovers_journal_consistent(self, tmp_path):
        """FAULT crash_between_fsync (sharded): a kill inside one shard's
        dispatch write leaves that shard's record torn; recovery truncates
        it and lands exactly on the crashed process's in-memory worker
        states (journal-first: the torn shard never ingested its block)."""
        blocks = _blocks()
        probe_dir = tmp_path / "probe"
        probe = DurableReservoir(
            _sharded_sampler(), probe_dir, wal_sync="never"
        )
        for block in blocks:
            probe.offer_many(block)
        _kill(probe)
        total = sum(
            p.stat().st_size for p in probe_dir.glob("wal-shard*.log")
        )
        crashes = 0
        truncations = 0
        for budget in (total // 4, total // 2 + 3, (3 * total) // 4 + 7):
            journal = tmp_path / f"b{budget:05d}"
            facade = _sharded_sampler()
            engine = DurableReservoir(
                facade,
                journal,
                wal_sync="never",
                opener=CrashingOpener(crash_after_bytes=budget),
            )
            try:
                for block in blocks:
                    engine.offer_many(block)
            except SimulatedCrash:
                crashes += 1
            _kill(engine)
            want_workers = _canon(facade.worker_states())
            recovered = DurableReservoir.recover(journal, wal_sync="never")
            assert (
                _canon(recovered.sampler.worker_states()) == want_workers
            ), f"worker states diverged after mid-dispatch crash at {budget}"
            truncations += len(recovered.last_recovery.truncated_tails)
            # The engine stays usable after recovery.
            recovered.offer_many([9999])
            recovered.close(final_checkpoint=False)
        assert crashes == 3, "every budget should land mid-stream"
        # A budget that lands exactly on a record boundary tears zero
        # bytes (clean tail); across the sweep at least one must tear.
        assert truncations > 0

    def test_buffered_offers_durable_only_after_flush(self, tmp_path):
        """Per-item offers sit in the facade buffer until dispatched;
        flush() is the durability boundary the engine documents."""
        unflushed = tmp_path / "unflushed"
        engine = DurableReservoir(_sharded_sampler(), unflushed)
        for x in range(5):
            engine.offer(x)
        _kill(engine)  # buffer never dispatched -> nothing journaled
        recovered = DurableReservoir.recover(unflushed)
        assert recovered.t == 0
        recovered.close(final_checkpoint=False)

        flushed = tmp_path / "flushed"
        engine = DurableReservoir(_sharded_sampler(), flushed)
        for x in range(5):
            engine.offer(x)
        engine.flush()
        _kill(engine)
        recovered = DurableReservoir.recover(flushed)
        assert recovered.t == 5
        assert sorted(recovered.payloads()) == [0, 1, 2, 3, 4]
        recovered.close(final_checkpoint=False)


def _make_journal(tmp_path, sharded, with_mid_checkpoint=False):
    """Build a killed (crashed) journal plus its uninterrupted reference."""
    journal = tmp_path / "journal"
    if sharded:
        blocks = _blocks()
        engine = DurableReservoir(
            _sharded_sampler(), journal, wal_sync="never"
        )
        for i, block in enumerate(blocks):
            if with_mid_checkpoint and i == len(blocks) // 2:
                engine.checkpoint()
            engine.offer_many(block)
        tail = [blocks[-1]]
        reference = _sharded_reference(blocks)
        prefix_reference = _sharded_reference(blocks[:-1])
    else:
        ops = _serial_ops()
        engine = DurableReservoir(
            _serial_sampler(), journal, wal_sync="never"
        )
        if with_mid_checkpoint:
            _apply(engine, ops[: len(ops) // 2])
            engine.checkpoint()
            _apply(engine, ops[len(ops) // 2 :])
        else:
            _apply(engine, ops)
        tail = [ops[-1]]
        reference = _serial_reference(ops)
        prefix_reference = _serial_reference(ops[:-1])
    _kill(engine)
    return journal, tail, reference, prefix_reference


@pytest.mark.parametrize("sharded", [False, True], ids=["serial", "sharded"])
class TestFaultMatrix:
    """Every fault in FAULT_NAMES x {serial, sharded}; see also the
    crash_between_fsync sweeps in the kill-sweep classes above."""

    def test_torn_write_truncated_then_resumable(self, tmp_path, sharded):
        journal, tail, reference, prefix_reference = _make_journal(
            tmp_path, sharded
        )
        segment = _newest_nonempty_segment(
            journal, "shard" if sharded else "main"
        )
        tear_tail_bytes(segment, 3)
        recovered = DurableReservoir.recover(journal, wal_sync="never")
        info = recovered.last_recovery
        assert [reason for _path, reason in info.truncated_tails] == [
            "torn_payload"
        ]
        if sharded:
            # One shard lost its sub-block of the final offer_many; exact
            # prefix equality is asserted serially, idempotence here.
            recovered.close(final_checkpoint=False)
            again = DurableReservoir.recover(journal, wal_sync="never")
            assert _canon(again.state_dict()) == _canon(
                recovered.state_dict()
            )
            again.close(final_checkpoint=False)
        else:
            # Damage removed exactly the final op: state == prefix run,
            # and re-feeding that op == the uninterrupted run.
            assert _canon(recovered.state_dict()) == prefix_reference
            _apply(recovered, tail)
            assert _canon(recovered.state_dict()) == reference
            recovered.close(final_checkpoint=False)

    def test_corrupted_crc_truncated_then_resumable(self, tmp_path, sharded):
        journal, tail, reference, prefix_reference = _make_journal(
            tmp_path, sharded
        )
        segment = _newest_nonempty_segment(
            journal, "shard" if sharded else "main"
        )
        assert corrupt_tail_record_crc(segment)
        recovered = DurableReservoir.recover(journal, wal_sync="never")
        info = recovered.last_recovery
        assert [reason for _path, reason in info.truncated_tails] == [
            "bad_crc"
        ]
        if not sharded:
            assert _canon(recovered.state_dict()) == prefix_reference
            _apply(recovered, tail)
            assert _canon(recovered.state_dict()) == reference
        recovered.close(final_checkpoint=False)

    def test_duplicate_tail_record_dropped(self, tmp_path, sharded):
        journal, _tail, reference, _prefix = _make_journal(tmp_path, sharded)
        segment = _newest_nonempty_segment(
            journal, "shard" if sharded else "main"
        )
        assert duplicate_tail_record(segment)
        recovered = DurableReservoir.recover(journal, wal_sync="never")
        assert recovered.last_recovery.duplicates_dropped == 1
        assert not recovered.last_recovery.truncated_tails
        assert _canon(recovered.state_dict()) == reference
        recovered.close(final_checkpoint=False)

    def test_truncated_checkpoint_falls_back(self, tmp_path, sharded):
        journal, _tail, reference, _prefix = _make_journal(
            tmp_path, sharded, with_mid_checkpoint=True
        )
        checkpoints = list_checkpoints(journal)
        assert len(checkpoints) >= 2
        newest_seq, newest_path = checkpoints[-1]
        truncate_file(newest_path, newest_path.stat().st_size - 4)
        recovered = DurableReservoir.recover(journal, wal_sync="never")
        # Fell back to an older checkpoint, then the retained WAL
        # generations replayed the gap to full byte-identity.
        assert recovered.last_recovery.checkpoint_seq < newest_seq
        assert recovered.last_recovery.records_replayed > 0
        assert _canon(recovered.state_dict()) == reference
        recovered.close(final_checkpoint=False)


class TestEngineLifecycle:
    def test_recover_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to recover"):
            DurableReservoir.recover(tmp_path / "nope")

    def test_fresh_engine_refuses_existing_journal(self, tmp_path):
        journal = tmp_path / "journal"
        DurableReservoir(_serial_sampler(), journal).close()
        with pytest.raises(ValueError, match="already holds a journal"):
            DurableReservoir(_serial_sampler(), journal)

    def test_closed_engine_rejects_offers(self, tmp_path):
        engine = DurableReservoir(_serial_sampler(), tmp_path / "j")
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.offer(1)

    def test_unknown_checkpoint_schema_rejected(self, tmp_path):
        from repro.persist import write_checkpoint

        journal = tmp_path / "journal"
        engine = DurableReservoir(_serial_sampler(), journal)
        engine.offer(1)
        engine.close()
        newest_seq = list_checkpoints(journal)[-1][0]
        payload = {"schema": 99, "kind": "serial"}
        write_checkpoint(journal, newest_seq + 1, payload)
        with pytest.raises(ValueError, match="schema version 99"):
            DurableReservoir.recover(journal)

    def test_context_manager_crash_path_skips_final_checkpoint(
        self, tmp_path
    ):
        journal = tmp_path / "journal"
        with pytest.raises(RuntimeError, match="boom"):
            with DurableReservoir(
                _serial_sampler(), journal, wal_sync="never"
            ) as engine:
                engine.offer_many([1, 2, 3])
                raise RuntimeError("boom")
        recovered = DurableReservoir.recover(journal)
        # The block is in the WAL even though no checkpoint captured it.
        assert recovered.last_recovery.records_replayed == 1
        assert recovered.t == 3
        recovered.close(final_checkpoint=False)

    def test_clean_close_reopens_with_zero_replay(self, tmp_path):
        journal = tmp_path / "journal"
        ops = _serial_ops()
        engine = DurableReservoir(_serial_sampler(), journal)
        _apply(engine, ops)
        engine.close()  # final checkpoint
        recovered = DurableReservoir.recover(journal)
        assert recovered.last_recovery.records_replayed == 0
        assert _canon(recovered.state_dict()) == _serial_reference(ops)
        recovered.close(final_checkpoint=False)

    def test_compaction_bounds_journal_files(self, tmp_path):
        journal = tmp_path / "journal"
        engine = DurableReservoir(
            _serial_sampler(),
            journal,
            wal_sync="never",
            checkpoint_every_records=2,
            retain_checkpoints=2,
        )
        _apply(engine, _serial_ops(n=30))
        engine.close()
        assert len(list_checkpoints(journal)) <= 2
        generations = sorted(
            int(p.name.split("-")[-1].split(".")[0])
            for p in journal.glob("wal-main-*.log")
        )
        # Only generations reachable from a retained checkpoint survive.
        assert len(generations) <= engine._generation
        oldest_needed = engine._oldest_retained_generation()
        assert generations[0] >= oldest_needed


def test_fault_names_all_covered():
    """Keep FAULT_NAMES and this suite in sync: each fault name appears
    in at least one test docstring or name above."""
    source = open(__file__).read()
    mapping = {
        "torn_write": "torn_write",
        "truncated_checkpoint": "truncated_checkpoint",
        "corrupted_crc": "corrupted_crc",
        "duplicate_tail_record": "duplicate_tail_record",
        "crash_between_fsync": "crash_between_fsync",
    }
    for fault in FAULT_NAMES:
        assert mapping[fault] in source
