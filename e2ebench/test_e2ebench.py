"""Tests of the end-to-end benchmark itself, at smoke size.

Run from the repository root::

    python3 -m pytest -q e2ebench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from inputs import derive_seed, evolving_points  # noqa: E402

SMOKE = dict(seconds=0.2, scale=0.03)
COUNT_UNITS = ("count", "B")


def smoke(name, seed, tmp_path, trace=False):
    out, _lines = run.run_workload(
        name, seed, trace=trace, root=tmp_path, **SMOKE
    )
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(name, tmp_path):
    out = smoke(name, 3, tmp_path)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    for key in ("throughput_pts_per_s", "op_p50_ms", "setup_s", "recover_s"):
        assert out["metrics"][key]["value"] > 0, key


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = smoke(name, 5, tmp_path, trace=True)["metrics"]
    second = smoke(name, 5, tmp_path, trace=True)["metrics"]
    assert set(first) == set(run.per_layer_units())
    counts = {k for k, v in first.items() if v["unit"] in COUNT_UNITS}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["trace.overhead_ratio"]["value"] > 0


def test_trace_covers_the_layers_each_workload_drives(tmp_path):
    replay = smoke("replay_durable", 1, tmp_path, trace=True)["metrics"]
    sharded = smoke("sharded_durable", 1, tmp_path, trace=True)["metrics"]
    knn = smoke("prequential_knn", 1, tmp_path, trace=True)["metrics"]
    queries = smoke("checkpoint_queries", 1, tmp_path, trace=True)["metrics"]
    assert replay["streams.csv_load.rows"]["value"] > 0
    assert replay["persist.wal_bytes"]["value"] > 0
    assert replay["persist.recover.records_replayed"]["value"] > 0
    assert sharded["shard.worker_ingest.calls"]["value"] > 0
    assert sharded["shard.load_imbalance"]["value"] == pytest.approx(1.0)
    assert sharded["streams.csv_load.rows"]["value"] == 0
    assert knn["mining.knn_predict.calls"]["value"] > 0
    assert knn["core.offer.calls"]["value"] > 0
    assert queries["core.resident_columns.rebuilds"]["value"] > 0
    assert queries["queries.estimate.calls"]["value"] > 0
    assert (tmp_path / ".e2ebench" / "traces" / "replay_durable-seed1.json").is_file()


def test_reference_seconds_cancel_a_uniform_host_slowdown(monkeypatch):
    def run_pass(slowdown):
        monkeypatch.setattr(workloads, "probe", lambda: 1e-3 * slowdown)
        result = workloads.PassResult()
        result.start_ops()
        for elapsed in (0.010, 0.012, 0.030):
            result.add_op(elapsed * slowdown, 100)
        result.add_finish(0.005 * slowdown)
        return result

    fast, slow = run_pass(1.0), run_pass(1.4)
    assert slow.timed_s == pytest.approx(fast.timed_s * 1.4)
    assert slow.throughput == pytest.approx(fast.throughput)
    assert slow.reference_latencies() == pytest.approx(
        fast.reference_latencies()
    )
    assert hostspeed.probe() > 0


@pytest.mark.skipif(
    not Path("/proc/self/clear_refs").exists(), reason="needs Linux /proc"
)
def test_peak_rss_excludes_memory_freed_before_the_reset():
    import numpy as np

    block = np.ones(40 * 2**20 // 8)  # 40 MB, touched
    before = run._peak_rss_mb()
    del block
    run._reset_peak_rss()
    assert run._peak_rss_mb() < before - 30


def test_seed_changes_inputs_but_not_metric_names(tmp_path):
    a = evolving_points(50, derive_seed(1, "prequential_knn", 0))
    b = evolving_points(50, derive_seed(2, "prequential_knn", 0))
    assert a[0].values.tobytes() != b[0].values.tobytes()
    again = evolving_points(50, derive_seed(1, "prequential_knn", 0))
    assert [p.values.tobytes() for p in a] == [p.values.tobytes() for p in again]
    one = smoke("prequential_knn", 1, tmp_path)["metrics"]
    two = smoke("prequential_knn", 2, tmp_path)["metrics"]
    assert set(one) == set(two) == set(run.END_TO_END)


def test_corrupted_query_check_counts_failed_ops(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "QUERY_ERROR_BAND", -1.0)
    out = smoke("checkpoint_queries", 1, tmp_path)
    assert not out["correct"]
    assert out["failed"] > 0
    ratio = out["metrics"]["ok_ops_ratio"]["value"]
    assert ratio == pytest.approx(1 - out["failed"] / out["attempted"])


def test_corrupted_journal_fails_the_recovery_check(tmp_path, monkeypatch):
    from repro.persist.faults import corrupt_tail_record_crc

    original = workloads._Durable.recover_and_resume

    def tamper(self, crash_dir, *args, **kwargs):
        newest = sorted(crash_dir.glob("wal-*.log"))[-1]
        assert corrupt_tail_record_crc(newest)
        return original(self, crash_dir, *args, **kwargs)

    monkeypatch.setattr(workloads._Durable, "recover_and_resume", tamper)
    out = smoke("replay_durable", 1, tmp_path)
    assert not out["correct"]
    assert out["failed"] >= 1


def test_scratch_is_removed_when_a_workload_raises(tmp_path, monkeypatch):
    def explode(self, index, audit, traced):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads.ReplayDurable, "run_pass", explode)
    with pytest.raises(RuntimeError, match="boom"):
        smoke("replay_durable", 1, tmp_path)
    assert not list((tmp_path / ".e2ebench").glob("run-*"))
    smoke("sharded_durable", 1, tmp_path)
    assert not list((tmp_path / ".e2ebench").glob("run-*"))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench")
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "replay_durable",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
