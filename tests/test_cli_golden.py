"""Golden files for durable CLI runs: same WAL bytes, same sample CSVs.

``repro sample --checkpoint-dir`` over a fixed stream CSV and seed, then
``repro recover -i`` after losing the newest checkpoint (so recovery
replays WAL records and resumes on a second CSV), must write WAL
segments and sample CSVs byte-identical to the files under
``tests/data/cli_golden/``. Checkpoint files are not compared: their
pickled layout may change between releases as long as they restore.

Regenerate the fixtures by running this file as a script with the
writing release's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=<checkout>/src python tests/test_cli_golden.py OUT_DIR
"""

import shutil
import sys
from pathlib import Path

import numpy as np

from repro.cli import main
from repro.streams import StreamPoint, save_stream_csv

FIXTURES = Path(__file__).parent / "data" / "cli_golden"


def _stream(path, lo, hi):
    """Rows ``lo+1 .. hi``: ``None`` and ``-1`` labels, signed zeros,
    subnormals and values needing all 17 digits."""
    rng = np.random.default_rng(lo)
    points = []
    for i in range(lo, hi):
        values = rng.normal(size=3) * 10.0 ** rng.integers(-5, 6)
        if i % 97 == 0:
            values[0] = -0.0
        if i % 89 == 0:
            values[2] = 5e-324
        label = None if i % 3 == 0 else i % 5 - 1
        points.append(StreamPoint(i + 1, values, label))
    save_stream_csv(points, path)


def _segments(journal):
    return {p.name: p.read_bytes() for p in sorted(journal.glob("wal-*.log"))}


def run(work):
    """Drive the CLI in ``work``; return ``{relative name: bytes}``."""
    work = Path(work)
    _stream(work / "input.csv", 0, 700)
    _stream(work / "more.csv", 700, 1000)
    journal = work / "journal"
    assert main([
        "sample", "-i", str(work / "input.csv"), "--capacity", "60",
        "--seed", "11", "--batch-size", "64", "--checkpoint-dir",
        str(journal), "--checkpoint-every", "4", "-o",
        str(work / "sample.csv"),
    ]) == 0
    files = {f"sample/{k}": v for k, v in _segments(journal).items()}
    files["sample.csv"] = (work / "sample.csv").read_bytes()
    sorted(journal.glob("ckpt-*.ckpt"))[-1].unlink()
    assert main([
        "recover", "--checkpoint-dir", str(journal), "-i",
        str(work / "more.csv"), "--batch-size", "50", "-o",
        str(work / "recovered.csv"),
    ]) == 0
    files.update({f"recover/{k}": v for k, v in _segments(journal).items()})
    files["recovered.csv"] = (work / "recovered.csv").read_bytes()
    return files


def test_durable_cli_run_matches_golden_files(tmp_path, capsys):
    files = run(tmp_path)
    capsys.readouterr()
    want = {
        p.relative_to(FIXTURES).as_posix(): p.read_bytes()
        for p in sorted(FIXTURES.rglob("*"))
        if p.is_file()
    }
    assert sorted(files) == sorted(want)
    for name in sorted(want):
        assert files[name] == want[name], name


def write_fixtures(out_dir):
    out = Path(out_dir)
    work = out / "work"
    work.mkdir(parents=True)
    for name, data in run(work).items():
        target = out / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
    shutil.rmtree(work)


if __name__ == "__main__":
    write_fixtures(sys.argv[1])
