"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.streams import load_stream_csv, save_stream_csv
from repro.streams.synthetic import EvolvingClusterStream


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "-o", "x.csv"])
        assert args.kind == "clusters"
        assert args.length == 10_000

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_sample_algorithm_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sample", "-i", "a", "-o", "b", "--algorithm", "bogus"]
            )


class TestGenerate:
    def test_generates_csv(self, tmp_path, capsys):
        out = tmp_path / "stream.csv"
        code = main(
            ["generate", "--length", "50", "--seed", "3", "-o", str(out)]
        )
        assert code == 0
        points = list(load_stream_csv(out))
        assert len(points) == 50
        assert "wrote 50 points" in capsys.readouterr().out

    def test_generate_intrusion(self, tmp_path):
        out = tmp_path / "net.csv"
        main(
            [
                "generate",
                "--kind",
                "intrusion",
                "--length",
                "30",
                "-o",
                str(out),
            ]
        )
        points = list(load_stream_csv(out))
        assert points[0].dimensions == 34

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--length", "20", "--seed", "5", "-o", str(a)])
        main(["generate", "--length", "20", "--seed", "5", "-o", str(b)])
        assert a.read_text() == b.read_text()


class TestSample:
    @pytest.fixture
    def stream_csv(self, tmp_path):
        path = tmp_path / "in.csv"
        save_stream_csv(EvolvingClusterStream(length=500, rng=1), path)
        return path

    def test_biased_sampling(self, stream_csv, tmp_path, capsys):
        out = tmp_path / "sample.csv"
        code = main(
            [
                "sample",
                "-i",
                str(stream_csv),
                "--algorithm",
                "biased",
                "--capacity",
                "50",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        residents = list(load_stream_csv(out))
        assert len(residents) == 50
        assert "streamed 500 points" in capsys.readouterr().out

    def test_unbiased_sampling(self, stream_csv, tmp_path):
        out = tmp_path / "u.csv"
        main(
            [
                "sample",
                "-i",
                str(stream_csv),
                "--algorithm",
                "unbiased",
                "--capacity",
                "30",
                "-o",
                str(out),
            ]
        )
        assert len(list(load_stream_csv(out))) == 30

    def test_variable_requires_lam(self, stream_csv, tmp_path):
        with pytest.raises(SystemExit, match="--lam is required"):
            main(
                [
                    "sample",
                    "-i",
                    str(stream_csv),
                    "--algorithm",
                    "variable",
                    "-o",
                    str(tmp_path / "v.csv"),
                ]
            )

    def test_variable_with_lam(self, stream_csv, tmp_path):
        out = tmp_path / "v.csv"
        code = main(
            [
                "sample",
                "-i",
                str(stream_csv),
                "--algorithm",
                "variable",
                "--capacity",
                "40",
                "--lam",
                "1e-4",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert len(list(load_stream_csv(out))) >= 39

    def test_space_constrained(self, stream_csv, tmp_path):
        out = tmp_path / "s.csv"
        code = main(
            [
                "sample",
                "-i",
                str(stream_csv),
                "--algorithm",
                "space-constrained",
                "--capacity",
                "40",
                "--lam",
                "1e-3",
                "-o",
                str(out),
            ]
        )
        assert code == 0


class TestExperiment:
    def test_runs_tiny_fig1(self, capsys):
        code = main(
            ["experiment", "fig1", "--length", "3000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "variable_fill" in out

    def test_markdown_output(self, capsys):
        main(["experiment", "fig1", "--length", "2000", "--markdown"])
        out = capsys.readouterr().out
        assert "### fig1" in out

    def test_writes_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "fig1.txt"
        main(
            [
                "experiment",
                "fig1",
                "--length",
                "2000",
                "-o",
                str(out_file),
            ]
        )
        assert "variable_fill" in out_file.read_text()
        assert "wrote 1 experiment" in capsys.readouterr().out


class TestTheory:
    def test_prints_requirement(self, capsys):
        code = main(["theory", "--lam", "1e-3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max reservoir requirement" in out

    def test_budget_below_requirement(self, capsys):
        main(["theory", "--lam", "1e-4", "--budget", "1000"])
        out = capsys.readouterr().out
        assert "Algorithm 3.1" in out
        assert "p_in = 0.1000" in out

    def test_budget_above_requirement(self, capsys):
        main(["theory", "--lam", "1e-2", "--budget", "5000"])
        out = capsys.readouterr().out
        assert "Algorithm 2.1" in out


class TestPaperScale:
    def test_paper_scale_presets_cover_all_figures(self):
        from repro.experiments import ALL_EXPERIMENTS
        from repro.experiments.paper_scale import PAPER_SCALE

        assert set(PAPER_SCALE) == set(ALL_EXPERIMENTS)

    def test_paper_scale_kwargs_copy(self):
        from repro.experiments.paper_scale import paper_scale_kwargs

        kwargs = paper_scale_kwargs("fig2")
        kwargs["length"] = 1  # mutating the copy must not leak
        assert paper_scale_kwargs("fig2")["length"] == 494_021

    def test_paper_scale_unknown_figure(self):
        from repro.experiments.paper_scale import paper_scale_kwargs

        with pytest.raises(KeyError):
            paper_scale_kwargs("fig99")

    def test_cli_paper_scale_with_length_override(self, capsys):
        """--paper-scale composes with --length (length wins)."""
        code = main(
            [
                "experiment",
                "fig1",
                "--paper-scale",
                "--length",
                "2000",
            ]
        )
        assert code == 0
        assert "length=2000" in capsys.readouterr().out


class TestReport:
    def test_report_from_results_dir(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig1.txt").write_text("== fig1 ==\ntable\n")
        (results / "ablation_x.txt").write_text("== ablation ==\nrows\n")
        code = main(["report", "--results-dir", str(results)])
        assert code == 0
        out = capsys.readouterr().out
        assert "## Figures" in out
        assert "## Ablations" in out
        assert "== fig1 ==" in out

    def test_report_to_file(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig2.txt").write_text("data\n")
        out_file = tmp_path / "report.md"
        code = main(
            [
                "report",
                "--results-dir",
                str(results),
                "-o",
                str(out_file),
            ]
        )
        assert code == 0
        assert "data" in out_file.read_text()

    def test_report_missing_dir_fails(self, tmp_path, capsys):
        code = main(
            ["report", "--results-dir", str(tmp_path / "nope")]
        )
        assert code == 1
        assert "no results" in capsys.readouterr().err

    def test_report_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["report", "--results-dir", str(empty)])
        assert code == 1


class TestVerify:
    def test_list_prints_every_spec(self, capsys):
        from repro.verify import SPECS

        code = main(["verify", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in SPECS:
            assert name in out

    def test_runs_selected_spec_and_writes_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "VERIFY_report.json"
        code = main(
            [
                "verify",
                "unbiased-uniform",
                "--replicates",
                "30",
                "--skip-invariants",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.verify/1"
        assert report["specs_total"] == 1
        assert report["specs"][0]["name"] == "unbiased-uniform"
        assert report["passed"] is True
        assert "unbiased-uniform" in capsys.readouterr().out

    def test_json_output_mode(self, capsys):
        import json

        code = main(
            [
                "verify",
                "unbiased-uniform",
                "--replicates",
                "30",
                "--skip-invariants",
                "--json",
                "-o",
                "-",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["specs"][0]["passed"] is True

    def test_unknown_spec_fails(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "no-such-spec", "--skip-invariants"])

    def test_verify_parser_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.specs == []
        assert args.replicates is None
        assert args.jobs == 1
        assert args.seed == 0
        assert args.output == "VERIFY_report.json"


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self, tmp_path):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "theory", "--lam", "1e-3"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "max reservoir requirement" in result.stdout


class TestSampleKdd99Format:
    def test_kdd99_input(self, tmp_path, capsys):
        from tests.test_streams_kdd99 import kdd_line

        rng = np.random.default_rng(0)
        data = tmp_path / "kddcup.data"
        data.write_text(
            "\n".join(kdd_line(rng, "normal.") for _ in range(100)) + "\n"
        )
        out = tmp_path / "sample.csv"
        code = main(
            [
                "sample",
                "-i",
                str(data),
                "--format",
                "kdd99",
                "--capacity",
                "20",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        residents = list(load_stream_csv(out))
        assert len(residents) == 20
        assert residents[0].dimensions == 34


class TestDurableSample:
    @pytest.fixture
    def stream_csv(self, tmp_path):
        path = tmp_path / "in.csv"
        save_stream_csv(EvolvingClusterStream(length=400, rng=1), path)
        return path

    def test_sample_with_checkpoint_dir_writes_journal(
        self, stream_csv, tmp_path, capsys
    ):
        out = tmp_path / "sample.csv"
        journal = tmp_path / "journal"
        code = main(
            [
                "sample",
                "-i", str(stream_csv),
                "--capacity", "25",
                "--seed", "3",
                "-o", str(out),
                "--checkpoint-dir", str(journal),
                "--wal-sync", "never",
                "--checkpoint-every", "10",
            ]
        )
        assert code == 0
        assert f"journal at {journal}" in capsys.readouterr().out
        assert list(journal.glob("ckpt-*.ckpt"))
        assert list(journal.glob("wal-main-*.log"))
        assert len(list(load_stream_csv(out))) == 25

    def test_sample_refuses_existing_journal(
        self, stream_csv, tmp_path
    ):
        out = tmp_path / "sample.csv"
        journal = tmp_path / "journal"
        args = [
            "sample",
            "-i", str(stream_csv),
            "--capacity", "25",
            "-o", str(out),
            "--checkpoint-dir", str(journal),
        ]
        assert main(args) == 0
        with pytest.raises(SystemExit, match="already holds a journal"):
            main(args)

    def test_sample_rejects_bad_checkpoint_every(self, stream_csv, tmp_path):
        with pytest.raises(SystemExit, match="checkpoint-every"):
            main(
                [
                    "sample",
                    "-i", str(stream_csv),
                    "-o", str(tmp_path / "x.csv"),
                    "--checkpoint-dir", str(tmp_path / "j"),
                    "--checkpoint-every", "0",
                ]
            )


class TestRecover:
    @pytest.fixture
    def stream_csv(self, tmp_path):
        path = tmp_path / "in.csv"
        save_stream_csv(EvolvingClusterStream(length=400, rng=1), path)
        return path

    def _sample(self, stream_csv, tmp_path):
        out = tmp_path / "sample.csv"
        journal = tmp_path / "journal"
        main(
            [
                "sample",
                "-i", str(stream_csv),
                "--capacity", "25",
                "--seed", "3",
                "-o", str(out),
                "--checkpoint-dir", str(journal),
                "--wal-sync", "never",
                "--checkpoint-every", "10",
            ]
        )
        return out, journal

    def test_recover_reproduces_sample(
        self, stream_csv, tmp_path, capsys
    ):
        out, journal = self._sample(stream_csv, tmp_path)
        recovered = tmp_path / "recovered.csv"
        code = main(
            ["recover", "--checkpoint-dir", str(journal),
             "-o", str(recovered)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "recovered from checkpoint seq" in text
        assert "recovered reservoir at t=400" in text
        assert recovered.read_text() == out.read_text()

    def test_recover_resumes_from_input(
        self, stream_csv, tmp_path, capsys
    ):
        _out, journal = self._sample(stream_csv, tmp_path)
        more = tmp_path / "more.csv"
        save_stream_csv(EvolvingClusterStream(length=100, rng=2), more)
        recovered = tmp_path / "recovered.csv"
        code = main(
            [
                "recover",
                "--checkpoint-dir", str(journal),
                "-i", str(more),
                "-o", str(recovered),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "resumed 100 points" in text
        assert "t=500" in text
        assert len(list(load_stream_csv(recovered))) == 25

    def test_recover_missing_journal_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="nothing to recover"):
            main(
                [
                    "recover",
                    "--checkpoint-dir", str(tmp_path / "nope"),
                    "-o", str(tmp_path / "out.csv"),
                ]
            )

    def test_recover_requires_checkpoint_dir(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["recover", "-o", str(tmp_path / "out.csv")])


class TestCsvBlockInput:
    """With --batch-size > 1 the CLI reads through the block CSV reader."""

    @pytest.fixture
    def spy(self, monkeypatch):
        import repro.cli as cli

        calls = []
        real = cli.load_stream_csv_chunks

        def spy(path, chunk_size):
            calls.append((str(path), chunk_size))
            return real(path, chunk_size)

        monkeypatch.setattr(cli, "load_stream_csv_chunks", spy)
        return calls

    @pytest.fixture
    def stream_csv(self, tmp_path):
        path = tmp_path / "in.csv"
        save_stream_csv(EvolvingClusterStream(length=300, rng=4), path)
        return path

    def test_sample_reads_blocks_of_batch_size(self, spy, stream_csv, tmp_path):
        out = tmp_path / "s.csv"
        main(["sample", "-i", str(stream_csv), "--capacity", "20",
              "--batch-size", "64", "-o", str(out)])
        assert spy == [(str(stream_csv), 64)]
        assert len(list(load_stream_csv(out))) == 20

    def test_recover_input_reads_blocks(self, spy, stream_csv, tmp_path):
        journal = tmp_path / "j"
        main(["sample", "-i", str(stream_csv), "--capacity", "20",
              "--batch-size", "1", "-o", str(tmp_path / "a.csv"),
              "--checkpoint-dir", str(journal), "--wal-sync", "never"])
        assert spy == []  # per-point offers read the flat reader
        main(["recover", "--checkpoint-dir", str(journal),
              "-i", str(stream_csv), "--batch-size", "32",
              "-o", str(tmp_path / "b.csv")])
        assert spy == [(str(stream_csv), 32)]

    def test_batch_sizes_agree_on_counters(self, stream_csv, tmp_path, capsys):
        for batch in ("1", "50"):
            main(["sample", "-i", str(stream_csv), "--capacity", "20",
                  "--batch-size", batch, "-o", str(tmp_path / f"{batch}.csv")])
            assert "streamed 300 points" in capsys.readouterr().out

    def test_bad_row_is_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,label,v0\n1,,0.5\n2,,0.5,0.5\n")
        with pytest.raises(ValueError, match="line 3: ragged"):
            main(["sample", "-i", str(path), "--batch-size", "8",
                  "-o", str(tmp_path / "o.csv")])
