"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.dataset == "IGB-Full"
        assert args.loader == "all"
        assert args.ssd == "optane"

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "IGB-Full" in out
        assert "MAG240M" in out

    def test_ssd_model(self, capsys):
        assert main(["ssd-model", "--ssd", "optane"]) == 0
        out = capsys.readouterr().out
        assert "Intel Optane" in out
        assert "95%" in out

    def test_ssd_model_multi(self, capsys):
        assert main(["ssd-model", "--ssd", "980pro", "--num-ssds", "2"]) == 0
        assert "x2" in capsys.readouterr().out

    def test_run_single_loader_json(self, capsys):
        code = main(
            [
                "run", "--dataset", "IGB-tiny", "--scale", "0.02",
                "--loader", "gids", "--iterations", "5",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["loader"] == "GIDS"
        assert payload[0]["iterations"] == 5

    def test_run_csv(self, capsys):
        code = main(
            [
                "run", "--dataset", "IGB-tiny", "--scale", "0.02",
                "--loader", "bam", "--iterations", "5", "--format", "csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("loader,")
        assert "BaM" in out

    def test_figure_table(self, capsys):
        assert main(["figure", "table02"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_train(self, capsys):
        code = main(
            [
                "train", "--dataset", "IGB-tiny", "--scale", "0.02",
                "--iterations", "10", "--classes", "3",
                "--hidden-dim", "8", "--batch-size", "32",
            ]
        )
        assert code == 0
        assert "accuracy" in capsys.readouterr().out


class TestErrorBoundary:
    """A typed error from any command is one ``error:`` line and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--dataset", "Bogus"],
            ["serve", "--dataset", "Bogus"],
            ["run", "--dataset", "IGB-tiny", "--scale", "0.05",
             "--num-ssds", "0"],
            ["train", "--scale", "0.05", "--iterations", "0"],
            ["fullgraph", "--scale", "0.01", "--epochs", "0"],
            ["scrub", "--scale", "0.01", "--num-ssds", "0"],
        ],
        ids=["run-dataset", "serve-dataset", "run-num-ssds",
             "train-iterations", "fullgraph-epochs", "scrub-num-ssds"],
    )
    def test_repro_error_exits_two_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: ")

    def test_process_exit_code_has_no_traceback(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--dataset", "Bogus"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: unknown dataset 'Bogus'")


def test_supervised_run_csv(tmp_path, capsys):
    code = main(
        [
            "run", "--dataset", "IGB-tiny", "--scale", "0.02",
            "--loader", "gids", "--iterations", "5",
            "--checkpoint-dir", str(tmp_path), "--format", "csv",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("loader,")
    assert "GIDS" in out
