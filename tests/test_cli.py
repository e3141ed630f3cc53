"""Tests for the CLI."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.hits == 3
        assert args.backend == "single"

    @pytest.mark.parametrize(
        "flag", ["--word-stride", "--lease-blocks", "--prune-blocks"]
    )
    def test_removed_solve_flags_are_errors(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", flag, "8"])

    def test_checkpoint_cadence_is_a_solve_flag_only(self):
        """``serve`` checkpoints by the clock, so it has no cadence flag;
        ``solve`` keeps its iteration cadence."""
        args = build_parser().parse_args(["solve", "--checkpoint-every", "3"])
        assert args.checkpoint_every == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--checkpoint-every", "1"])


class TestCommands:
    def test_solve(self, capsys, tmp_path):
        out = tmp_path / "res.json"
        code = main(
            [
                "solve",
                "--genes", "25", "--tumor", "60", "--normal", "60",
                "--hits", "2", "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "combinations" in captured
        assert "[planted]" in captured
        payload = json.loads(out.read_text())
        assert payload["combinations"]

    def test_solve_distributed(self, capsys):
        code = main(
            ["solve", "--genes", "20", "--tumor", "40", "--normal", "40",
             "--hits", "2", "--backend", "distributed", "--nodes", "2"]
        )
        assert code == 0

    def test_solve_serves_metrics_on_an_ephemeral_port(self, capsys):
        code = main(
            ["solve", "--genes", "20", "--tumor", "40", "--normal", "40",
             "--hits", "2", "--prom-port", "0"]
        )
        assert code == 0
        port = re.search(
            r"^metrics: http://127\.0\.0\.1:(\d+)/metrics$",
            capsys.readouterr().err, re.M,
        )
        assert port is not None and int(port.group(1)) != 0

    def test_solve_checkpoint_roundtrip(self, capsys, tmp_path):
        """Interrupted run + relaunch through --checkpoint reproduces the
        uninterrupted run's combination listing exactly."""
        base = [
            "solve", "--genes", "22", "--tumor", "50", "--normal", "50",
            "--hits", "2", "--seed", "3",
        ]
        assert main(base) == 0
        clean = capsys.readouterr().out

        ckpt = tmp_path / "run.ckpt"
        flags = ["--checkpoint", str(ckpt), "--checkpoint-every", "2"]
        # First pass writes the checkpoint (complete run, file persisted)...
        assert main(base + flags) == 0
        captured = capsys.readouterr()
        first = captured.out
        assert "resuming" not in captured.out + captured.err
        assert ckpt.exists()
        # ...second pass resumes from it and lands on the same answer.
        # The informational note goes to stderr; stdout stays the
        # machine-readable combination listing.
        assert main(base + flags) == 0
        captured = capsys.readouterr()
        second = captured.out
        assert f"resuming from checkpoint {ckpt}" in captured.err
        assert "resuming" not in second

        def combos(text):
            return [ln for ln in text.splitlines() if ln.lstrip().startswith("F=")]

        assert combos(first) == combos(clean)
        assert combos(second) == combos(clean)

    def test_solve_checkpoint_every_validation(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            main(
                ["solve", "--genes", "20", "--tumor", "40", "--normal", "40",
                 "--hits", "2", "--checkpoint", str(tmp_path / "c.json"),
                 "--checkpoint-every", "0"]
            )

    def test_experiment_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "ed-vs-ea" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "nope"]) == 2

    def test_experiment_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "Fig 2" in capsys.readouterr().out

    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "BRCA" in out and "911" in out

    def test_schedule(self, capsys):
        assert main(["schedule", "--genes", "30", "--gpus", "4"]) == 0
        out = capsys.readouterr().out
        assert "equiarea" in out
        assert "gpu   3" in out


class TestNewCommands:
    def test_roofline(self, capsys):
        assert main(["roofline"]) == 0
        out = capsys.readouterr().out
        assert "ridge intensity" in out
        assert "3x1/baseline" in out

    def test_dataset_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "c.npz")
        assert main(["dataset", "generate", path, "--genes", "25",
                     "--hits", "2", "--seed", "3"]) == 0
        assert main(["dataset", "info", path]) == 0
        out = capsys.readouterr().out
        assert "25 genes" in out
        assert "planted" in out

    def test_dataset_from_catalog(self, capsys, tmp_path):
        path = str(tmp_path / "acc.npz")
        assert main(["dataset", "generate", path, "--cancer", "ACC",
                     "--genes", "30"]) == 0
        out = capsys.readouterr().out
        assert "77+85 samples" in out  # ACC catalog counts

    def test_schedule_interleaved(self, capsys):
        assert main(["schedule", "--genes", "40", "--gpus", "4",
                     "--policy", "interleaved"]) == 0
        assert "interleaved" in capsys.readouterr().out

    def test_schedule_costaware(self, capsys):
        assert main(["schedule", "--genes", "40", "--gpus", "4",
                     "--policy", "costaware"]) == 0
        assert "costaware" in capsys.readouterr().out
