"""Tests for the perf-regression gate.

The acceptance scenario: a synthetic 2x wall-time regression makes
``benchmarks/check_regression.py`` exit non-zero, while the committed
``BENCH_*.json`` files pass against the committed baselines (that exact
invocation is what CI runs).
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from repro.telemetry.regress import (
    DEFAULT_CHECKS,
    RegressionCheck,
    check_files,
    compare_summaries,
    resolve_path,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_cli():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestResolvePath:
    def test_dotted_descent(self):
        summary = {"extra": {"wall_seconds_pruned": 1.5}}
        assert resolve_path(summary, "extra.wall_seconds_pruned") == 1.5

    def test_negative_list_index(self):
        summary = {"extra": {"strong_runtime_s": [100.0, 50.0, 25.0]}}
        assert resolve_path(summary, "extra.strong_runtime_s.-1") == 25.0

    def test_missing_segment_raises(self):
        with pytest.raises(KeyError, match="missing segment"):
            resolve_path({"extra": {}}, "extra.nope")
        with pytest.raises(KeyError, match="cannot descend"):
            resolve_path({"extra": 3}, "extra.deeper")


class TestCompareSummaries:
    CHECKS = (
        RegressionCheck("extra.wall_s", tolerance=0.75),
        RegressionCheck("extra.efficiency", higher_is_worse=False, tolerance=0.03),
    )

    def test_within_band_passes(self):
        base = {"extra": {"wall_s": 10.0, "efficiency": 0.9}}
        cur = {"extra": {"wall_s": 12.0, "efficiency": 0.89}}
        assert compare_summaries("x", cur, base, checks=self.CHECKS) == []

    def test_double_wall_time_regresses(self):
        base = {"extra": {"wall_s": 10.0, "efficiency": 0.9}}
        cur = {"extra": {"wall_s": 20.0, "efficiency": 0.9}}
        regs = compare_summaries("x", cur, base, checks=self.CHECKS)
        assert [r.metric for r in regs] == ["extra.wall_s"]
        assert regs[0].allowed == pytest.approx(17.5)
        assert "x:extra.wall_s" in regs[0].describe()

    def test_efficiency_drop_regresses(self):
        base = {"extra": {"wall_s": 10.0, "efficiency": 0.9}}
        cur = {"extra": {"wall_s": 12.0, "efficiency": 0.5}}
        regs = compare_summaries("x", cur, base, checks=self.CHECKS)
        assert [r.metric for r in regs] == ["extra.efficiency"]

    def test_metric_missing_from_current_is_a_regression(self):
        base = {"extra": {"wall_s": 10.0, "efficiency": 0.9}}
        regs = compare_summaries("x", {"extra": {}}, base, checks=self.CHECKS)
        assert {r.metric for r in regs} == {"extra.wall_s", "extra.efficiency"}

    def test_metric_missing_from_baseline_is_skipped(self):
        cur = {"extra": {"wall_s": 10.0, "efficiency": 0.9}}
        assert compare_summaries("x", cur, {"extra": {}}, checks=self.CHECKS) == []


class TestCheckFiles:
    def test_missing_current_file_fails_missing_baseline_skips(self, tmp_path):
        baseline = tmp_path / "BENCH_greedy.json"
        baseline.write_text(json.dumps({"extra": {"combos_scored_pruned": 100}}))
        regs, notes = check_files(
            [
                ("greedy", tmp_path / "nope.json", baseline),
                ("fig4", tmp_path / "nope.json", tmp_path / "no-baseline.json"),
            ]
        )
        assert [r.metric for r in regs] == ["<file>"]
        assert any("MISSING current" in n for n in notes)
        assert any("skipped" in n for n in notes)


class TestCheckRegressionCli:
    def test_committed_summaries_pass_committed_baselines(self):
        """Exactly what CI runs: repo-root BENCH_*.json vs committed
        baselines must gate clean."""
        cli = _load_cli()
        assert cli.main([]) == 0

    def test_synthetic_2x_wall_regression_fails(self, tmp_path, capsys):
        cli = _load_cli()
        current_dir = tmp_path / "current"
        current_dir.mkdir()
        # The modeled 1000-node runtime: seconds, but deterministic ones.
        src = REPO_ROOT / "BENCH_fig4.json"
        doctored = json.loads(src.read_text())
        doctored["extra"]["strong_runtime_s"][-1] *= 2.0
        (current_dir / "BENCH_fig4.json").write_text(json.dumps(doctored))
        rc = cli.main(["--current-dir", str(current_dir), "--names", "fig4"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "strong_runtime_s" in out

    def test_counter_regression_fails_even_cross_machine(self, tmp_path):
        """A benchmark that suddenly scores 2x the combinations (pruning
        broke) trips the deterministic gate on any machine."""
        cli = _load_cli()
        current_dir = tmp_path / "current"
        current_dir.mkdir()
        doctored = json.loads((REPO_ROOT / "BENCH_greedy.json").read_text())
        doctored["extra"]["combos_scored_pruned"] *= 2
        (current_dir / "BENCH_greedy.json").write_text(json.dumps(doctored))
        rc = cli.main(["--current-dir", str(current_dir), "--names", "greedy"])
        assert rc == 1

    def test_unknown_name_is_usage_error(self):
        cli = _load_cli()
        assert cli.main(["--names", "nonsense"]) == 2

    def test_baselines_cover_every_default_check_name(self):
        """Every gated name has a committed baseline — otherwise the CI
        gate silently checks nothing for it."""
        for name in DEFAULT_CHECKS:
            path = REPO_ROOT / "benchmarks" / "baselines" / f"BENCH_{name}.json"
            assert path.exists(), f"missing committed baseline for {name}"

    def test_gate_detects_regression_vs_regenerated_baseline(self, tmp_path):
        """End-to-end with real files: copy the committed baseline as
        current, double a gated counter, gate fails."""
        cli = _load_cli()
        current_dir = tmp_path / "cur"
        baseline_dir = tmp_path / "base"
        current_dir.mkdir()
        baseline_dir.mkdir()
        for name in DEFAULT_CHECKS:
            committed = REPO_ROOT / "benchmarks" / "baselines" / f"BENCH_{name}.json"
            shutil.copy(committed, baseline_dir / committed.name)
            shutil.copy(committed, current_dir / committed.name)
        args = [
            "--current-dir", str(current_dir), "--baseline-dir", str(baseline_dir)
        ]
        assert cli.main(args) == 0
        greedy = json.loads((current_dir / "BENCH_greedy.json").read_text())
        greedy["extra"]["word_reads_pruned"] *= 2
        (current_dir / "BENCH_greedy.json").write_text(json.dumps(greedy))
        assert cli.main(args) == 1
