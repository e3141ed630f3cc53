"""Perf-regression gating over the ``BENCH_*.json`` trajectory.

The repo-root benchmark summaries (``BENCH_fig4.json``,
``BENCH_greedy.json``) are the machine-readable perf trajectory: each PR
overwrites them, committed snapshots show how headline numbers move.
This module turns that trajectory into a *gate*: compare a current
summary against a committed baseline with per-metric tolerance bands and
fail (CI) when combinations-scored regresses, modeled runtime grows, or
scaling efficiency drops beyond the band.

A check names a metric by dotted path into the summary JSON (integer
segments index lists, so ``extra.strong_runtime_s.-1`` is the
1000-node runtime) and a direction: for ``higher_is_worse`` metrics the
band is ``current <= baseline * (1 + tolerance)``; for
``lower_is_worse`` it is ``current >= baseline * (1 - tolerance)``.
Every gated metric is deterministic for a fixed seed (counters,
efficiencies, model-predicted seconds); measured wall-clock is gated by
the repo benchmark (``benchmarks/perf/``), not here.

``benchmarks/check_regression.py`` is the CLI wrapper CI runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "DEFAULT_CHECKS",
    "Regression",
    "RegressionCheck",
    "check_files",
    "compare_summaries",
    "resolve_path",
]


@dataclass(frozen=True)
class RegressionCheck:
    """One gated metric; ``tolerance`` is the fractional band around
    the baseline."""

    metric: str  # dotted path into the summary JSON
    higher_is_worse: bool = True
    tolerance: float = 0.10

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")


@dataclass(frozen=True)
class Regression:
    """A metric outside its tolerance band."""

    name: str  # summary name (greedy, fig4, ...)
    metric: str
    baseline: float
    current: float
    allowed: float  # the bound current violated
    higher_is_worse: bool

    def describe(self) -> str:
        direction = "<=" if self.higher_is_worse else ">="
        return (
            f"{self.name}:{self.metric} = {self.current:g} "
            f"(baseline {self.baseline:g}, allowed {direction} {self.allowed:g})"
        )


#: Gated metrics per benchmark summary name.  Counter and efficiency
#: checks are tight because they are deterministic for a fixed seed.
DEFAULT_CHECKS: dict[str, tuple[RegressionCheck, ...]] = {
    "greedy": (
        RegressionCheck("extra.combos_scored_pruned", tolerance=0.05),
        RegressionCheck("extra.word_reads_pruned", tolerance=0.05),
        RegressionCheck(
            "extra.combos_reduction_from_iter2",
            higher_is_worse=False,
            tolerance=0.20,
        ),
    ),
    "fig4": (
        RegressionCheck(
            "extra.strong_at_max_nodes", higher_is_worse=False, tolerance=0.03
        ),
        RegressionCheck(
            "extra.strong_avg_efficiency", higher_is_worse=False, tolerance=0.03
        ),
        # Model-predicted seconds (deterministic on any machine): gate
        # the 1000-node headline with a moderate band.
        RegressionCheck("extra.strong_runtime_s.-1", tolerance=0.25),
        # Elastic strong scaling under ±20% mid-solve churn: the lease-
        # stealing fleet must keep its 1000-node efficiency.
        RegressionCheck(
            "extra.elastic_at_max_nodes", higher_is_worse=False, tolerance=0.03
        ),
        RegressionCheck("extra.elastic_runtime_s.-1", tolerance=0.25),
    ),
    "kernels": (
        # The nested scan on the planted <=5%-density instance: the
        # scored-combo count is sparse-invariant (exact gate both ways)
        # and word reads, the fused model, are deterministic for the
        # fixed seed (tight band).
        RegressionCheck("extra.combos_scored", tolerance=0.0),
        RegressionCheck(
            "extra.combos_scored", higher_is_worse=False, tolerance=0.0
        ),
        RegressionCheck("extra.word_reads_sparse", tolerance=0.02),
    ),
    "elastic": (
        # Churned elastic solve vs static reference: the winner must be
        # bit-identical (an exact gate, tolerance 0) and the counters
        # must close; lease traffic is deterministic for a fixed plan.
        RegressionCheck(
            "extra.bit_identical", higher_is_worse=False, tolerance=0.0
        ),
        RegressionCheck("extra.combos_scored", tolerance=0.0),
        RegressionCheck(
            "extra.combos_scored", higher_is_worse=False, tolerance=0.0
        ),
        RegressionCheck("extra.lease_grants", tolerance=0.25),
    ),
    "trace": (
        # Causal-trace attribution on the straggler+steal scenario: the
        # winner must be bit-identical with tracing on (exact gate), the
        # analyzer must keep naming comm-wait as the dominant loss
        # (exact gate), and the critical path must keep tiling the
        # window with buckets closing against total rank-seconds.
        RegressionCheck(
            "extra.bit_identical", higher_is_worse=False, tolerance=0.0
        ),
        RegressionCheck(
            "extra.comm_wait_dominant", higher_is_worse=False, tolerance=0.0
        ),
        RegressionCheck(
            "extra.coverage", higher_is_worse=False, tolerance=0.05
        ),
        RegressionCheck(
            "extra.closure", higher_is_worse=False, tolerance=0.02
        ),
        RegressionCheck("extra.closure", tolerance=0.02),
    ),
}


def resolve_path(summary: dict, dotted: str):
    """Walk a dotted path; integer segments index into lists."""
    node = summary
    for seg in dotted.split("."):
        if isinstance(node, list):
            node = node[int(seg)]
        elif isinstance(node, dict):
            if seg not in node:
                raise KeyError(f"{dotted!r}: missing segment {seg!r}")
            node = node[seg]
        else:
            raise KeyError(f"{dotted!r}: cannot descend into {type(node).__name__}")
    return node


def compare_summaries(
    name: str,
    current: dict,
    baseline: dict,
    checks: "tuple[RegressionCheck, ...] | None" = None,
) -> "list[Regression]":
    """Every checked metric of ``current`` outside its band vs ``baseline``.

    A metric missing from the *baseline* is skipped (older snapshots
    predate it); missing from *current* is a regression in itself — the
    benchmark stopped reporting a gated number.
    """
    if checks is None:
        checks = DEFAULT_CHECKS.get(name, ())
    regressions: list[Regression] = []
    for check in checks:
        try:
            base = float(resolve_path(baseline, check.metric))
        except (KeyError, IndexError, TypeError, ValueError):
            continue
        try:
            cur = float(resolve_path(current, check.metric))
        except (KeyError, IndexError, TypeError, ValueError):
            cur = float("inf") if check.higher_is_worse else float("-inf")
        if check.higher_is_worse:
            allowed = base * (1.0 + check.tolerance)
            bad = cur > allowed
        else:
            allowed = base * (1.0 - check.tolerance)
            bad = cur < allowed
        if bad:
            regressions.append(
                Regression(
                    name=name,
                    metric=check.metric,
                    baseline=base,
                    current=cur,
                    allowed=allowed,
                    higher_is_worse=check.higher_is_worse,
                )
            )
    return regressions


def check_files(
    pairs: "list[tuple[str, Path, Path]]",
) -> "tuple[list[Regression], list[str]]":
    """Compare (name, current_path, baseline_path) files.

    Returns ``(regressions, notes)`` where notes describe skipped pairs
    (missing files) — the CLI prints them and treats missing *current*
    files as failures.
    """
    regressions: list[Regression] = []
    notes: list[str] = []
    for name, current_path, baseline_path in pairs:
        if not Path(baseline_path).exists():
            notes.append(f"{name}: no baseline at {baseline_path} (skipped)")
            continue
        if not Path(current_path).exists():
            notes.append(f"{name}: MISSING current summary {current_path}")
            regressions.append(
                Regression(
                    name=name,
                    metric="<file>",
                    baseline=1.0,
                    current=0.0,
                    allowed=1.0,
                    higher_is_worse=False,
                )
            )
            continue
        current = json.loads(Path(current_path).read_text())
        baseline = json.loads(Path(baseline_path).read_text())
        regressions.extend(compare_summaries(name, current, baseline))
    return regressions, notes
