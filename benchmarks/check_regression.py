#!/usr/bin/env python
"""CI perf-regression gate over the committed ``BENCH_*.json`` baselines.

Compares the repo-root benchmark summaries (the *current* run) against
the committed snapshots in ``benchmarks/baselines/`` using the tolerance
bands in :mod:`repro.telemetry.regress` and exits non-zero when any
gated metric regressed::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py \\
        --current-dir . --baseline-dir benchmarks/baselines --names greedy

Every gated metric is deterministic for a fixed seed, so summaries
regenerated on another machine (a CI runner) gate the same way;
wall-clock belongs to ``benchmarks/perf/``.

Exit codes: 0 all gates pass, 1 regression detected, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.telemetry.regress import DEFAULT_CHECKS, check_files  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate current BENCH_*.json against committed baselines"
    )
    parser.add_argument(
        "--current-dir", type=Path, default=REPO_ROOT,
        help="directory holding the current BENCH_<name>.json files",
    )
    parser.add_argument(
        "--baseline-dir", type=Path, default=REPO_ROOT / "benchmarks" / "baselines",
        help="directory holding the committed baseline snapshots",
    )
    parser.add_argument(
        "--names", nargs="*", default=sorted(DEFAULT_CHECKS),
        help="benchmark names to gate (default: every name with checks)",
    )
    args = parser.parse_args(argv)

    unknown = [n for n in args.names if n not in DEFAULT_CHECKS]
    if unknown:
        print(f"no checks defined for: {', '.join(unknown)}", file=sys.stderr)
        return 2

    pairs = [
        (
            name,
            args.current_dir / f"BENCH_{name}.json",
            args.baseline_dir / f"BENCH_{name}.json",
        )
        for name in args.names
    ]
    regressions, notes = check_files(pairs)
    for note in notes:
        print(note)
    if regressions:
        print(f"FAIL: {len(regressions)} perf regression(s)")
        for r in regressions:
            print(f"  {r.describe()}")
        return 1
    print(f"ok: {len(pairs)} benchmark summaries within tolerance bands")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
