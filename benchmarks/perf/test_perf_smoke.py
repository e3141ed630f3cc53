"""Smoke test of the benchmark harness (outside the tier-1 ``testpaths``).

Run with ``python -m pytest benchmarks/perf/test_perf_smoke.py``.  It
measures nothing: ``run.py --smoke`` shrinks every workload to ~50 ms
operations, and the test only pins the harness's contract with
``BENCHMARK.json`` and the behaviour of the correctness checker.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import check

PERF_DIR = Path(__file__).resolve().parent
DECLARED = json.loads((PERF_DIR.parent.parent / "BENCHMARK.json").read_text())


def _names(section: str) -> set:
    return {entry["name"] for entry in DECLARED[section]}


def test_smoke_run_emits_exactly_the_declared_names(tmp_path):
    run = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--smoke", "--trace",
         "--seed", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    results = json.loads((tmp_path / "results.json").read_text())
    assert results["smoke"] is True
    assert set(results["workloads"]) == _names("workloads")
    for name, entry in results["workloads"].items():
        assert set(entry["e2e"]["metrics"]) == _names("end_to_end"), name
        assert set(entry["layers"]["metrics"]) == _names("per_layer"), name
        assert entry["e2e"]["correct"] and entry["layers"]["correct"], name
        assert (tmp_path / f"trace-{name}.jsonl").stat().st_size > 0

    refused = subprocess.run(
        [sys.executable, str(PERF_DIR / "compare.py"),
         str(tmp_path / "results.json"), str(tmp_path / "results.json")],
        capture_output=True, text=True,
    )
    assert refused.returncode != 0
    assert "smoke" in refused.stderr


def _cover_instance():
    """Two planted pairs over 8 tumor samples, nothing in the normals."""
    tumor = np.zeros((4, 8), dtype=bool)
    tumor[0, :5] = tumor[1, :5] = True
    tumor[2, 4:] = tumor[3, 4:] = True
    normal = np.zeros((4, 6), dtype=bool)

    def f(tp: int) -> float:
        return (check.ALPHA * tp + 6) / 14.0

    good = (((0, 1), f(5), 5, 6), ((2, 3), f(3), 3, 6))
    return tumor, normal, good


def test_checker_counts_a_corrupted_winner_as_a_failed_operation():
    tumor, normal, good = _cover_instance()
    ok = (good, 12)
    assert check.failed_operations([ok, ok, ok], good, tumor, normal) == 0

    corrupt = ((good[0], ((2, 3), good[1][1], 4, 6)), 12)  # tp off by one
    assert check.failed_operations([ok, corrupt, ok], good, tumor, normal) == 1
    # A raised operation, and one whose combos_scored drifted, also fail.
    assert check.failed_operations([ok, None, (good, 13)], good, tumor, normal) == 2


def test_checker_fails_every_repeat_of_a_shared_wrong_answer():
    tumor, normal, good = _cover_instance()
    wrong = (((0, 1), good[0][1], 4, 6), good[1])  # tp disagrees with a recount
    assert not check.recount_ok(tumor, normal, wrong)
    # Even when the dense reference agrees with it, the recount catches it.
    assert check.failed_operations([(wrong, 12)] * 3, wrong, tumor, normal) == 3
    assert check.failed_operations([(good, 12)] * 3, wrong, tumor, normal) == 3
