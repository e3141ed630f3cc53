"""Subpackage export-surface checks."""

import importlib

import pytest

SUBPACKAGES = [
    "repro.bitmatrix",
    "repro.combinatorics",
    "repro.scheduling",
    "repro.core",
    "repro.cluster",
    "repro.faults",
    "repro.gpusim",
    "repro.perfmodel",
    "repro.data",
    "repro.analysis",
    "repro.mutlevel",
    "repro.experiments",
    "repro.io",
    "repro.telemetry",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_all_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", None)
    if exported is None:
        return
    for attr in exported:
        assert hasattr(mod, attr), f"{name}.{attr} missing"


def test_scheduling_extension_exports():
    from repro.scheduling import (  # noqa: F401
        InterleavedSchedule,
        ThreadCostModel,
        costaware_schedule,
        interleaved_schedule,
        lambda_cut_for_work,
        latency_aware_schedule,
    )


def test_perfmodel_extension_exports():
    from repro.perfmodel import (  # noqa: F401
        GpuMemoryPlan,
        interleaved_gpu_busy_times,
        plan_memory,
    )


def test_every_module_has_docstring():
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        if not source.strip():
            continue
        first = source.lstrip()
        assert first.startswith('"""') or first.startswith("'''"), (
            f"{path} lacks a module docstring"
        )


def test_kernels_export_one_scoring_api():
    """The sparse scoring body and its helpers are gone: every scan runs
    in the native kernel, and ``score_combos`` keeps one dense body."""
    import inspect

    from repro.core import kernels

    assert set(kernels.__all__) == {
        "DEFAULT_WORD_STRIDE", "KernelCounters", "best_of",
        "fused_pair_popcount", "resolve_word_stride", "score_combos",
        "score_combos_reference",
    }
    for gone in (
        "tp_zero_ceiling", "_score_combos_sparse", "_prefix_run_starts",
        "_and_rows",
    ):
        assert not hasattr(kernels, gone), gone
    params = inspect.signature(kernels.score_combos).parameters
    assert "sparse" not in params and "skip_below" not in params
