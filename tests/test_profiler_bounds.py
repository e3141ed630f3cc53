"""Tests for the profiler's bound classification and transition point.

Covers the Section IV-C/IV-D machinery the telemetry subsystem absorbs:
:attr:`KernelTiming.bound` (which resource limits a launch, including
the issue-starvation rule that calls a low-occupancy GPU memory-bound),
:attr:`GpuProfile.bounds`, and
:meth:`GpuProfile.memory_to_compute_transition` — the paper's "around
GPU #500 of 600 the devices stop being memory-bound" observation.
"""

import pytest

from repro.gpusim.counters import GpuMetrics
from repro.gpusim.kernel import KernelStats
from repro.gpusim.profiler import GpuProfile, Profiler
from repro.gpusim.timing import KernelTiming
from repro.telemetry import telemetry_session


def _timing(compute=0.0, setup=0.0, memory=0.0, tail=0.0, issue_hide=1.0):
    return KernelTiming(
        t_compute_s=compute,
        t_setup_s=setup,
        t_memory_s=memory,
        t_tail_s=tail,
        launch_s=12e-6,
        hide_factor=1.0,
        issue_hide=issue_hide,
    )


def _metrics(bound: str) -> GpuMetrics:
    return GpuMetrics(
        busy_s=1.0,
        dram_read_bps=0.0,
        dram_write_bps=0.0,
        utilization=1.0,
        stall_memory_dependency=0.25,
        stall_memory_throttle=0.25,
        stall_execution_dependency=0.25,
        stall_other=0.25,
        issue_efficiency=1.0,
        bound=bound,
    )


class TestKernelTimingBound:
    def test_memory_bound_when_dram_time_dominates(self):
        assert _timing(compute=1.0, memory=5.0).bound == "memory"

    def test_compute_bound_when_instructions_dominate(self):
        assert _timing(compute=5.0, setup=1.0, memory=2.0).bound == "compute"

    def test_tail_bound_when_heaviest_thread_dominates(self):
        assert _timing(compute=1.0, memory=1.0, tail=9.0).bound == "tail"

    def test_issue_starvation_counts_as_memory_bound(self):
        # Compute time is the arithmetic max, but issue_hide < 1 means
        # the pipelines are stalled behind dependent loads: NVPROF would
        # blame memory, and so does the model.
        t = _timing(compute=5.0, memory=1.0, issue_hide=0.4)
        assert t.busy_s == pytest.approx(5.0)
        assert t.bound == "memory"

    def test_setup_counts_toward_compute_side(self):
        assert _timing(compute=2.0, setup=2.0, memory=3.0).bound == "compute"


class TestMemoryToComputeTransition:
    def test_mixed_profile_transitions_after_last_memory_gpu(self):
        profile = GpuProfile(
            [_metrics(b) for b in ("memory", "memory", "compute", "compute")]
        )
        assert profile.bounds == ["memory", "memory", "compute", "compute"]
        assert profile.memory_to_compute_transition() == 2

    def test_interleaved_uses_last_memory_bound_gpu(self):
        profile = GpuProfile(
            [_metrics(b) for b in ("memory", "compute", "memory", "compute")]
        )
        assert profile.memory_to_compute_transition() == 3

    def test_no_memory_bound_gpu_means_transition_at_zero(self):
        profile = GpuProfile([_metrics("compute")] * 3)
        assert profile.memory_to_compute_transition() == 0

    def test_all_memory_bound_means_no_transition(self):
        profile = GpuProfile([_metrics("memory")] * 3)
        assert profile.memory_to_compute_transition() is None

    def test_empty_profile(self):
        profile = GpuProfile([])
        assert profile.n_gpus == 0
        assert profile.memory_to_compute_transition() == 0


class TestProfilerIntegration:
    """End-to-end: KernelStats -> timing model -> profile -> registry."""

    @staticmethod
    def _launches():
        # Low-index equi-area GPUs: few heavy threads -> issue-starved
        # (memory-bound); high-index GPUs: many light threads -> compute.
        heavy = KernelStats(
            n_threads=2_000,
            n_combos=2_000_000,
            words_per_combo=4,
            rows_per_combo=1,
            prefetched_rows=2,
            bytes_read=2_000_000 * 4 * 8,
            max_thread_combos=1_000,
        )
        light = KernelStats(
            n_threads=200_000,
            n_combos=2_000_000,
            words_per_combo=4,
            rows_per_combo=1,
            prefetched_rows=2,
            bytes_read=2_000_000 * 8,
            max_thread_combos=10,
        )
        return [heavy, heavy, light, light]

    def test_bounds_and_transition(self):
        profile = Profiler().profile(self._launches())
        assert profile.bounds == ["memory", "memory", "compute", "compute"]
        assert profile.memory_to_compute_transition() == 2
        # utilization is normalized against the slowest GPU.
        assert profile.utilization.max() == pytest.approx(1.0)
        assert profile.busy_s.shape == (4,)

    def test_profile_records_one_span(self):
        with telemetry_session() as tel:
            Profiler().profile(self._launches())
        assert [s["name"] for s in tel.tracer.export()] == ["gpusim.profile"]
        assert tel.metrics.to_dict()["counters"] == {}

    def test_profile_records_nothing_when_disabled(self):
        profile = Profiler().profile(self._launches())
        assert profile.n_gpus == 4  # same result, no session to feed
