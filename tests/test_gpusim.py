"""Tests for the simulated V100: device, timing model, counters, profiler."""

import pytest

from repro.gpusim.counters import metrics_from_timing
from repro.gpusim.device import V100
from repro.gpusim.kernel import KernelStats
from repro.gpusim.profiler import Profiler
from repro.gpusim.timing import KernelTiming, TimingTuning, kernel_time


def stats(n_threads=200_000, n_combos=10**9, words=31, rows=2, pre=2, max_combos=None):
    if max_combos is None:
        max_combos = max(1, (n_combos + n_threads - 1) // n_threads) * 4
    return KernelStats(
        n_threads=n_threads,
        n_combos=n_combos,
        words_per_combo=words,
        rows_per_combo=rows,
        prefetched_rows=pre,
        bytes_read=n_combos * rows * words * 8,
        max_thread_combos=max_combos,
    )


class TestDevice:
    def test_v100_shape(self):
        assert V100.n_cores == 5120
        assert V100.n_sms * V100.max_threads_per_sm == 163_840
        assert V100.dram_bytes == 16 * 1024**3
        assert V100.peak_int_ops_per_s == pytest.approx(5120 * 1.53e9)


class TestKernelStats:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelStats(-1, 0, 1, 1, 0, 0, 0)
        with pytest.raises(ValueError):
            # 10 threads x 1 max combo < 100 combos: inconsistent.
            KernelStats(10, 100, 1, 1, 0, 0, 1)

    def test_blocks(self):
        s = stats(n_threads=1025)
        assert s.n_blocks == 3
        assert s.n_combos / s.n_threads == pytest.approx(10**9 / 1025)


class TestTimingModel:
    def test_empty_launch(self):
        t = kernel_time(KernelStats(0, 0, 10, 2, 2, 0, 0))
        assert t.busy_s == 0.0
        assert t.total_s == TimingTuning().kernel_launch_s

    def test_more_work_takes_longer(self):
        a = kernel_time(stats(n_combos=10**8))
        b = kernel_time(stats(n_combos=10**9))
        assert b.busy_s > a.busy_s

    def test_wider_words_take_longer(self):
        a = kernel_time(stats(words=8))
        b = kernel_time(stats(words=32))
        assert b.busy_s > a.busy_s

    def test_fewer_loaded_rows_is_faster(self):
        # The MemOpt effect: removing loop loads removes instructions.
        slow = kernel_time(stats(rows=4, pre=0))
        fast = kernel_time(stats(rows=2, pre=2))
        assert fast.busy_s < slow.busy_s

    def test_low_occupancy_exposes_latency(self):
        # Same combos spread over few threads -> issue-hide derating.
        few = kernel_time(stats(n_threads=2_000, max_combos=10**9))
        many = kernel_time(stats(n_threads=2_000_000, max_combos=10**6))
        assert few.busy_s > many.busy_s
        assert few.issue_hide < 1.0
        assert many.issue_hide == 1.0

    def test_low_occupancy_is_memory_bound(self):
        t = kernel_time(stats(n_threads=2_000, max_combos=10**9))
        assert t.bound == "memory"

    def test_tail_bound_when_one_thread_dominates(self):
        t = kernel_time(
            KernelStats(
                n_threads=500_000,
                n_combos=10**6,
                words_per_combo=31,
                rows_per_combo=2,
                prefetched_rows=2,
                bytes_read=10**6 * 496,
                max_thread_combos=10**6,  # one thread owns everything
            )
        )
        assert t.t_tail_s > t.t_compute_s

    def test_bound_labels(self):
        t = KernelTiming(1.0, 0.1, 2.0, 0.5, 0.0, 1.0, 1.0)
        assert t.bound == "memory"
        t = KernelTiming(3.0, 0.1, 2.0, 0.5, 0.0, 1.0, 1.0)
        assert t.bound == "compute"
        t = KernelTiming(1.0, 0.1, 2.0, 5.0, 0.0, 1.0, 1.0)
        assert t.bound in ("tail", "memory")  # memory wins on equal issue_hide<1


class TestCounters:
    def test_stall_fractions_sum_to_one(self):
        s = stats()
        t = kernel_time(s)
        m = metrics_from_timing(s, t, dram_bytes=s.bytes_read / 64)
        total = (
            m.stall_memory_dependency
            + m.stall_memory_throttle
            + m.stall_execution_dependency
            + m.stall_other
        )
        assert total == pytest.approx(1.0)

    def test_idle_gpu(self):
        s = KernelStats(0, 0, 1, 1, 0, 0, 0)
        m = metrics_from_timing(s, kernel_time(s), dram_bytes=0)
        assert m.bound == "idle"

    def test_dram_throughput_positive(self):
        s = stats()
        m = metrics_from_timing(s, kernel_time(s), dram_bytes=s.bytes_read / 64)
        assert 0 < m.dram_read_bps
        assert 0 < m.dram_write_bps < m.dram_read_bps


class TestProfiler:
    def test_slowest_gpu_has_unit_utilization(self):
        launches = [stats(n_combos=c) for c in (10**8, 5 * 10**8, 10**9)]
        prof = Profiler().profile(launches)
        assert prof.utilization.max() == pytest.approx(1.0)
        assert prof.utilization.argmax() == 2

    def test_transition_detection(self):
        # Construct launches where early GPUs are latency-bound and later
        # ones compute-bound.
        launches = [
            stats(n_threads=1_000, max_combos=10**9),
            stats(n_threads=5_000, max_combos=10**9),
            stats(n_threads=500_000),
            stats(n_threads=800_000),
        ]
        prof = Profiler().profile(launches)
        assert prof.bounds[0] == "memory"
        assert prof.bounds[-1] == "compute"
        idx = prof.memory_to_compute_transition()
        assert idx == 2

    def test_profile_arrays_aligned(self):
        launches = [stats(), stats(n_combos=2 * 10**9)]
        prof = Profiler().profile(launches)
        assert prof.n_gpus == 2
        assert len(prof.busy_s) == len(prof.dram_read_bps) == 2
