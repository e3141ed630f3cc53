"""Tests for cost-aware / latency-aware / interleaved scheduling."""

import numpy as np
import pytest

from repro.core.memopt import MemoryConfig
from repro.perfmodel.runtime import gpu_busy_times, interleaved_gpu_busy_times
from repro.perfmodel.workloads import ACC
from repro.scheduling.costaware import (
    ThreadCostModel,
    costaware_schedule,
    latency_aware_schedule,
)
from repro.scheduling.equiarea import equiarea_schedule, lambda_cut_for_work
from repro.scheduling.interleaved import interleaved_schedule
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1
from repro.scheduling.workload import (
    thread_work_array,
    total_threads,
    total_work,
    work_prefix_by_level,
)


class TestLambdaCutForWork:
    def test_matches_cumulative_scan(self):
        g = 25
        scheme = SCHEME_3X1
        lam = np.arange(total_threads(scheme, g), dtype=np.uint64)
        cumulative = np.concatenate([[0.0], np.cumsum(thread_work_array(scheme, g, lam))])
        prefix = work_prefix_by_level(scheme, g)
        for target in [0, 1, 7, 100, total_work(scheme, g) // 3]:
            expected = int(np.searchsorted(cumulative, target, side="left"))
            assert lambda_cut_for_work(scheme, g, target, prefix) == expected
        # At or beyond the total, the cut lands at the end of the grid.
        assert lambda_cut_for_work(scheme, g, total_work(scheme, g), prefix) == len(lam)

    def test_extremes(self):
        assert lambda_cut_for_work(SCHEME_3X1, 20, 0) == 0
        assert lambda_cut_for_work(SCHEME_3X1, 20, 10**9) == total_threads(SCHEME_3X1, 20)


class TestCostAware:
    def test_zero_setup_equals_equiarea(self):
        cost = ThreadCostModel(setup=0.0, per_combo=1.0)
        ea = equiarea_schedule(SCHEME_3X1, 40, 7)
        ca = costaware_schedule(SCHEME_3X1, 40, 7, cost)
        assert ca.boundaries == ea.boundaries

    def test_setup_shifts_boundaries_toward_light_threads(self):
        # With heavy setup the tail (many tiny threads) costs more, so
        # cost-aware gives tail partitions fewer threads than equi-area.
        cost = ThreadCostModel(setup=10_000.0, per_combo=1.0)
        ea = equiarea_schedule(SCHEME_3X1, 60, 6)
        ca = costaware_schedule(SCHEME_3X1, 60, 6, cost)
        assert ca.boundaries != ea.boundaries
        # The last partition shrinks in thread count.
        assert (ca.boundaries[-1] - ca.boundaries[-2]) < (
            ea.boundaries[-1] - ea.boundaries[-2]
        )

    def test_cost_balanced(self):
        cost = ThreadCostModel(setup=500.0, per_combo=2.0)
        ca = costaware_schedule(SCHEME_2X2, 50, 8, cost)
        # Each partition's modeled cost: setup per thread plus its inner
        # combinations (the per-thread model the cut balances).
        costs = [
            n * cost.setup + w * cost.per_combo
            for n, w in zip(np.diff(ca.boundaries), ca.work_per_part())
        ]
        assert max(costs) / (sum(costs) / len(costs)) < 1.05

    def test_validation(self):
        with pytest.raises(ValueError):
            costaware_schedule(SCHEME_3X1, 20, 0)


class TestLatencyAware:
    def test_never_worse_than_equiarea(self):
        memory = MemoryConfig()

        def times_fn(s):
            return gpu_busy_times(s, ACC.tumor_words, ACC.normal_words, memory)

        ea = equiarea_schedule(SCHEME_2X2, 2000, 24)
        la = latency_aware_schedule(SCHEME_2X2, 2000, 24, times_fn, iterations=4)
        assert times_fn(la).max() <= times_fn(ea).max() * (1 + 1e-9)

    def test_covers_all_work(self):
        def times_fn(s):
            return np.asarray(s.work_per_part(), dtype=float) + 1.0

        la = latency_aware_schedule(SCHEME_3X1, 30, 5, times_fn, iterations=3)
        assert sum(la.work_per_part()) == total_work(SCHEME_3X1, 30)

    def test_validation(self):
        with pytest.raises(ValueError):
            latency_aware_schedule(SCHEME_3X1, 20, 2, lambda s: [1.0, 1.0], iterations=0)


class TestInterleaved:
    def test_ranges_tile_grid(self):
        il = interleaved_schedule(SCHEME_3X1, 25, 4, block_size=64)
        seen = []
        for p in range(4):
            for lo, hi in il.ranges(p):
                seen.extend(range(lo, hi))
        assert sorted(seen) == list(range(total_threads(SCHEME_3X1, 25)))

    def test_work_conserved(self):
        il = interleaved_schedule(SCHEME_3X1, 25, 4, block_size=64)
        assert sum(il.work_per_part()) == total_work(SCHEME_3X1, 25)

    def test_balanced_thread_counts(self):
        il = interleaved_schedule(SCHEME_2X2, 60, 6, block_size=32)
        counts = [
            sum(hi - lo for lo, hi in il.ranges(p)) for p in range(il.n_parts)
        ]
        assert max(counts) - min(counts) <= 32

    def test_every_part_gets_heavy_threads(self):
        il = interleaved_schedule(SCHEME_2X2, 200, 8, block_size=128)
        # All partitions own a block near lambda=0, so their heaviest
        # threads are comparable.
        heavy = [il.max_thread_work(p) for p in range(8)]
        assert min(heavy) > 0.5 * max(heavy)

    def test_fixes_occupancy_straggler(self):
        memory = MemoryConfig()
        n_gpus = 60
        ea = equiarea_schedule(SCHEME_2X2, ACC.g, n_gpus * 10)  # 600 parts
        ea_times = gpu_busy_times(ea, ACC.tumor_words, ACC.normal_words, memory)
        il = interleaved_schedule(SCHEME_2X2, ACC.g, n_gpus * 10)
        il_times = interleaved_gpu_busy_times(
            il, ACC.tumor_words, ACC.normal_words, memory
        )
        assert il_times.max() < ea_times.max() / 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            interleaved_schedule(SCHEME_3X1, 20, 0)
        with pytest.raises(ValueError):
            interleaved_schedule(SCHEME_3X1, 20, 2, block_size=0)
        il = interleaved_schedule(SCHEME_3X1, 20, 2)
        with pytest.raises(ValueError):
            il.ranges(5)
