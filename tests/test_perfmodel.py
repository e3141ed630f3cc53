"""Tests for the paper-scale performance model."""

import math

import numpy as np
import pytest

from repro.core.memopt import MemoryConfig
from repro.gpusim.kernel import KernelStats
from repro.gpusim.timing import TimingTuning, kernel_time
from repro.perfmodel.runtime import (
    IterationModel,
    JobModel,
    partition_kernel_stats,
    partition_profiles,
    gpu_busy_times,
    single_gpu_scan_seconds,
)
from repro.perfmodel.scaling import (
    scaling_efficiency,
    strong_scaling_sweep,
    weak_scaling_sweep,
)
from repro.perfmodel.utilization import profile_schedule
from repro.perfmodel.workloads import ACC, BRCA, WorkloadSpec
from repro.scheduling.equiarea import equiarea_schedule
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1


class TestWorkloads:
    def test_brca_paper_values(self):
        assert BRCA.g == 19411
        assert BRCA.n_tumor == 911
        assert BRCA.tumor_words == 15

    def test_words_sum(self):
        w = WorkloadSpec("X", 100, 64, 65)
        assert w.tumor_words == 1 and w.normal_words == 2 and w.words == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec("X", 3, 10, 10)
        with pytest.raises(ValueError):
            WorkloadSpec("X", 10, 0, 10)


class TestIterationModel:
    def test_geometric_cover(self):
        m = IterationModel(n_iterations=4, cover_fraction=0.5)
        assert m.tumor_samples_remaining(100) == [100, 50, 25, 12]

    def test_never_below_one(self):
        m = IterationModel(n_iterations=10, cover_fraction=0.9)
        assert min(m.tumor_samples_remaining(10)) == 1


class TestPartitionStats:
    def test_stats_consistent_with_schedule(self):
        g = 60
        schedule = equiarea_schedule(SCHEME_3X1, g, 12)
        work = schedule.work_per_part()
        total_combos = 0
        for p in range(12):
            s = partition_kernel_stats(schedule, p, work[p], 2, 2, MemoryConfig())
            lo, hi = schedule.thread_range(p)
            assert s.n_threads == hi - lo
            total_combos += s.n_combos
        assert total_combos == math.comb(g, 4)

    def test_cached_profiles_match_direct(self):
        g = 40
        schedule = equiarea_schedule(SCHEME_3X1, g, 6)
        mem = MemoryConfig()
        direct = [
            partition_kernel_stats(schedule, p, w, 3, 2, mem)
            for p, w in enumerate(schedule.work_per_part())
        ]
        via_profiles = gpu_busy_times(schedule, 3, 2, mem)
        # One formula evaluates both: the schedule-wide arrays and each
        # launch alone agree to the last bit.
        assert [kernel_time(s).total_s for s in direct] == via_profiles.tolist()

    def test_empty_partition(self):
        schedule = equiarea_schedule(SCHEME_3X1, 5, 20)
        profs = partition_profiles(schedule, MemoryConfig())
        assert any(p.n_threads == 0 for p in profs)
        # An idle partition costs exactly its launch, as one idle launch.
        times = gpu_busy_times(schedule, 1, 1, MemoryConfig(), profiles=profs)
        launch = kernel_time(KernelStats(0, 0, 2, 1, 2, 0, 0)).total_s
        assert launch == TimingTuning().kernel_launch_s
        assert all(t == launch for t, p in zip(times, profs) if p.n_threads == 0)


class TestJobModel:
    def test_runtime_decreases_with_nodes(self):
        m = JobModel(scheme=SCHEME_3X1)
        t100 = m.run(ACC, 4).total_s
        t400 = m.run(ACC, 16).total_s
        assert t400 < t100

    def test_efficiency_below_one_and_reasonable(self):
        m = JobModel(scheme=SCHEME_3X1)
        pts = strong_scaling_sweep(m, ACC, [4, 8, 16], baseline_nodes=4)
        assert pts[0].efficiency == pytest.approx(1.0)
        for p in pts[1:]:
            assert 0.3 < p.efficiency <= 1.0

    def test_paper_scale_strong_scaling_band(self):
        # The headline reproduction: efficiency at 1000 nodes in the
        # paper's neighbourhood (paper: 84.18%; accept 75-95%).
        m = JobModel(scheme=SCHEME_3X1)
        pts = strong_scaling_sweep(m, BRCA, [100, 1000])
        eff = pts[-1].efficiency
        assert 0.75 < eff < 0.95

    def test_memopts_speed_up_job(self):
        base = JobModel(scheme=SCHEME_3X1, memory=MemoryConfig(False, False, False))
        opt = JobModel(scheme=SCHEME_3X1, memory=MemoryConfig(True, True, True))
        assert opt.run(ACC, 4).total_s < base.run(ACC, 4).total_s

    def test_equiarea_beats_equidistance(self):
        ea = JobModel(scheme=SCHEME_2X2, scheduler="equiarea")
        ed = JobModel(scheme=SCHEME_2X2, scheduler="equidistance")
        assert ea.run(ACC, 4).total_s < ed.run(ACC, 4).total_s

    def test_deterministic(self):
        m = JobModel(scheme=SCHEME_3X1)
        assert m.run(ACC, 4).total_s == m.run(ACC, 4).total_s

    def test_job_result_fields(self):
        m = JobModel(scheme=SCHEME_3X1)
        r = m.run(ACC, 4, max_iterations=3)
        assert len(r.iteration_s) == 3
        assert r.n_nodes == 4
        assert r.total_s == pytest.approx(
            sum(r.iteration_s) + r.setup_s, rel=1e-6
        )

    def test_single_gpu_vs_cpu_ratio(self):
        m = JobModel(scheme=SCHEME_3X1)
        gpu = m.single_gpu_seconds(BRCA)
        cpu = m.single_cpu_seconds(BRCA)
        assert cpu / gpu == pytest.approx(
            V100_EFFECTIVE / 2.2e9, rel=1e-6
        )

    def test_unknown_scheduler(self):
        m = JobModel(scheme=SCHEME_3X1, scheduler="nope")
        with pytest.raises(ValueError):
            m.run(ACC, 2)


from repro.gpusim.device import V100  # noqa: E402

V100_EFFECTIVE = V100.peak_int_ops_per_s * TimingTuning().issue_efficiency


class TestSingleGpuScanRate:
    """``C(G, h) / single_gpu_scan_seconds`` is the model's combinations
    per second on one device — the figure a measured rate is checked
    against."""

    @staticmethod
    def _rate(g: int, words: int) -> float:
        seconds = single_gpu_scan_seconds(SCHEME_3X1, g, words, MemoryConfig())
        return math.comb(g, SCHEME_3X1.hits) / seconds

    def test_matches_device_throughput(self):
        """Peak int-ops × issue efficiency / ops-per-combo: ``C(G, h)``
        cancels, so the rate is independent of the gene count."""
        words = 100
        tuning, mem = TimingTuning(), MemoryConfig()
        pre = min(mem.prefetched_rows, SCHEME_3X1.flattened)
        rows = (SCHEME_3X1.flattened - pre) + SCHEME_3X1.inner
        expected = V100_EFFECTIVE / tuning.ops_per_combo(words, rows)
        assert self._rate(12000, words) == pytest.approx(expected)
        assert self._rate(500, words) == pytest.approx(expected)

    def test_rate_positive_and_scales_down_with_width(self):
        assert self._rate(1000, 10) > self._rate(1000, 1000) > 0


class TestScalingSweeps:
    def test_scaling_efficiency_formula(self):
        # Doubling nodes with the same runtime halves efficiency.
        assert scaling_efficiency(100, 100.0, 200, 100.0) == pytest.approx(0.5)
        assert scaling_efficiency(100, 100.0, 200, 50.0) == pytest.approx(1.0)

    def test_weak_scaling_fixed_work_per_gpu(self):
        m = JobModel(scheme=SCHEME_3X1)
        pts = weak_scaling_sweep(m, ACC, [4, 8], baseline_nodes=4)
        assert pts[0].efficiency == pytest.approx(1.0)
        assert 0.5 < pts[1].efficiency <= 1.01

    def test_baseline_added_if_missing(self):
        m = JobModel(scheme=SCHEME_3X1)
        pts = strong_scaling_sweep(m, ACC, [8], baseline_nodes=4)
        assert [p.n_nodes for p in pts] == [4, 8]


class TestUtilizationProfiles:
    # 50 nodes (300 GPUs) puts the low-index 2x2 partitions in the
    # occupancy-starved straggler regime of Fig. 6; fewer GPUs give each
    # partition enough threads to stay occupied and the profile is flat.
    def test_2x2_acc_shape(self):
        prof = profile_schedule(SCHEME_2X2, ACC, 50)
        u = prof.utilization
        # Decaying utilization: first GPU is the straggler.
        assert u[0] == pytest.approx(1.0)
        assert u[-1] < 0.8
        x = np.arange(len(u))
        assert np.polyfit(x, u, 1)[0] < 0

    def test_2x2_dram_increases(self):
        prof = profile_schedule(SCHEME_2X2, ACC, 50)
        d = prof.dram_read_bps
        assert d[-1] > d[0]

    def test_2x2_small_allocation_is_flat(self):
        # Control: at 60 GPUs every partition has enough threads, so no
        # straggler appears — documents the regime boundary.
        prof = profile_schedule(SCHEME_2X2, ACC, 10)
        assert prof.utilization.min() > 0.9

    def test_3x1_brca_flat(self):
        prof = profile_schedule(SCHEME_3X1, BRCA, 10)
        u = prof.utilization
        assert u.min() > 0.95


class TestJobTracing:
    def test_trace_records_all_iterations(self):
        m = JobModel(scheme=SCHEME_3X1)
        r = m.run(ACC, 3, max_iterations=4, trace=True)
        assert r.spans is not None
        assert {s["attrs"]["iteration"] for s in r.spans} == {0, 1, 2, 3}
        # compute + reduce + bcast + host-compute per rank per iteration.
        assert len(r.spans) == 4 * 3 * 4

    def test_trace_off_by_default(self):
        m = JobModel(scheme=SCHEME_3X1)
        assert m.run(ACC, 2, max_iterations=1).spans is None

    def test_critical_path_consistent_with_comm(self):
        from repro.telemetry.critpath import analyze_trace

        m = JobModel(scheme=SCHEME_3X1)
        r = m.run(ACC, 4, max_iterations=2, trace=True)
        report = analyze_trace(r.spans)
        # Each iteration's compute segment sits on that iteration's
        # straggler: the rank whose compute span ends last.
        spans = {s["id"]: s for s in r.spans}
        on_path = [
            spans[seg["id"]]
            for seg in report["critical_path"]["segments"]
            if seg["name"] == "compute"
        ]
        assert [s["attrs"]["iteration"] for s in on_path] == [0, 1]
        for s in on_path:
            assert s["end_ns"] == max(
                o["end_ns"]
                for o in r.spans
                if o["name"] == "compute"
                and o["attrs"]["iteration"] == s["attrs"]["iteration"]
            )
        # The analyzer's buckets are the job's own per-rank accounting
        # (the straggler's comm is microseconds of wire: ns rounding).
        for row in report["attribution"]["lanes"]:
            b = row["buckets"]
            assert b["compute"] + b["idle"] == pytest.approx(
                r.rank_compute_s[row["rank"]], rel=1e-6, abs=1e-8
            )
            assert b["comm_wait"] == pytest.approx(
                r.rank_comm_s[row["rank"]], rel=1e-6, abs=1e-8
            )

    def test_elastic_job_trace_keeps_departed_and_joined_lanes(self):
        from repro.perfmodel.scaling import elastic_job
        from repro.telemetry.critpath import attribute_time

        m = JobModel(scheme=SCHEME_3X1)
        plain = elastic_job(m, ACC, 4, churn_fraction=0.25)
        traced = elastic_job(m, ACC, 4, churn_fraction=0.25, trace=True)
        assert plain.spans is None and plain.total_s == traced.total_s
        # Rank 3 left before computing anything; its replacement is lane 4.
        assert {s["tid"] for s in traced.spans} == {0, 1, 2, 4}
        report = attribute_time(traced.spans)
        assert report["closure"] == pytest.approx(1.0, abs=1e-6)
        assert report["total_s"] == pytest.approx(
            float((traced.rank_compute_s + traced.rank_comm_s).sum()), rel=1e-6
        )
