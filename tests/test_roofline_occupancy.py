"""Tests for the roofline analysis and occupancy calculator."""

import pytest

from repro.core.memopt import MemoryConfig
from repro.gpusim.device import V100
from repro.gpusim.occupancy import KernelResources, occupancy
from repro.gpusim.timing import TimingTuning
from repro.perfmodel.roofline import operating_point, ridge_intensity
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1


class TestRoofline:
    def test_ridge_matches_device_ratio(self):
        t = TimingTuning()
        ridge = ridge_intensity()
        assert ridge == pytest.approx(
            V100.peak_int_ops_per_s * t.issue_efficiency / V100.dram_bandwidth_bps
        )

    def test_optimized_kernel_is_compute_bound(self):
        # With prefetch + cache reuse, the BRCA-scale 3x1 kernel sits well
        # right of the ridge — matching the flat Fig. 7 profile.
        p = operating_point(SCHEME_3X1, words=31)
        assert p.compute_bound
        assert min(p.peak_ops_per_s, p.intensity * p.peak_bandwidth_bps) == (
            p.peak_ops_per_s
        )

    def test_no_prefetch_lowers_intensity(self):
        opt = operating_point(SCHEME_3X1, words=31, memory=MemoryConfig())
        base = operating_point(
            SCHEME_3X1, words=31, memory=MemoryConfig(False, False, False)
        )
        assert base.dram_bytes_per_combo > opt.dram_bytes_per_combo
        # More loads also add instructions, so intensity moves less than
        # bytes alone would suggest — but it must not increase.
        assert base.intensity <= opt.intensity

    def test_no_cache_reuse_can_flip_memory_bound(self):
        import dataclasses

        raw = operating_point(
            SCHEME_3X1,
            words=31,
            memory=MemoryConfig(False, False, False),
            tuning=dataclasses.replace(TimingTuning(), cache_reuse=1.0),
        )
        assert not raw.compute_bound
        assert raw.intensity * raw.peak_bandwidth_bps < raw.peak_ops_per_s

    def test_labels(self):
        p = operating_point(SCHEME_2X2, words=4)
        assert "2x2" in p.label


class TestOccupancy:
    def test_default_kernel_fits(self):
        occ = occupancy(KernelResources())
        assert occ.blocks_per_sm >= 1
        assert 0 < occ.fraction <= 1.0
        assert occ.device_threads <= V100.n_sms * V100.max_threads_per_sm

    def test_prefetch_costs_local_memory_not_occupancy(self):
        # The paper's prefetch lands in local memory: same occupancy,
        # larger per-thread stack footprint.
        none = occupancy(KernelResources(prefetched_rows=0))
        both = occupancy(KernelResources(prefetched_rows=2))
        assert both.threads_per_sm == none.threads_per_sm
        # Stack bytes holding the prefetched rows: 8 per word per row.
        for rows, stack in [(2, 496), (0, 0)]:
            res = KernelResources(prefetched_rows=rows)
            assert 8 * res.prefetched_rows * res.words == stack

    def test_register_pressure_limits_occupancy(self):
        heavy = occupancy(KernelResources(base_registers=128))
        light = occupancy(KernelResources(base_registers=32))
        assert heavy.threads_per_sm < light.threads_per_sm
        assert heavy.limiter == "registers"

    def test_thread_limit_kicks_in_for_light_kernels(self):
        light = occupancy(KernelResources(base_registers=8, prefetched_rows=0, words=1))
        assert light.limiter in ("threads", "blocks")
        assert light.threads_per_sm == V100.max_threads_per_sm

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            KernelResources(block_size=100)
        with pytest.raises(ValueError):
            KernelResources(block_size=0)

    def test_timing_threshold_consistent_with_occupancy(self):
        # The timing model's latency-hide threshold (~160k threads) is the
        # full-occupancy device capacity; the calculator should reach the
        # same order for the real kernel.
        occ = occupancy(KernelResources())
        assert occ.device_threads > 40_000  # at least the issue-hide level
