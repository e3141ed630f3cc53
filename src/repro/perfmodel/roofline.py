"""Roofline analysis of the scoring kernel.

Places each (scheme, memory-config, word-width) operating point on the
V100 roofline: arithmetic intensity (ops per DRAM byte, after cache
reuse) against the ridge point (peak ops / peak bandwidth).  Points left
of the ridge are bandwidth-bound; right of it compute-bound.  This is
the quantitative backbone of the Fig. 6 discussion — the 2x2 scheme's
low-occupancy partitions *act* memory-bound even when their intensity is
right of the ridge, because exposed latency derates their effective
compute peak.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.memopt import MemoryConfig
from repro.gpusim.device import V100, DeviceSpec
from repro.gpusim.timing import TimingTuning
from repro.scheduling.schemes import Scheme

__all__ = ["RooflinePoint", "ridge_intensity", "operating_point"]


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel configuration on the roofline."""

    label: str
    ops_per_combo: float
    dram_bytes_per_combo: float
    peak_ops_per_s: float
    peak_bandwidth_bps: float

    @property
    def intensity(self) -> float:
        """Ops per DRAM byte."""
        if self.dram_bytes_per_combo == 0:
            return float("inf")
        return self.ops_per_combo / self.dram_bytes_per_combo

    @property
    def ridge(self) -> float:
        return self.peak_ops_per_s / self.peak_bandwidth_bps

    @property
    def compute_bound(self) -> bool:
        return self.intensity >= self.ridge


def ridge_intensity(
    device: DeviceSpec = V100, tuning: "TimingTuning | None" = None
) -> float:
    """Ops/byte at which the kernel transitions to compute-bound."""
    tuning = tuning or TimingTuning()
    return (device.peak_int_ops_per_s * tuning.issue_efficiency) / (
        device.dram_bandwidth_bps
    )


def operating_point(
    scheme: Scheme,
    words: int,
    memory: "MemoryConfig | None" = None,
    device: DeviceSpec = V100,
    tuning: "TimingTuning | None" = None,
    label: "str | None" = None,
) -> RooflinePoint:
    """Roofline placement of one kernel configuration.

    Bytes per combination are the raw word reads derated by cache reuse
    (warp broadcast + L2), matching the timing model's memory bound.
    """
    memory = memory or MemoryConfig()
    tuning = tuning or TimingTuning()
    _, rows = memory.combo_rows(scheme)
    ops = tuning.ops_per_combo(words, rows)
    raw_bytes = rows * words * 8
    dram_bytes = raw_bytes / tuning.cache_reuse
    return RooflinePoint(
        label=label or f"{scheme.name}/{memory.label}/w={words}",
        ops_per_combo=ops,
        dram_bytes_per_combo=dram_bytes,
        peak_ops_per_s=device.peak_int_ops_per_s * tuning.issue_efficiency,
        peak_bandwidth_bps=device.dram_bandwidth_bps,
    )
