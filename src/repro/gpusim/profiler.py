"""Profiler: per-GPU metric collection across a whole launch set.

Plays the role NVPROF played in the paper's Section IV-C/IV-D analysis:
feed it one :class:`KernelStats` per GPU, get back aligned per-GPU metric
arrays (utilization normalized against the slowest GPU, DRAM throughput,
stall fractions) ready for the Fig. 6 / Fig. 7 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.counters import GpuMetrics, metrics_from_timing
from repro.gpusim.device import V100, DeviceSpec
from repro.gpusim.kernel import KernelStats
from repro.gpusim.timing import TimingTuning, kernel_time
from repro.telemetry.session import get_telemetry

__all__ = ["GpuProfile", "Profiler"]


@dataclass
class GpuProfile:
    """Aligned per-GPU metric arrays for one kernel across all GPUs."""

    metrics: list[GpuMetrics]

    def _arr(self, attr: str) -> np.ndarray:
        return np.array([getattr(m, attr) for m in self.metrics])

    @property
    def n_gpus(self) -> int:
        return len(self.metrics)

    @property
    def busy_s(self) -> np.ndarray:
        return self._arr("busy_s")

    @property
    def utilization(self) -> np.ndarray:
        return self._arr("utilization")

    @property
    def dram_read_bps(self) -> np.ndarray:
        return self._arr("dram_read_bps")

    @property
    def stall_memory_dependency(self) -> np.ndarray:
        return self._arr("stall_memory_dependency")

    @property
    def stall_memory_throttle(self) -> np.ndarray:
        return self._arr("stall_memory_throttle")

    @property
    def stall_execution_dependency(self) -> np.ndarray:
        return self._arr("stall_execution_dependency")

    @property
    def bounds(self) -> list[str]:
        return [m.bound for m in self.metrics]

    def memory_to_compute_transition(self) -> "int | None":
        """First GPU index from which no later GPU is memory-bound.

        The paper observes this transition around GPU #500 of 600 in the
        2x2/ACC configuration.
        """
        bounds = self.bounds
        last_memory = None
        for idx, b in enumerate(bounds):
            if b == "memory":
                last_memory = idx
        if last_memory is None:
            return 0
        return last_memory + 1 if last_memory + 1 < len(bounds) else None


@dataclass
class Profiler:
    """Evaluates the timing model + counters for a set of per-GPU launches."""

    device: DeviceSpec = V100
    tuning: TimingTuning = field(default_factory=TimingTuning)

    def profile(self, launches: list[KernelStats]) -> GpuProfile:
        with get_telemetry().span("gpusim.profile", cat="gpusim", gpus=len(launches)):
            timings = [kernel_time(s, self.device, self.tuning) for s in launches]
            slowest = max((t.busy_s for t in timings), default=0.0)
            metrics = []
            for s, t in zip(launches, timings):
                util = t.busy_s / slowest if slowest > 0 else 0.0
                dram_bytes = s.bytes_read / self.tuning.cache_reuse
                metrics.append(
                    metrics_from_timing(s, t, dram_bytes=dram_bytes, utilization=util)
                )
        return GpuProfile(metrics)
