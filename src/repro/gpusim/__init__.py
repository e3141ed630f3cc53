"""Simulated NVIDIA V100 substrate.

Functional execution of the scoring kernels happens in vectorized NumPy
(:mod:`repro.core.engine`); this package supplies the *performance* side:
a V100 device description, an analytic kernel-timing model (roofline +
occupancy/latency-hiding + serial-tail), NVPROF-style counters (DRAM
throughput, warp-stall breakdown, issue efficiency), and a profiler that
aggregates them per GPU.

The model is deliberately simple and fully documented; every constant is
in :class:`TimingTuning` so experiments can state exactly what generated
their curves.
"""

from repro.gpusim.device import V100, DeviceSpec
from repro.gpusim.kernel import KernelStats
from repro.gpusim.timing import KernelTiming, TimingTuning, kernel_time
from repro.gpusim.counters import GpuMetrics, metrics_from_timing
from repro.gpusim.profiler import GpuProfile, Profiler
from repro.gpusim.occupancy import KernelResources, Occupancy, occupancy

__all__ = [
    "KernelResources",
    "Occupancy",
    "occupancy",
    "DeviceSpec",
    "V100",
    "KernelStats",
    "TimingTuning",
    "KernelTiming",
    "kernel_time",
    "GpuMetrics",
    "metrics_from_timing",
    "Profiler",
    "GpuProfile",
]
