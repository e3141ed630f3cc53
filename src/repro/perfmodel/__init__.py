"""Paper-scale performance reproduction.

Combines the *real* scheduler output (exact thread ranges and work
counts), the *exact* memory-access counts, the analytic V100 timing model
(:mod:`repro.gpusim`), and the virtual-time cluster (:mod:`repro.cluster`)
to predict per-GPU, per-rank, and whole-job runtimes at full Summit scale
(G ~ 19411, up to 1000 nodes) — the machinery behind Figs. 4, 6, 7, 8 and
the ED-vs-EA / memory-optimization tables.
"""

from repro.perfmodel.workloads import WorkloadSpec, BRCA, ACC, ESCA, LGG
from repro.perfmodel.runtime import (
    JobModel,
    JobResult,
    IterationModel,
    partition_kernel_stats,
    gpu_busy_times,
    interleaved_gpu_busy_times,
)
from repro.perfmodel.memory import GpuMemoryPlan, plan_memory
from repro.perfmodel.roofline import RooflinePoint, operating_point, ridge_intensity
from repro.perfmodel.utilization import profile_schedule
from repro.perfmodel.scaling import (
    elastic_strong_scaling_sweep,
    simulate_elastic_makespan,
    ScalingPoint,
    strong_scaling_sweep,
    weak_scaling_sweep,
    scaling_efficiency,
)

__all__ = [
    "WorkloadSpec",
    "BRCA",
    "ACC",
    "ESCA",
    "LGG",
    "JobModel",
    "JobResult",
    "IterationModel",
    "partition_kernel_stats",
    "gpu_busy_times",
    "interleaved_gpu_busy_times",
    "GpuMemoryPlan",
    "plan_memory",
    "RooflinePoint",
    "operating_point",
    "ridge_intensity",
    "profile_schedule",
    "ScalingPoint",
    "strong_scaling_sweep",
    "weak_scaling_sweep",
    "scaling_efficiency",
    "elastic_strong_scaling_sweep",
    "simulate_elastic_makespan",
]
