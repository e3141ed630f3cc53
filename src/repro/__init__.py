"""repro — multi-hit carcinogenic gene-combination discovery at scale.

A from-scratch Python reproduction of *"Scaling Out a Combinatorial
Algorithm for Discovering Carcinogenic Gene Combinations to Thousands of
GPUs"* (Dash et al., IPDPS 2021): the greedy weighted-set-cover multi-hit
algorithm, its compressed bit-matrix kernels, closed-form thread-index
maps, equi-area scheduler, multi-stage reduction, and simulated
V100/Summit substrates that reproduce the paper's performance figures.

Quickstart::

    import numpy as np
    from repro import MultiHitSolver, generate_cohort, CohortConfig

    cohort = generate_cohort(CohortConfig(n_genes=40, n_tumor=100,
                                          n_normal=100, hits=3))
    result = MultiHitSolver(hits=3).solve(cohort.tumor.values,
                                          cohort.normal.values)
    for combo in result.combinations:
        print(combo.genes, combo.f)
"""

from repro.bitmatrix import BitMatrix
from repro.core import (
    FScoreParams,
    MultiHitCombination,
    MultiHitResult,
    MultiHitSolver,
    SingleGpuEngine,
    DistributedEngine,
)
from repro.core.memopt import MemoryConfig
from repro.scheduling import (
    Scheme,
    SCHEME_1X3,
    SCHEME_2X2,
    SCHEME_3X1,
    Schedule,
    equiarea_schedule,
    equidistance_schedule,
)
from repro.data import (
    CohortConfig,
    GeneSampleMatrix,
    SyntheticCohort,
    generate_cohort,
    train_test_split,
    cancer,
    four_hit_cancers,
)
from repro.analysis import MultiHitClassifier, sensitivity_specificity
from repro.cluster import VirtualCluster
from repro.faults import FaultPlan, FaultReport, FaultSpec, RetryPolicy
from repro.perfmodel import JobModel, WorkloadSpec
from repro.telemetry import (
    Telemetry,
    get_telemetry,
    telemetry_session,
    write_chrome_trace,
    write_summary,
)

__version__ = "1.0.0"

__all__ = [
    "BitMatrix",
    "FScoreParams",
    "MultiHitCombination",
    "MultiHitResult",
    "MultiHitSolver",
    "SingleGpuEngine",
    "DistributedEngine",
    "MemoryConfig",
    "Scheme",
    "SCHEME_1X3",
    "SCHEME_2X2",
    "SCHEME_3X1",
    "Schedule",
    "equiarea_schedule",
    "equidistance_schedule",
    "CohortConfig",
    "GeneSampleMatrix",
    "SyntheticCohort",
    "generate_cohort",
    "train_test_split",
    "cancer",
    "four_hit_cancers",
    "MultiHitClassifier",
    "sensitivity_specificity",
    "VirtualCluster",
    "FaultPlan",
    "FaultSpec",
    "FaultReport",
    "RetryPolicy",
    "JobModel",
    "WorkloadSpec",
    "Telemetry",
    "get_telemetry",
    "telemetry_session",
    "write_chrome_trace",
    "write_summary",
    "__version__",
]
