"""The paper's primary contribution: the multi-hit weighted-set-cover solver.

Greedy loop (Section II-B): each iteration scores *every* ``h``-gene
combination with ``F = (alpha*TP + TN) / (Nt + Nn)``, keeps the best,
removes the tumor samples it covers, and repeats until every tumor sample
is covered (or no combination covers anything new).  The engines here
implement that search sequentially (reference), vectorized (the
"single-GPU" engine, mirroring the CUDA kernel structure), and
distributed over a simulated Summit (schedule -> per-GPU search ->
multi-stage reduction).
"""

from repro.core.fscore import FScoreParams, fscore
from repro.core.combination import (
    COMBO_DTYPE,
    COMBO_RECORD_BYTES,
    MultiHitCombination,
)
from repro.core.kernels import best_of, score_combos
from repro.core.memopt import MemoryConfig
from repro.core.sequential import sequential_best_combo, sequential_solve
from repro.core.engine import SingleGpuEngine, best_in_thread_range
from repro.core.reduction import block_reduce, multi_stage_reduce
from repro.core.distributed import DistributedEngine
from repro.core.solver import IterationRecord, MultiHitResult, MultiHitSolver
from repro.core.checkpoint import (
    SolverState,
    load_state,
    save_state,
    solve_with_checkpoints,
)

__all__ = [
    "FScoreParams",
    "fscore",
    "COMBO_DTYPE",
    "COMBO_RECORD_BYTES",
    "MultiHitCombination",
    "score_combos",
    "best_of",
    "MemoryConfig",
    "sequential_best_combo",
    "sequential_solve",
    "SingleGpuEngine",
    "best_in_thread_range",
    "block_reduce",
    "multi_stage_reduce",
    "DistributedEngine",
    "MultiHitSolver",
    "MultiHitResult",
    "IterationRecord",
    "SolverState",
    "save_state",
    "load_state",
    "solve_with_checkpoints",
]
