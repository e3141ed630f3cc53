"""Fig. 5 — effect of the three memory optimizations on runtime.

Paper: MemOpt1 (prefetch gene-i rows) + MemOpt2 (prefetch gene-j rows) +
BitSplicing together give a ~3x speedup for the 3-hit algorithm on BRCA
on a single GPU.

Two reproductions:

* **model** — the single-V100 runtime estimate at paper scale
  (G = 19411) for each cumulative configuration;
* **measured** — the real vectorized engine at reduced scale.  NumPy
  cannot express register prefetch (the fused scan gathers each fixed
  row once whatever the flags), so the word-read count of each
  configuration is :func:`global_word_reads` evaluated over the solve's
  own per-iteration width trajectory — BitSplicing changes that
  trajectory, and the wall time, for real.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bitmatrix.matrix import BitMatrix
from repro.core.memopt import MemoryConfig, global_word_reads
from repro.core.solver import MultiHitSolver
from repro.data.synthesis import CohortConfig, generate_cohort
from repro.perfmodel.runtime import JobModel
from repro.perfmodel.workloads import BRCA, WorkloadSpec
from repro.scheduling.schemes import SCHEME_2X1
from repro.scheduling.workload import total_threads

__all__ = ["Fig5Result", "run", "report", "CONFIGS"]

CONFIGS: list[tuple[str, MemoryConfig]] = [
    ("baseline", MemoryConfig(False, False, False)),
    ("+MemOpt1", MemoryConfig(True, False, False)),
    ("+MemOpt1+MemOpt2", MemoryConfig(True, True, False)),
    ("+MemOpt1+MemOpt2+BitSplicing", MemoryConfig(True, True, True)),
]


@dataclass(frozen=True)
class Fig5Result:
    labels: list[str]
    model_seconds: list[float]
    measured_word_reads: list[int]
    measured_wall_s: list[float]

    @property
    def model_speedups(self) -> list[float]:
        return [self.model_seconds[0] / t for t in self.model_seconds]

    @property
    def combined_model_speedup(self) -> float:
        return self.model_seconds[0] / self.model_seconds[-1]

    @property
    def read_reductions(self) -> list[float]:
        return [self.measured_word_reads[0] / max(r, 1) for r in self.measured_word_reads]


def run(
    workload: WorkloadSpec = BRCA,
    reduced_genes: int = 40,
    seed: int = 7,
) -> Fig5Result:
    labels, model_s = [], []
    for label, mem in CONFIGS:
        labels.append(label)
        model_s.append(
            JobModel(scheme=SCHEME_2X1, memory=mem).single_gpu_seconds(workload)
        )

    cohort = generate_cohort(
        CohortConfig(
            n_genes=reduced_genes, n_tumor=120, n_normal=120, hits=3,
            n_driver_combos=3, seed=seed,
        )
    )
    tumor = BitMatrix.from_dense(cohort.tumor.values)
    normal = BitMatrix.from_dense(cohort.normal.values)
    reads, walls = [], []
    for _, mem in CONFIGS:
        solver = MultiHitSolver(hits=3, backend="single", memory=mem)
        t0 = time.perf_counter()
        result = solver.solve(tumor, normal)
        walls.append(time.perf_counter() - t0)
        # Tumor width of every scan the solve ran: the input's, then the
        # one each iteration left behind (the last scanned only if
        # samples remained, to find nothing more to cover).
        widths = [tumor.n_words] + [r.tumor_words for r in result.iterations]
        if not result.uncovered:
            widths.pop()
        scheme, g = solver.scheme, reduced_genes
        grid = total_threads(scheme, g)
        reads.append(sum(
            global_word_reads(scheme, g, w + normal.n_words, 0, grid, mem)
            for w in widths
        ))
    return Fig5Result(
        labels=labels,
        model_seconds=model_s,
        measured_word_reads=reads,
        measured_wall_s=walls,
    )


def report(result: Fig5Result) -> str:
    lines = ["Fig 5: memory optimizations (3-hit, single GPU)"]
    lines.append("  model (paper scale, G=19411):")
    lines.append("      configuration                  | seconds | speedup")
    for label, sec, sp in zip(result.labels, result.model_seconds, result.model_speedups):
        lines.append(f"      {label:30s} | {sec:7.0f} | {sp:6.2f}x")
    lines.append(
        f"      combined speedup: {result.combined_model_speedup:.2f}x (paper ~3x)"
    )
    lines.append("  reduced scale: model word reads on the solve's trajectory")
    for label, r, red, w in zip(
        result.labels, result.measured_word_reads, result.read_reductions, result.measured_wall_s
    ):
        lines.append(
            f"      {label:30s} | {r:12d} reads | {red:5.2f}x fewer | wall {w:6.3f}s"
        )
    return "\n".join(lines)
