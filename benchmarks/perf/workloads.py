"""The benchmark's workloads and the seeded generator that feeds them.

The generator re-states the planted-combination recipe of
``repro.data.synthesis`` (Beta background rates x scale, disjoint planted
driver combinations with penetrance, a sporadic fraction) in plain numpy,
so a later change to ``repro.data`` cannot silently change a workload.
The program under test only ever sees the generated matrices (or, for the
gateway workload, a job spec): ``--seed`` is the only randomness.

Sizes are fixed here and nowhere else.  They were chosen on a 2-core box
so one operation lasts 0.4-0.9 s (20 ms for a gateway job): the driver
allows about 21 s per run, set-up and checks included, which rules out the
2-4 s solves ISSUE 11 first sketched.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["WORKLOADS", "Instance", "Workload", "generate", "sha256_of"]

# The recipe's constants (the values repro.data.synthesis defaults to).
BETA_B = 4.0  # background rates follow Beta(1, BETA_B) x scale
N_DRIVER_COMBOS = 4
PENETRANCE = 0.97
SPORADIC_FRACTION = 0.12


@dataclass(frozen=True)
class Instance:
    """One generated cohort: dense boolean (genes, samples) matrices."""

    tumor: np.ndarray
    normal: np.ndarray
    planted: tuple

    @property
    def density(self) -> float:
        return float(
            (self.tumor.sum() + self.normal.sum())
            / (self.tumor.size + self.normal.size)
        )


def generate(
    seed: int, n_genes: int, n_tumor: int, n_normal: int, hits: int, scale: float,
    index: int = 0,
) -> Instance:
    """Planted-combination cohort from ``seed`` alone (``index`` tells the
    instances of one run apart).

    The aggregate statistics are stratified rather than drawn: the rates
    are the ``n_genes`` evenly spaced quantiles of Beta(1, b) in a seeded
    order, and the tumor samples are dealt evenly to the planted
    combinations with an exact sporadic share.  Every seed then gives a
    different matrix of the same density and cover structure, so a metric
    moves with the code and not with the seed.
    """
    rng = np.random.default_rng([int(seed), index, n_genes, n_tumor, n_normal, hits])
    quantiles = (rng.permutation(n_genes) + 0.5) / n_genes
    rates = (1.0 - (1.0 - quantiles) ** (1.0 / BETA_B)) * scale
    tumor = rng.random((n_genes, n_tumor)) < rates[:, None]
    normal = rng.random((n_genes, n_normal)) < rates[:, None]

    # Disjoint driver combinations from the quieter half of the genome.
    quiet = np.argsort(rates)[: max(n_genes // 2, hits * N_DRIVER_COMBOS)]
    drivers = rng.choice(quiet, size=hits * N_DRIVER_COMBOS, replace=False)
    planted = tuple(
        tuple(sorted(int(g) for g in drivers[c * hits : (c + 1) * hits]))
        for c in range(N_DRIVER_COMBOS)
    )
    assignment = np.arange(n_tumor) % N_DRIVER_COMBOS
    assignment[: round(SPORADIC_FRACTION * n_tumor)] = -1
    assignment = rng.permutation(assignment)
    for c, genes in enumerate(planted):
        carriers = np.flatnonzero(assignment == c)
        for gene in genes:
            hit = carriers[rng.random(carriers.size) < PENETRANCE]
            tumor[gene, hit] = True
    return Instance(tumor=tumor, normal=normal, planted=planted)


def sha256_of(matrix: np.ndarray) -> str:
    """Digest of a dense boolean matrix (shape included)."""
    h = hashlib.sha256(repr(matrix.shape).encode())
    h.update(np.packbits(matrix, axis=None).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the solver configuration that runs them.

    ``kind`` selects the operation: ``"solve"`` is one
    ``MultiHitSolver.solve()``; ``"checkpointed"`` goes through
    ``solve_with_checkpoints(every=1)``; ``"gateway"`` submits one job to
    an in-process ``repro.service.Gateway`` and polls it to a terminal
    state.  ``iterations`` is the greedy iteration cap (the instance is
    sized so the cap, not coverage, ends the loop — that keeps the work
    of one operation nearly the same on every seed).  ``instances`` is how
    many cohorts one run generates and rotates its operations over: where
    the work depends on the data (pruning), averaging over a few cohorts
    keeps a run's result from hinging on one lucky or unlucky draw.
    """

    name: str
    why: str
    kind: str
    hits: int
    n_genes: int
    n_tumor: int
    n_normal: int
    scale: float
    iterations: int
    solver: dict = field(default_factory=dict)
    cut_genes: int = 40  # cut-down instance checked against sequential_solve
    instances: int = 1

    def instance(self, seed: int, index: int = 0) -> Instance:
        return generate(
            seed, self.n_genes, self.n_tumor, self.n_normal, self.hits,
            self.scale, index,
        )

    @property
    def grid(self) -> int:
        """Combinations one greedy iteration covers, scored or pruned."""
        return math.comb(self.n_genes, self.hits)

    def smoke(self) -> "Workload":
        """Tiny sizes for the smoke test: same code paths, ~50 ms solves."""
        if self.kind == "gateway":
            return self
        return replace(
            self,
            n_genes=36 if self.hits == 3 else 24,
            n_tumor=128,
            n_normal=128,
            iterations=min(self.iterations, 3),
            cut_genes=20 if self.hits == 3 else 16,
        )


WORKLOADS: tuple = (
    Workload(
        name="dense3_single",
        why="15% density, 32-word rows: fused AND+popcount dominates and the sparse path has nothing to skip",
        kind="solve", hits=3, n_genes=200, n_tumor=2048, n_normal=2048,
        scale=0.7, iterations=2, solver={"backend": "single"},
    ),
    Workload(
        name="sparse3_single",
        why="2% TCGA-like density: the sparse path skips most traffic, so lambda-decode and prefix ANDs lead",
        kind="solve", hits=3, n_genes=200, n_tumor=800, n_normal=800,
        scale=0.1, iterations=8, solver={"backend": "single"},
    ),
    Workload(
        name="hits4_single",
        why="the paper's 3x1 scheme: order-3 decode, short inner loops, shared-prefix AND a quarter of the time",
        kind="solve", hits=4, n_genes=64, n_tumor=512, n_normal=512,
        scale=0.7, iterations=4, solver={"backend": "single"}, cut_genes=28,
    ),
    Workload(
        name="prune3_cover",
        why="pruned greedy cover with a checkpoint per iteration: bounds, splice, checkpoint and per-iteration overhead",
        kind="checkpointed", hits=3, n_genes=64, n_tumor=1024, n_normal=1024,
        scale=0.7, iterations=40, solver={"backend": "single", "prune": True},
        instances=4,
    ),
    Workload(
        name="pool3_2w",
        why="2-worker process pool per solve: spawn, shm publish, IPC, cuts and reduction on top of the same scans",
        kind="solve", hits=3, n_genes=180, n_tumor=800, n_normal=800,
        scale=0.7, iterations=4, solver={"backend": "pool", "n_workers": 2},
    ),
    Workload(
        name="dist3_elastic",
        why="same instance through 2x2 elastic leases in-process: lease ledger and distributed bookkeeping",
        kind="solve", hits=3, n_genes=180, n_tumor=800, n_normal=800,
        scale=0.7, iterations=4,
        solver={
            "backend": "distributed", "n_nodes": 2, "gpus_per_node": 2,
            "elastic": True,
        },
    ),
    Workload(
        name="gateway_small",
        why="closed-loop client of an in-process Gateway, 35 ms solves: store fsyncs, admission and hand-off are the latency",
        kind="gateway", hits=3, n_genes=24, n_tumor=60, n_normal=60,
        scale=0.7, iterations=4, instances=5, solver={"backend": "single"},
    ),
)
