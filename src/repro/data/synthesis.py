"""Planted-combination cohort synthesis.

The generative model mirrors the paper's biological framing: every tumor
is caused by one of a small number of *driver combinations* (h genes that
are jointly mutated), except for a sporadic fraction with no planted
cause; all samples additionally carry *passenger* mutations at per-gene
background rates drawn from a long-tailed distribution (most genes are
rarely mutated; a few — the MUC6-like genes — are mutated in a large
fraction of both tumor and normal samples).

Because the drivers are planted, downstream experiments have ground
truth: the solver should recover the planted combinations, and the Fig. 9
classifier's sensitivity is bounded by penetrance and the sporadic
fraction while its specificity is eroded by the passenger-heavy
combinations the greedy cover is forced to add for straggler samples —
the same driver-vs-passenger tension the paper discusses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.cancers import CancerType
from repro.data.matrices import GeneSampleMatrix

__all__ = ["CohortConfig", "SyntheticCohort", "generate_cohort"]


@dataclass(frozen=True)
class CohortConfig:
    """Generative parameters for one synthetic cohort."""

    n_genes: int
    n_tumor: int
    n_normal: int
    hits: int = 4
    n_driver_combos: int = 4
    driver_penetrance: float = 0.97
    sporadic_fraction: float = 0.12
    background_shape: tuple[float, float] = (1.0, 4.0)
    background_scale: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.hits, self.n_driver_combos) < 1 or self.seed < 0:
            raise ValueError("hits and n_driver_combos must be >= 1, seed >= 0")
        if self.n_genes < self.hits * self.n_driver_combos:
            raise ValueError(
                "n_genes too small for disjoint driver combinations "
                f"(hits x n_driver_combos): {self.n_genes} < "
                f"{self.hits * self.n_driver_combos}"
            )
        if not 0.0 <= self.driver_penetrance <= 1.0:
            raise ValueError("driver_penetrance must be in [0, 1]")
        if not 0.0 <= self.sporadic_fraction < 1.0:
            raise ValueError("sporadic_fraction must be in [0, 1)")


@dataclass(frozen=True)
class SyntheticCohort:
    """A generated cohort with its ground truth."""

    config: CohortConfig
    tumor: GeneSampleMatrix
    normal: GeneSampleMatrix
    planted: tuple[tuple[int, ...], ...]
    assignment: np.ndarray  # per tumor sample: planted-combo index, -1 sporadic
    background_rates: np.ndarray

    @property
    def planted_names(self) -> list[tuple[str, ...]]:
        return [
            tuple(self.tumor.gene_names[g] for g in combo) for combo in self.planted
        ]


def _gene_names(n: int) -> tuple[str, ...]:
    return tuple(f"G{idx:05d}" for idx in range(n))


def generate_cohort(
    config: "CohortConfig | None" = None,
    cancer: "CancerType | None" = None,
    **overrides,
) -> SyntheticCohort:
    """Generate a cohort from a config, or from a catalog entry + overrides.

    When built from a :class:`CancerType`, overrides (most usefully
    ``n_genes``, to scale the instance down to laptop size) are applied
    on top of the catalog's sample counts and estimated hit number.
    """
    if config is None:
        if cancer is None:
            raise ValueError("pass a CohortConfig or a CancerType")
        base = dict(
            n_genes=cancer.n_genes,
            n_tumor=cancer.n_tumor,
            n_normal=cancer.n_normal,
            hits=max(cancer.estimated_hits, 2),
        )
        base.update(overrides)
        config = CohortConfig(**base)
    elif overrides:
        raise ValueError("overrides only apply when building from a CancerType")

    rng = np.random.default_rng(config.seed)
    g, nt, nn = config.n_genes, config.n_tumor, config.n_normal

    a, b = config.background_shape
    bg = rng.beta(a, b, size=g) * config.background_scale

    tumor = rng.random((g, nt)) < bg[:, None]
    normal = rng.random((g, nn)) < bg[:, None]

    # Disjoint driver combinations drawn from the lower-background half of
    # the genome (drivers are rarely passenger-mutated).
    quiet = np.argsort(bg)[: max(g // 2, config.hits * config.n_driver_combos)]
    driver_genes = rng.choice(
        quiet, size=config.hits * config.n_driver_combos, replace=False
    )
    planted = tuple(
        tuple(sorted(int(x) for x in driver_genes[c * config.hits : (c + 1) * config.hits]))
        for c in range(config.n_driver_combos)
    )

    assignment = rng.integers(0, config.n_driver_combos, size=nt)
    assignment[rng.random(nt) < config.sporadic_fraction] = -1
    for s in range(nt):
        c = assignment[s]
        if c < 0:
            continue
        for gene in planted[c]:
            if rng.random() < config.driver_penetrance:
                tumor[gene, s] = True

    names = _gene_names(g)
    return SyntheticCohort(
        config=config,
        tumor=GeneSampleMatrix(
            tumor, names, tuple(f"T{idx:04d}" for idx in range(nt))
        ),
        normal=GeneSampleMatrix(
            normal, names, tuple(f"N{idx:04d}" for idx in range(nn))
        ),
        planted=planted,
        assignment=assignment,
        background_rates=bg,
    )
