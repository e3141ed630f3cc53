"""Mutation-level solving: the gene-level engines over feature rows.

The engines are resolution-agnostic — they see packed bit rows.  This
module wires mutation matrices through :class:`MultiHitSolver` and maps
the winning row indices back to labeled features.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.solver import MultiHitResult, MultiHitSolver
from repro.mutlevel.features import MutationFeature, MutationMatrix

__all__ = ["MutationLevelResult", "solve_mutation_level"]


@dataclass(frozen=True)
class MutationLevelResult:
    """A solver run whose rows are mutation features."""

    raw: MultiHitResult
    features: tuple[MutationFeature, ...]

    @property
    def combinations(self) -> list[tuple[MutationFeature, ...]]:
        return [
            tuple(self.features[g] for g in c.genes) for c in self.raw.combinations
        ]

    @property
    def labels(self) -> list[tuple[str, ...]]:
        return [tuple(f.label for f in combo) for combo in self.combinations]

    @property
    def coverage(self) -> float:
        return self.raw.coverage


def solve_mutation_level(
    tumor: MutationMatrix,
    normal: MutationMatrix,
    hits: int = 3,
    **solver_kwargs,
) -> MutationLevelResult:
    """Run the greedy multi-hit search over mutation features.

    ``tumor`` and ``normal`` must share a feature universe (build the
    normal matrix with ``PositionalCohort.normal_matrix(features=...)``).
    """
    if tumor.features != normal.features:
        raise ValueError("tumor and normal matrices must share features")
    solver = MultiHitSolver(hits=hits, **solver_kwargs)
    raw = solver.solve(tumor.values, normal.values)
    return MutationLevelResult(raw=raw, features=tumor.features)
