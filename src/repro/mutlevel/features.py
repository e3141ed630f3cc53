"""Mutation features: (gene, position-bin) columns of the expanded matrix.

A *feature* is a specific protein position (or bin of positions) within
a gene; a sample carries the feature iff it has a protein-altering call
at that position.  Binning controls the expansion factor: bin size 1
gives exact positions; coarser bins trade resolution for matrix size
(the paper quotes ~20x larger inputs at mutation level).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.data.maf import MafRecord

__all__ = ["MutationFeature", "MutationMatrix", "expand_calls"]


@dataclass(frozen=True, order=True)
class MutationFeature:
    """One column of the mutation-sample matrix."""

    gene: str
    position_bin: int  # first position of the bin (1-based)
    bin_size: int = 1

    @property
    def label(self) -> str:
        if self.bin_size == 1:
            return f"{self.gene}:{self.position_bin}"
        return f"{self.gene}:{self.position_bin}-{self.position_bin + self.bin_size - 1}"


@dataclass(frozen=True)
class MutationMatrix:
    """A feature-sample matrix with its feature labels.

    ``values[f, s]`` is True iff sample ``s`` has a call inside feature
    ``f``.  The same BitMatrix engines that process gene-sample matrices
    process this — the extension is purely a change of row universe.
    """

    values: np.ndarray  # (features, samples) bool
    features: tuple[MutationFeature, ...]
    sample_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=bool)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        if v.ndim != 2:
            raise ValueError(f"values must be 2-D, got {v.shape}")
        if v.shape[0] != len(self.features):
            raise ValueError(
                f"{v.shape[0]} rows vs {len(self.features)} features"
            )
        if v.shape[1] != len(self.sample_ids):
            raise ValueError(
                f"{v.shape[1]} columns vs {len(self.sample_ids)} sample ids"
            )

    @property
    def n_features(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def to_bitmatrix(self) -> BitMatrix:
        return BitMatrix.from_dense(self.values)


def expand_calls(
    records: list[MafRecord],
    samples: "list[str] | None" = None,
    bin_size: int = 1,
    min_recurrence: int = 1,
) -> MutationMatrix:
    """Expand positional calls into a mutation-sample matrix.

    ``min_recurrence`` drops features seen in fewer samples — §V strategy
    (3): "limit combinations to the most probable oncogenic mutations".
    Features are sorted (gene, position) for determinism.
    """
    if bin_size < 1:
        raise ValueError("bin_size must be >= 1")
    used = [r for r in records if r.protein_altering]
    if samples is None:
        samples = sorted({r.sample for r in used})
    sample_idx = {s: i for i, s in enumerate(samples)}

    carriers: dict[MutationFeature, set[int]] = {}
    for r in used:
        s = sample_idx.get(r.sample)
        if s is None:
            continue
        binned = ((r.protein_position - 1) // bin_size) * bin_size + 1
        feat = MutationFeature(gene=r.gene, position_bin=binned, bin_size=bin_size)
        carriers.setdefault(feat, set()).add(s)

    kept = sorted(f for f, c in carriers.items() if len(c) >= min_recurrence)
    values = np.zeros((len(kept), len(samples)), dtype=bool)
    for idx, f in enumerate(kept):
        values[idx, sorted(carriers[f])] = True
    return MutationMatrix(values=values, features=tuple(kept), sample_ids=tuple(samples))
