"""Labeled gene-sample matrices (the solver input format)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitmatrix.matrix import BitMatrix

__all__ = ["GeneSampleMatrix"]


@dataclass(frozen=True)
class GeneSampleMatrix:
    """Dense boolean gene-sample matrix with gene / sample labels.

    The labeled dense form is the interchange format (what MAF
    summarization produces); engines consume the packed
    :class:`BitMatrix` from :meth:`to_bitmatrix`.
    """

    values: np.ndarray  # (genes, samples) bool
    gene_names: tuple[str, ...]
    sample_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=bool)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "gene_names", tuple(self.gene_names))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        if v.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {v.shape}")
        if v.shape[0] != len(self.gene_names):
            raise ValueError(
                f"{v.shape[0]} rows but {len(self.gene_names)} gene names"
            )
        if v.shape[1] != len(self.sample_ids):
            raise ValueError(
                f"{v.shape[1]} columns but {len(self.sample_ids)} sample ids"
            )

    @property
    def n_genes(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def to_bitmatrix(self) -> BitMatrix:
        return BitMatrix.from_dense(self.values)

    def select_samples(self, idx: np.ndarray) -> "GeneSampleMatrix":
        idx = np.asarray(idx)
        return GeneSampleMatrix(
            values=self.values[:, idx],
            gene_names=self.gene_names,
            sample_ids=tuple(self.sample_ids[i] for i in idx),
        )
