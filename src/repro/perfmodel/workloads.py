"""Paper-scale workload descriptions.

The four named workloads take their gene and sample counts from the
cancer catalogue (:mod:`repro.data.cancers`), which keeps the paper's
stated figures exact (BRCA: 911 tumor samples, G = 19411; LGG: 532
tumor / 329 normal).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bitmatrix.packing import words_for
from repro.data.cancers import cancer

__all__ = ["WorkloadSpec", "BRCA", "ACC", "ESCA", "LGG"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Dataset-level parameters the performance model needs."""

    name: str
    g: int
    n_tumor: int
    n_normal: int

    def __post_init__(self) -> None:
        if self.g < 4:
            raise ValueError("need at least 4 genes")
        if self.n_tumor < 1 or self.n_normal < 0:
            raise ValueError("invalid sample counts")

    @property
    def tumor_words(self) -> int:
        return words_for(self.n_tumor)

    @property
    def normal_words(self) -> int:
        return words_for(self.n_normal)

    @property
    def words(self) -> int:
        """Packed width ANDed per combination (tumor + normal)."""
        return self.tumor_words + self.normal_words


def _cohort_shape(abbrev: str) -> WorkloadSpec:
    c = cancer(abbrev)
    return WorkloadSpec(
        name=c.abbrev, g=c.n_genes, n_tumor=c.n_tumor, n_normal=c.n_normal
    )


BRCA, LGG, ACC, ESCA = map(_cohort_shape, ("BRCA", "LGG", "ACC", "ESCA"))
