"""The weighted-set-cover objective (Equation 1 of the paper).

    F = (alpha * TP + TN) / (Nt + Nn)

* ``TP`` — tumor samples carrying mutations in *all* genes of the
  combination (among the samples not yet covered by earlier iterations);
* ``TN`` — normal samples *not* carrying mutations in all genes;
* ``Nt`` / ``Nn`` — total tumor / normal sample counts (fixed
  denominators across greedy iterations);
* ``alpha = 0.1`` — penalty offsetting the algorithm's bias toward true
  positives relative to true negatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DEFAULT_ALPHA", "FScoreParams", "fscore", "numerator"]

DEFAULT_ALPHA = 0.1


@dataclass(frozen=True)
class FScoreParams:
    """Fixed per-run scoring parameters."""

    n_tumor: int
    n_normal: int
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        # n_tumor == 0 is legal (an already-covered / empty cohort solves
        # trivially with coverage 1.0); only negative counts are invalid.
        if self.n_tumor < 0:
            raise ValueError("n_tumor cannot be negative")
        if self.n_normal < 0:
            raise ValueError("n_normal cannot be negative")
        if self.alpha < 0:
            raise ValueError("alpha cannot be negative")

    @property
    def denominator(self) -> float:
        return float(self.n_tumor + self.n_normal)


def numerator(
    tp: "np.ndarray | float", tn: "np.ndarray | float", params: FScoreParams
) -> np.ndarray:
    """Equation 1's numerator ``fl(alpha * TP) + TN``, in one float64 buffer.

    F is this divided by the fixed denominator, and correctly rounded
    division by a positive constant is monotone, so the largest numerator
    gives the largest F.  Ties are not preserved, though: division can map
    different numerators to one F (at ``Nt = Nn = 50``, ``(TP 14, TN 2)``
    and ``(TP 4, TN 3)`` give 3.4000000000000004 and 3.4, both F 0.034),
    so equal-F ties are found in F, never here.
    """
    num = np.multiply(tp, params.alpha, dtype=np.float64)
    num += tn
    return num


def fscore(
    tp: "np.ndarray | float", tn: "np.ndarray | float", params: FScoreParams
) -> np.ndarray:
    """Vectorized Equation 1."""
    return numerator(tp, tn, params) / params.denominator
