"""Exact combinatorics and closed-form linear-index maps.

The scale-out algorithm launches one flat grid of threads and recovers the
gene indices ``(i, j)`` (2x2 scheme) or ``(i, j, k)`` (3x1 scheme) of each
thread from its linear id ``lambda`` using closed-form inverses of the
triangular / tetrahedral enumeration order (Algorithms 1-3 of the paper).
This package implements those maps both in the paper's floating-point
closed form (including the log/exp trick that avoids 128-bit arithmetic)
and as exact integer inversions used for validation.
"""

from repro.combinatorics.binomial import (
    binomial,
    binomial_float,
    cumulative_tetrahedral,
    cumulative_triangular,
)
from repro.combinatorics.triangular import (
    pair_from_linear,
    pair_from_linear_array,
    linear_from_pair,
    triangular_size,
)
from repro.combinatorics.tetrahedral import (
    triple_from_linear,
    triple_from_linear_array,
    triple_from_linear_closed_form,
    linear_from_triple,
    tetrahedral_size,
    sqrt_729l2_minus_3_logexp,
)
from repro.combinatorics.enumeration import combinations_array

__all__ = [
    "binomial",
    "binomial_float",
    "cumulative_tetrahedral",
    "cumulative_triangular",
    "pair_from_linear",
    "pair_from_linear_array",
    "linear_from_pair",
    "triangular_size",
    "triple_from_linear",
    "triple_from_linear_array",
    "triple_from_linear_closed_form",
    "linear_from_triple",
    "tetrahedral_size",
    "sqrt_729l2_minus_3_logexp",
    "combinations_array",
]
