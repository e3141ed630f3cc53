"""Per-thread and per-level workload models (Fig. 2).

Under a scheme with ``f`` flattened loops and ``d`` inner loops, the
thread whose decoded tuple has largest gene index ``m`` runs
``C(G - 1 - m, d)`` inner combinations.  All threads sharing that largest
index form *workload level* ``m``: the level holds ``C(m, f - 1)``
threads occupying the contiguous linear-id range ``[C(m, f), C(m+1, f))``.
These G discrete levels are what make the O(G) equi-area scheduler
possible (Section III-C).
"""

from __future__ import annotations

import math

import numpy as np

from repro.combinatorics.binomial import binomial, binomial_float
from repro.combinatorics.decode import top_index, top_index_array
from repro.scheduling.schemes import Scheme

__all__ = [
    "total_threads",
    "total_work",
    "cumulative_work_before",
    "level_work",
    "level_range",
    "thread_top_index",
    "thread_work_array",
    "work_prefix_by_level",
]


def total_threads(scheme: Scheme, g: int) -> int:
    """Grid size ``C(g, f)``."""
    return scheme.n_threads(g)


def total_work(scheme: Scheme, g: int) -> int:
    """Total combinations examined: exactly ``C(g, hits)`` regardless of scheme.

    (Vandermonde: sum over levels of ``C(m, f-1) * C(g-1-m, d)``.)
    """
    return math.comb(g, scheme.hits)


def level_work(scheme: Scheme, g: int, m: int) -> int:
    """Inner-loop combinations per thread at level ``m`` (largest index)."""
    return binomial(g - 1 - m, scheme.inner)


def level_range(scheme: Scheme, m: int) -> tuple[int, int]:
    """Linear-id range ``[C(m, f), C(m+1, f))`` occupied by level ``m``."""
    return binomial(m, scheme.flattened), binomial(m + 1, scheme.flattened)


def thread_top_index(scheme: Scheme, lam: np.ndarray) -> np.ndarray:
    """Largest decoded gene index for each linear thread id."""
    return top_index_array(lam, scheme.flattened)


def thread_work_array(scheme: Scheme, g: int, lam: np.ndarray) -> np.ndarray:
    """Inner combinations processed by each thread id in ``lam`` (float64).

    This is the per-thread workload curve of Fig. 2 / Fig. 3(a).
    """
    top = thread_top_index(scheme, lam)
    return binomial_float(g - 1 - top, scheme.inner)


def cumulative_work_before(
    scheme: Scheme, g: int, lam: int, prefix: "list[int] | None" = None
) -> int:
    """Exact total inner-loop work of threads with linear id < ``lam``.

    Splits ``lam`` at its level boundary: whole levels below (from the
    :func:`work_prefix_by_level` table, recomputed if not supplied) plus
    the partial level, every thread of which has identical work.  Python
    ints keep this exact at ``C(20000, 4)`` scale.
    """
    if lam <= 0:
        return 0
    lam = min(lam, total_threads(scheme, g))
    if prefix is None:
        prefix = work_prefix_by_level(scheme, g)
    top = top_index(lam - 1, scheme.flattened)
    lo, _ = level_range(scheme, top)
    return prefix[top] + (lam - lo) * level_work(scheme, g, top)


def work_prefix_by_level(scheme: Scheme, g: int) -> list[int]:
    """Exact cumulative work before each level: ``P[m] = sum_{m'<m} count*work``.

    Length ``g + 1``; ``P[g]`` equals :func:`total_work`.  Python ints keep
    this exact at ``C(20000, 4)`` scale where float64 would round.
    """
    prefix = [0] * (g + 1)
    acc = 0
    f = scheme.flattened
    d = scheme.inner
    for m in range(g):
        prefix[m] = acc
        acc += binomial(m, f - 1) * binomial(g - 1 - m, d)
    prefix[g] = acc
    return prefix
