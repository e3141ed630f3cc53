"""Generic combinatorial-number-system decoding for any order.

The order-2/3 closed forms in :mod:`triangular` / :mod:`tetrahedral`
mirror what each CUDA thread computes; this module provides the general
``order``-dimensional decode (needed e.g. by the 4x1 scheme where a
thread id encodes a full 4-combination) by peeling the top index one
binomial at a time.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["binomial_clamped", "top_index", "top_index_array", "combos_from_linear"]

_INT64_MAX = np.int64(np.iinfo(np.int64).max)

# Ceiling for admissible lambda values (and the value clamped entries of
# the exact vectorized binomial report).  Any lane of
# :func:`binomial_clamped` whose divide-as-you-go intermediate would
# exceed int64 is clamped *to* the guard; such a lane's true value
# exceeds ``INT64_MAX // order >= 2**60`` for every supported order
# (<= 8), so both the clamp and the truth sit strictly above every
# admissible lambda and all ``<=`` / ``>`` boundary comparisons stay
# exact.  2**60 ~ 1.15e18 still admits e.g. the full order-4 grid at
# 70,000 genes.
_GUARD = np.int64(1) << np.int64(60)

# Supported-order cap implied by the guard analysis above.
_MAX_ORDER = 8


def binomial_clamped(x: np.ndarray, order: int) -> np.ndarray:
    """Exact elementwise ``C(x, order)``, clamped above a guard ceiling.

    Computed divide-as-you-go — ``C(x, r + 1) = C(x, r) * (x - r) //
    (r + 1)`` is exact at every step because any ``r + 1`` consecutive
    integers contain a multiple of ``r + 1`` — so intermediates stay a
    factor ``order`` below the naive falling product (which wraps int64
    negative around ``C(55_000, 4)``).  Lanes whose next multiply would
    overflow int64 anyway are clamped to ``_GUARD`` (and stay clamped);
    their true value exceeds ``INT64_MAX // order``, so comparisons
    against any admissible lambda (all strictly below the guard) are
    unaffected.  Negative ``x - r`` terms clamp to zero, so out-of-range
    ``x`` yields 0 like :func:`math.comb` on ``k > n``.
    """
    if not 1 <= order <= _MAX_ORDER:
        raise ValueError(f"order must be in [1, {_MAX_ORDER}]")
    x = np.asarray(x, dtype=np.int64)
    out = np.ones_like(x)
    clamped = np.zeros(x.shape, dtype=bool)
    for r in range(order):
        term = np.maximum(x - r, 0)
        clamped |= (term > 0) & (out > _INT64_MAX // np.maximum(term, 1))
        # Clamped lanes may wrap here; their value is overwritten below
        # and the sticky mask keeps them pinned for later rounds.
        out = out * term // (r + 1)
    return np.where(clamped, _GUARD, out)


def top_index(lam: int, order: int) -> int:
    """Largest ``m`` with ``C(m, order) <= lam``, for one Python int.

    The scalar twin of :func:`top_index_array`: the same float estimate,
    repaired against :func:`math.comb`, which is exact at any size — no
    guard ceiling, no clamping.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    m = int((math.factorial(order) * lam) ** (1.0 / order) + (order - 1) / 2.0)
    m = max(m, order - 1)
    while math.comb(m, order) > lam:
        m -= 1
    while math.comb(m + 1, order) <= lam:
        m += 1
    return m


def top_index_array(lam: np.ndarray, order: int) -> np.ndarray:
    """Largest ``m`` with ``C(m, order) <= lam`` for each entry (exact).

    Float estimate ``C(m, order) ~ (m - (order-1)/2)**order / order!``
    followed by exact boundary repair with the overflow-safe clamped
    binomial (a naive int64 falling product wraps negative around
    ``C(55000, 4)`` and the repair loops never converge).
    """
    if not 1 <= order <= _MAX_ORDER:
        raise ValueError(f"order must be in [1, {_MAX_ORDER}]")
    lam_i = np.asarray(lam, dtype=np.int64)
    if np.any(lam_i < 0):
        raise ValueError("lambda must be non-negative")
    if np.any(lam_i >= _GUARD):
        raise ValueError("lambda must be below the guard ceiling 2**60")
    fact = math.factorial(order)
    lf = lam_i.astype(np.float64)
    m = np.floor((fact * lf) ** (1.0 / order) + (order - 1) / 2.0).astype(np.int64)
    m = np.maximum(m, order - 1)

    while True:
        over = binomial_clamped(m, order) > lam_i
        if not over.any():
            break
        m = np.where(over, m - 1, m)
    while True:
        under = binomial_clamped(m + 1, order) <= lam_i
        if not under.any():
            break
        m = np.where(under, m + 1, m)
    return m


def combos_from_linear(lam: np.ndarray, order: int) -> np.ndarray:
    """Decode linear ids into strictly increasing ``order``-tuples.

    Inverse of the combinatorial number system
    ``lam = sum_r C(combo[r], r + 1)``.  Returns shape ``(len(lam), order)``
    with columns sorted ascending.
    """
    lam_i = np.asarray(lam, dtype=np.int64)
    out = np.empty((lam_i.size, order), dtype=np.int64)
    rem = lam_i.copy()
    for r in range(order, 0, -1):
        m = top_index_array(rem, r)
        out[:, r - 1] = m
        rem = rem - binomial_clamped(m, r)
    return out
