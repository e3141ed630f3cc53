"""Generic combinatorial-number-system decoding for any order.

The order-2/3 closed forms in :mod:`triangular` / :mod:`tetrahedral`
mirror what each CUDA thread computes.  On the host there is one
inversion, :func:`top_index`: Python ints and :func:`math.comb`, exact at
any size.  Every caller that inverts one λ calls it directly.  The array
forms invert only their input's two ends with it and find every other λ
by binary search among the level starts ``C(m, order)`` in between — no
float estimate per entry, no clamped binomial, no guard ceiling: exact
for every int64 λ, at one table entry per level spanned (or per entry,
for an array sparser than its span).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["top_index", "top_index_array", "combos_from_linear"]


def top_index(lam: int, order: int) -> int:
    """Largest ``m`` with ``C(m, order) <= lam``, for one Python int.

    A float estimate, repaired against :func:`math.comb`, which is exact
    at any size — no guard ceiling, no clamping.
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


def _levels(lam: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Each λ's top index ``m`` and its level start ``C(m, order)``.

    The starts of the levels between the top indices of ``min(lam)`` and
    ``max(lam)`` are all ``<= max(lam)``, so they fit int64 exactly; each
    λ is the last start at or below it.  When the array is sparser than
    the levels it spans, each entry is inverted on its own instead, so
    the work is never more than one :func:`top_index` per entry.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not lam.size:
        return lam, lam
    if lam.min() < 0:
        raise ValueError("lambda must be non-negative")
    if order == 1:  # C(m, 1) = m: every λ is its own level start
        return lam, lam
    lo = top_index(int(lam.min()), order)
    hi = top_index(int(lam.max()), order)
    if hi - lo < lam.size:
        levels = np.arange(lo, hi + 1)
    else:
        levels = np.array(sorted({top_index(int(x), order) for x in lam.flat}))
    starts = np.array([math.comb(int(m), order) for m in levels], dtype=np.int64)
    k = np.searchsorted(starts, lam, side="right") - 1
    return levels[k], starts[k]


def top_index_array(lam: np.ndarray, order: int) -> np.ndarray:
    """Largest ``m`` with ``C(m, order) <= lam`` for each entry (exact)."""
    return _levels(np.asarray(lam, dtype=np.int64), order)[0]


def combos_from_linear(lam: np.ndarray, order: int) -> np.ndarray:
    """Decode linear ids into strictly increasing ``order``-tuples.

    Inverse of the combinatorial number system
    ``lam = sum_r C(combo[r], r + 1)``.  Returns shape ``(len(lam), order)``
    with columns sorted ascending.
    """
    rem = np.asarray(lam, dtype=np.int64)
    out = np.empty((rem.size, order), dtype=np.int64)
    for r in range(order, 0, -1):
        m, base = _levels(rem, r)
        out[:, r - 1] = m
        rem = rem - base
    return out
