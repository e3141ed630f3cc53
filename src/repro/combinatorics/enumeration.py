"""Block-wise enumeration of gene combinations for the kernel drivers.

The vectorized engines process combinations in contiguous blocks of the
linear thread id.  A CUDA thread knows only its own id and must invert
it with the closed-form maps; a host loop that owns a whole window
``[lambda_start, lambda_end)`` does not — it *walks* the window level by
level.  Level ``m`` of order ``r`` is the id range ``[C(m, r),
C(m+1, r))``: its tuples all end in ``m`` and their lower ``r - 1``
columns are ids ``0 .. C(m, r-1)`` of the order below, so a window is a
repeated top column over at most two cut levels and a run of whole ones,
each filled from the order below.  Rows, dtype and colex order are those
of :func:`repro.combinatorics.decode.combos_from_linear`, which stays
the random-access decoder.
"""

from __future__ import annotations

import math

import numpy as np

from repro.combinatorics.decode import top_index

__all__ = ["combinations_array"]


def combinations_array(order: int, lam_start: int, lam_end: int) -> np.ndarray:
    """Index tuples of the linear ids ``[lam_start, lam_end)``, any order.

    The result has shape ``(lam_end - lam_start, order)``, dtype int64,
    strictly increasing rows in colex order (column 0 fastest) — what
    ``combos_from_linear`` decodes from the same ids, at O(rows × order)
    vectorized work and no memory beyond the output's order: the window
    is walked, only its two ends are inverted.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if lam_start < 0:
        raise ValueError("lam_start must be non-negative")
    if lam_end < lam_start:
        raise ValueError("lam_end must be >= lam_start")
    out = np.empty((lam_end - lam_start, order), dtype=np.int64)
    _fill(out, lam_start, lam_end)
    return out


def _fill(out: np.ndarray, lo: int, hi: int) -> None:
    """Write the tuples of ids ``[lo, hi)`` into ``out`` (a view is fine)."""
    order = out.shape[1]
    if order == 1:
        out[:, 0] = np.arange(lo, hi)
        return
    if hi == lo:
        return
    m, m_end = top_index(lo, order), top_index(hi, order)
    base = math.comb(m, order)
    if m == m_end:  # inside one level
        _fill_level(out, m, lo - base, hi - base)
        return
    row = 0
    if lo > base:  # a first level cut short at its start
        row = math.comb(m + 1, order) - lo
        _fill_level(out[:row], m, lo - base, lo - base + row)
        m += 1
    if m < m_end:  # whole levels m .. m_end - 1
        counts = [math.comb(k, order - 1) for k in range(m, m_end)]
        n = sum(counts)
        _fill_whole_levels(out[row : row + n], m, counts)
        row += n
    if row < len(out):  # a last level cut short at its end
        _fill_level(out[row:], m_end, 0, len(out) - row)


def _fill_level(out: np.ndarray, m: int, lo: int, hi: int) -> None:
    """Rows ``[lo, hi)`` of level ``m``: top column ``m`` over a window
    of the order below."""
    out[:, -1] = m
    _fill(out[:, :-1], lo, hi)


def _fill_whole_levels(out: np.ndarray, m: int, counts: list) -> None:
    """Whole levels ``m, m + 1, ...`` of ``counts`` rows each.

    The lower columns of a whole level are ids ``0 .. count`` of the
    order below, so every level's are a prefix of the last one's: that
    one is walked in place and the others gather from it.
    """
    out[:, -1] = np.repeat(np.arange(m, m + len(counts)), counts)
    n_rest = len(out) - counts[-1]
    last = out[n_rest:, :-1]
    _fill(last, 0, counts[-1])
    if n_rest:
        starts = np.cumsum([0] + counts[:-2])
        within = np.arange(n_rest) - np.repeat(starts, counts[:-1])
        out[:n_rest, :-1] = last[within]
