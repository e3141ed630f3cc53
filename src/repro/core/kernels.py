"""Vectorized scoring kernels (the ``maxF`` kernel, NumPy edition).

Each CUDA thread ANDs the packed rows of its combination's genes over the
tumor matrix (popcount -> TP) and the normal matrix (popcount -> ``Nn -
TN``), then computes F.  Here a *block* of combinations is scored at once
with broadcast bitwise ops; results are bit-exact with the sequential
reference.

The engine's scans do not score here: every scan of the nested schemes
the paper implements (2x2, 3x1 and their ``(h-1)x1`` kin) is one call
into ``_tile.c`` (built and loaded by :mod:`repro.core.tile`) per
range, which skips every zero base word.  What
is left is the public scoring API.  :func:`score_combos` scores explicit
combinations one row each and is *word-stride fused*: gather -> AND ->
popcount runs over slices of at most ``word_stride`` packed words at a
time (default :data:`DEFAULT_WORD_STRIDE`), accumulating popcounts into
per-combination integer totals, so no full ``(B, n_words)``
intermediate is materialized; it meters its own traffic, every word it
gathers.  :func:`fused_pair_popcount`, the ``(B, L)`` product of thread
base rows against an inner table, has no caller left; the benchmark
harness still patches it by name.  Popcounts are exact integers, so
every body is bit-identical to the single-shot reference (kept as
:func:`score_combos_reference`, the tests' oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.core.combination import MultiHitCombination
from repro.core.fscore import FScoreParams, fscore

__all__ = [
    "DEFAULT_WORD_STRIDE",
    "KernelCounters",
    "best_of",
    "fused_pair_popcount",
    "resolve_word_stride",
    "score_combos",
    "score_combos_reference",
]

# Packed uint64 words per score_combos pass (512 B per row slice): each
# word is touched exactly once and no full-width intermediate is held.
DEFAULT_WORD_STRIDE = 64


def resolve_word_stride(word_stride: "int | None") -> int:
    """Kernel-level stride resolution: any positive int is mechanically
    valid (tests exercise stride 1); ``None`` means the default."""
    if word_stride is None:
        return DEFAULT_WORD_STRIDE
    ws = int(word_stride)
    if ws < 1:
        raise ValueError(f"word_stride must be >= 1, got {word_stride}")
    return ws


@dataclass
class KernelCounters:
    """Accumulated work / traffic counters for one kernel invocation chain.

    ``combos_scored`` counts the combinations scored; ``word_ops`` the
    row ANDs they cost at the dense definition, ``(h - 1)`` rows of
    ``tumor + normal`` words each; ``word_reads`` the words gathered, on
    every path — each inner table built and each thread's ``f`` fixed
    rows, from the tumor matrix and, unless the thread's normal hits
    are stored (:class:`repro.core.engine.NormalHitStore`) or its tumor
    prefix bounded it first, from the normal one.  ``decode_strides``
    counts the scan calls and ``inner_tables_built`` the inner tables
    they built.  ``threads_bounded`` counts the threads whose tumor-prefix
    ceiling, or normal-hit floor (``NormalHitStore.least``), bounded
    them out of the running lead (below it, or at it behind a smaller
    leader), so the kernel skipped their tumor product; their entries
    still count in ``combos_scored``.  It depends on where a backend
    cuts the grid (each scan starts from no lead), not on which rank
    ran a range or what the store held.  ``combos_pruned`` is always 0:
    every combination is scored, and the result file still reports it.
    They all ride one merge path, so the leases of either backend,
    pinned or elastic, report scoring and traffic for free.
    """

    combos_scored: int = 0
    word_reads: int = 0
    word_ops: int = 0
    combos_pruned: int = 0
    threads_bounded: int = 0
    decode_strides: int = 0
    inner_tables_built: int = 0

    def merge(self, other: "KernelCounters") -> None:
        self.combos_scored += other.combos_scored
        self.word_reads += other.word_reads
        self.word_ops += other.word_ops
        self.combos_pruned += other.combos_pruned
        self.threads_bounded += other.threads_bounded
        self.decode_strides += other.decode_strides
        self.inner_tables_built += other.inner_tables_built

    # Harness-only (benchmarks/perf/layers.py reads them): the retired
    # block table's skip count and the retired sparse scoring body's
    # four counters, which read 0.
    supers_skipped = strides_skipped_sparse = property(lambda self: 0)
    prefix_and_hits = zero_prefix_runs_skipped = property(lambda self: 0)
    word_reads_skipped = property(lambda self: 0)


def _lexmin_rows(rows: np.ndarray) -> np.ndarray:
    """Lexicographically smallest row of an int matrix (vectorized)."""
    order = np.lexsort(tuple(rows[:, c] for c in range(rows.shape[1] - 1, -1, -1)))
    return rows[order[0]]


def _fused_and_popcount(
    words: np.ndarray, combos: np.ndarray, word_stride: int
) -> np.ndarray:
    """Per-combination popcount of the AND of its gene rows, stride-fused.

    Equivalent to ``popcount(AND over h rows)`` summed across the full
    word width, but never holds more than a ``(B, word_stride)`` slice:
    each stride is gathered, AND-reduced in place, popcounted, and folded
    into the int64 accumulator before the next stride is touched.
    """
    b, h = combos.shape
    total = np.zeros(b, dtype=np.int64)
    n_words = words.shape[1]
    for w0 in range(0, n_words, word_stride):
        sl = slice(w0, min(w0 + word_stride, n_words))
        acc = words[combos[:, 0], sl]
        for c in range(1, h):
            np.bitwise_and(acc, words[combos[:, c], sl], out=acc)
        total += np.bitwise_count(acc).sum(axis=1, dtype=np.int64)
    return total


def fused_pair_popcount(base: np.ndarray, inner_w: np.ndarray) -> np.ndarray:
    """``(B, L)`` int32 popcounts of ``base[b] & inner[l]``.

    ``base`` ``(B, W)`` holds each thread's AND-reduced fixed-gene rows,
    ``inner_w`` ``(W, L)`` an inner AND-table stored word-major; both
    must be C-contiguous uint64.  A loop over the words skips zero words:
    word ``k`` adds its popcounts to the rows whose base word ``k`` is
    not zero.  Nothing scores with it (the native kernel does); it stays
    for the benchmark harness, which patches it by name.
    """
    for a in (base, inner_w):
        if a.dtype != np.uint64 or not a.flags.c_contiguous:
            raise ValueError("fused_pair_popcount needs C-contiguous uint64 arrays")
    (n_rows, n_words), n_cols = base.shape, inner_w.shape[1]
    if inner_w.shape[0] != n_words:
        raise ValueError(f"base has {n_words} words, inner_w {inner_w.shape[0]}")
    out = np.zeros((n_rows, n_cols), dtype=np.int32)
    for k in range(n_words):
        rows = np.flatnonzero(base[:, k])
        if len(rows):
            out[rows] += np.bitwise_count(base[rows, k, None] & inner_w[k])
    return out


def score_combos(
    tumor: BitMatrix,
    normal: BitMatrix,
    combos: np.ndarray,
    params: FScoreParams,
    counters: "KernelCounters | None" = None,
    word_stride: "int | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score a block of combinations; returns ``(f, tp, tn)`` arrays.

    ``combos`` has shape ``(B, h)`` with strictly increasing gene rows.
    ``TP`` counts tumor samples present in *all* rows of the combination,
    ``TN = Nn - (normal samples present in all rows)``.
    """
    combos = np.asarray(combos, dtype=np.int64)
    if combos.ndim != 2:
        raise ValueError(f"combos must be 2-D (B, h), got shape {combos.shape}")
    b, h = combos.shape
    if b == 0:
        empty = np.empty(0)
        return empty, empty.astype(np.int64), empty.astype(np.int64)
    ws = resolve_word_stride(word_stride)
    tp = _fused_and_popcount(tumor.words, combos, ws)
    tn = params.n_normal - _fused_and_popcount(normal.words, combos, ws)
    f = fscore(tp, tn, params)

    if counters is not None:
        # The dense fused pass touches every gathered word exactly once,
        # so the closed form below *is* the actual traffic.
        counters.combos_scored += b
        counters.word_reads += b * h * (tumor.n_words + normal.n_words)
        counters.word_ops += b * (h - 1) * (tumor.n_words + normal.n_words)
    return f, tp, tn


def score_combos_reference(
    tumor: BitMatrix,
    normal: BitMatrix,
    combos: np.ndarray,
    params: FScoreParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-shot (non-strided) reference scorer.

    Materializes the full ``(B, n_words)`` AND intermediates the fused
    kernel avoids; kept as the oracle the fused path must match
    bit-for-bit.  The fancy-indexed gather already materializes fresh
    arrays, so the in-place ANDs never clobber the matrix rows.
    """
    combos = np.asarray(combos, dtype=np.int64)
    b, h = combos.shape
    if b == 0:
        empty = np.empty(0)
        return empty, empty.astype(np.int64), empty.astype(np.int64)
    t_and = tumor.words[combos[:, 0]]
    n_and = normal.words[combos[:, 0]]
    for c in range(1, h):
        np.bitwise_and(t_and, tumor.words[combos[:, c]], out=t_and)
        np.bitwise_and(n_and, normal.words[combos[:, c]], out=n_and)
    tp = np.bitwise_count(t_and).sum(axis=1).astype(np.int64)
    tn = params.n_normal - np.bitwise_count(n_and).sum(axis=1).astype(np.int64)
    return fscore(tp, tn, params), tp, tn


def best_of(
    combos: np.ndarray, f: np.ndarray, tp: np.ndarray, tn: np.ndarray
) -> "MultiHitCombination | None":
    """Deterministic arg-max of a scored block (ties -> smallest gene tuple).

    The tie-break is the vectorized lexicographic row-min — one
    ``np.lexsort`` over the tied rows instead of a Python ``min`` over
    materialized tuples, which matters when a block ties broadly (e.g.
    all-zero matrices where every combination scores the same).
    """
    if len(f) == 0:
        return None
    fmax = f.max()
    tied = np.flatnonzero(f == fmax)
    if tied.size == 1:
        best_idx = int(tied[0])
    else:
        rows = combos[tied]
        winner = _lexmin_rows(rows)
        best_idx = int(tied[np.flatnonzero((rows == winner).all(axis=1))[0]])
    return MultiHitCombination(
        genes=tuple(int(x) for x in combos[best_idx]),
        f=float(fmax),
        tp=int(tp[best_idx]),
        tn=int(tn[best_idx]),
    )
