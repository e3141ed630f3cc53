"""Vectorized single-GPU search engine.

Mirrors the CUDA kernel's work decomposition: a thread owns one
``flattened``-tuple and runs an inner loop over the ``inner``-combinations
of the genes above its top index.  Scores are bit-exact with the
sequential reference; ties resolve to the lexicographically smallest
gene tuple.

The scan scores *tiles*, not threads or levels: :func:`_scan_range`
cuts its λ-range into runs of adjacent threads that fill one fixed
``(B, L)`` element budget (:data:`_TILE_ELEMENTS`), however many
workload levels a run crosses.  A tile's tuples are enumerated (a level
walk, :func:`repro.combinatorics.enumeration.combinations_array` — a
scan inverts λ only at its two ends), its fixed rows AND-reduced once
per thread, and it is scored against the inner AND-table of its
*lowest* level — the widest one, a superset of every higher level's —
with :func:`repro.core.kernels.fused_pair_popcount`, a word-major
popcount product that, word by word, touches only the base rows carrying
the word when fewer than half do.  Entries
whose inner genes do not lie above the thread's top gene are set to
``-inf`` and not counted.

``sparse`` selects nothing on this nested path (it still selects the
flat scheme's :func:`repro.core.kernels.score_combos` body).

Counters: ``combos_scored`` and ``word_ops`` count the valid entries
(``word_ops`` at its dense definition, ``(hits - 1)`` row ANDs per
combination); ``decode_strides`` counts tiles and ``inner_tables_built``
the inner tables built.  ``word_reads`` on the unpruned nested path is
the model figure :func:`repro.core.memopt.fused_word_reads` of the
range — computed, not gathered: ``f`` rows per thread plus one inner
table per level the call touches.  ``word_reads_skipped`` stays 0.

When a :class:`repro.core.bounds.BoundTable` is supplied the engine runs
an exact branch and bound instead (:func:`_best_pruned`): every thread
is bounded by ``min(stored, ceiling)`` — its exact maximum when last
scored, and ``fscore(TP_prefix, Nn)`` from its tumor prefix — and
threads are scored best-first in doubling λ-sorted batches until the
next bound is *strictly* below the incumbent.  The incumbent is
maintained with the tuple-comparing
:func:`repro.core.combination.better`, so the winner — F, TP, TN, and
the lexicographic tie rule — is bit-identical to the unpruned scan.
That path's ``word_reads`` counts what it gathers, and
``threads_scanned`` / ``threads_skipped`` / ``combos_pruned`` record
what the bounds saved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.bitmatrix.sparsity import stride_any_mask
from repro.combinatorics.decode import combos_from_linear, top_index

# Bound here but never called by the scan: the benchmark harness
# (benchmarks/perf/trace.py) patches it by this name.
from repro.combinatorics.decode import top_index_array  # noqa: F401
from repro.combinatorics.enumeration import combinations_array
from repro.core.bounds import BoundTable
from repro.core.combination import MultiHitCombination, better
from repro.core.fscore import FScoreParams, fscore
from repro.core.kernels import (
    KernelCounters,
    _lexmin_rows,
    best_of,
    fused_pair_popcount,
    score_combos,
)
from repro.core.memopt import fused_word_reads
from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import level_work, total_threads

__all__ = ["SingleGpuEngine", "best_in_thread_range"]

# Soft cap on elements (combinations x words) per flat-scheme stride.
_CHUNK_ELEMENTS = 1 << 22
# Entries per nested-scheme tile, threads x max(inner combinations, row
# words): every temporary of a tile holds at most this many 8-byte values.
_TILE_ELEMENTS = 1 << 16


def _and_reduce_rows(matrix: BitMatrix, combos: np.ndarray) -> np.ndarray:
    """AND-reduce matrix rows for each combination row; shape (B, W).

    The fancy-indexed gather already materializes a fresh array, so the
    in-place ANDs below never touch the matrix rows themselves.
    """
    out = matrix.words[combos[:, 0]]
    for c in range(1, combos.shape[1]):
        np.bitwise_and(out, matrix.words[combos[:, c]], out=out)
    return out


def _inner_table(
    scheme: Scheme, g: int, m: int, tumor: BitMatrix, normal: BitMatrix
) -> tuple:
    """Level ``m``'s inner combinations over genes ``m+1 .. g-1`` and
    their tumor / normal AND rows, stored word-major ``(W, L)``."""
    d = scheme.inner
    inner = combinations_array(d, 0, math.comb(g - 1 - m, d))
    inner += m + 1
    return (
        inner,
        np.ascontiguousarray(_and_reduce_rows(tumor, inner).T),
        np.ascontiguousarray(_and_reduce_rows(normal, inner).T),
    )


def _score_tile(
    scheme: Scheme,
    tuples: np.ndarray,
    m: int,
    table: tuple,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    best: "MultiHitCombination | None",
    counters: KernelCounters,
) -> tuple[np.ndarray, "MultiHitCombination | None"]:
    """Score one tile: threads ``tuples`` (lowest level ``m``) against
    level ``m``'s inner ``table``.

    Returns each thread's maximum F and the tile's candidate — ``None``
    unless it can displace or tie ``best``.  Entries whose inner genes
    do not lie above the thread's top gene belong to no thread; they are
    ``-inf`` and not counted.
    """
    inner, inner_tw, inner_nw = table
    base_t = _and_reduce_rows(tumor, tuples)
    base_n = _and_reduce_rows(normal, tuples)
    tp = fused_pair_popcount(base_t, inner_tw, stride_any_mask(base_t, 1))
    tn = params.n_normal - fused_pair_popcount(
        base_n, inner_nw, stride_any_mask(base_n, 1)
    )
    fvals = fscore(tp, tn, params)
    top = tuples[:, -1]
    n_valid = fvals.size
    if top[-1] > m:  # the tile climbs past its lowest level
        below = inner[:, 0] <= top[:, None]
        fvals[below] = -np.inf
        n_valid -= int(np.count_nonzero(below))
    counters.combos_scored += n_valid
    counters.word_ops += (
        n_valid * (scheme.hits - 1) * (tumor.n_words + normal.n_words)
    )
    lam_max = fvals.max(axis=1)
    fmax = lam_max.max()
    if best is not None and fmax < best.f:
        return lam_max, None
    ties = np.argwhere(fvals == fmax)
    rows = np.concatenate([tuples[ties[:, 0]], inner[ties[:, 1]]], axis=1)
    genes = _lexmin_rows(rows)
    # Recover tp/tn of the winner from its tie position.
    i, j = ties[np.flatnonzero((rows == genes).all(axis=1))[0]]
    return lam_max, MultiHitCombination(
        genes=tuple(int(x) for x in genes),
        f=float(fmax),
        tp=int(tp[i, j]),
        tn=int(tn[i, j]),
    )


def _scan_range(
    scheme: Scheme,
    g: int,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    lam_start: int,
    lam_end: int,
    counters: KernelCounters,
    sparse: bool = False,
) -> "MultiHitCombination | None":
    """Exhaustively score threads ``[lam_start, lam_end)`` in λ order.

    ``counters`` meters the scan (see the module docstring for what each
    field means on either path).
    """
    f_ord = scheme.flattened
    d = scheme.inner
    best: "MultiHitCombination | None" = None

    if d == 0:
        # Threads == combinations: enumerate and score directly; the
        # kernel meters its own gathers on either path.
        chunk = max(
            1, _CHUNK_ELEMENTS // (f_ord * (tumor.n_words + normal.n_words))
        )
        for start in range(lam_start, lam_end, chunk):
            combos = combinations_array(f_ord, start, min(start + chunk, lam_end))
            counters.decode_strides += 1
            fvals, tp, tn = score_combos(
                tumor, normal, combos, params, counters,
                sparse=sparse,
                skip_below=(
                    best.f if sparse and best is not None else None
                ),
            )
            best = better(best, best_of(combos, fvals, tp, tn))
        return best

    w = tumor.n_words + normal.n_words
    counters.word_reads += fused_word_reads(scheme, g, w, lam_start, lam_end)
    # The scan's only inversions — its first thread's level and its last
    # thread's.  Threads above level g-1-d have empty inner loops, so a
    # range reaching them ends where they begin.
    m = top_index(lam_start, f_ord)
    if top_index(lam_end - 1, f_ord) > g - 1 - d:
        lam_end = math.comb(g - d, f_ord)
    level, table = None, None

    start = lam_start
    while start < lam_end:
        if level != m:  # one table live at a time
            level, table = m, _inner_table(scheme, g, m, tumor, normal)
            counters.inner_tables_built += 1
        # Rows fill the budget against the wider of the tile's two
        # shapes, (B, L) entries and (B, W) base words.
        width = max(table[0].shape[0], tumor.n_words, normal.n_words)
        end = min(start + max(1, _TILE_ELEMENTS // width), lam_end)
        tuples = combinations_array(f_ord, start, end)
        counters.decode_strides += 1
        _, cand = _score_tile(
            scheme, tuples, m, table, tumor, normal, params, best, counters
        )
        best = better(best, cand)
        # The next tile's lowest level, read off this tile's last row.
        top_last = int(tuples[-1, -1])
        m = top_last if end < math.comb(top_last + 1, f_ord) else top_last + 1
        start = end
    return best


def _prefix_ceilings(
    scheme: Scheme,
    tumor: BitMatrix,
    params: FScoreParams,
    lam_start: int,
    lam_end: int,
    counters: KernelCounters,
) -> tuple[np.ndarray, np.ndarray]:
    """Each thread's top gene and F ceiling over ``[lam_start, lam_end)``.

    A thread's combinations all contain its ``f`` fixed genes, so their
    ``TP`` is at most ``TP_prefix``, the popcount of the AND of those
    genes' tumor rows, and their ``TN`` at most ``Nn``: F is at most
    ``fscore(TP_prefix, Nn)`` (float rounding is monotone).  One pass per
    call, in tile-sized λ windows; it gathers ``f`` tumor rows per thread.
    """
    f_ord = scheme.flattened
    tops = np.empty(lam_end - lam_start, dtype=np.int64)
    tp = np.empty(lam_end - lam_start, dtype=np.int64)
    window = max(1, _TILE_ELEMENTS // max(1, tumor.n_words))
    for start in range(lam_start, lam_end, window):
        end = min(start + window, lam_end)
        tuples = combinations_array(f_ord, start, end)
        rows = _and_reduce_rows(tumor, tuples)
        at = slice(start - lam_start, end - lam_start)
        tp[at] = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
        tops[at] = tuples[:, -1]
    counters.word_reads += (lam_end - lam_start) * f_ord * tumor.n_words
    return tops, fscore(tp, params.n_normal, params)


def best_in_thread_range(
    scheme: Scheme,
    g: int,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    lam_start: int,
    lam_end: int,
    counters: "KernelCounters | None" = None,
    bounds: "BoundTable | None" = None,
    sparse: bool = False,
) -> "MultiHitCombination | None":
    """Best combination among those owned by threads ``[lam_start, lam_end)``.

    A thread owns every ``hits``-combination formed by its decoded
    ``flattened``-tuple plus ``inner`` further genes above its top index.

    ``bounds`` (a :class:`repro.core.bounds.BoundTable` covering exactly
    this range) switches on the pruned best-first path; the table is
    mutated in place — every scored thread's entry becomes its exact
    maximum F.  ``sparse`` reaches only the flat scheme
    (``inner == 0``), whose :func:`repro.core.kernels.score_combos`
    still has a sparsity-driven body (at the kernel's default word
    stride); the nested scan has one body.
    The winner is bit-identical across all four combinations of
    ``bounds`` and ``sparse``; only the work counters differ.
    """
    if tumor.n_genes != g or normal.n_genes != g:
        raise ValueError("matrix gene count must match g")
    lam_end = min(lam_end, total_threads(scheme, g))
    if bounds is not None and (bounds.lam_start, bounds.lam_end) != (
        lam_start, lam_end
    ):
        raise ValueError(
            f"bound table covers [{bounds.lam_start}, {bounds.lam_end}), "
            f"the scan [{lam_start}, {lam_end})"
        )
    if lam_end <= lam_start:
        return None
    if counters is None:
        counters = KernelCounters()  # metered and dropped

    if bounds is not None:
        return _best_pruned(
            scheme, g, tumor, normal, params, lam_start, lam_end,
            bounds, counters, sparse,
        )
    return _scan_range(
        scheme, g, tumor, normal, params, lam_start, lam_end, counters,
        sparse=sparse,
    )


def _best_pruned(
    scheme: Scheme,
    g: int,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    lam_start: int,
    lam_end: int,
    bounds: BoundTable,
    counters: KernelCounters,
    sparse: bool = False,
) -> "MultiHitCombination | None":
    """Best-first branch and bound over the threads of one range.

    Each thread is bounded by ``min(stored, ceiling)``
    (:meth:`BoundTable.visit_order`) and visited in descending bound
    order.  Threads are scored in batches that double from one thread
    up to the tile budget: a batch is decoded with
    :func:`combos_from_linear`, sorted by λ and scored against the inner
    table of its lowest level (built once per call), and each scored
    thread's entry becomes its exact maximum.  The scan stops at the
    first bound *strictly* below the incumbent; the threads left
    unvisited add their combinations to ``combos_pruned``.

    Soundness: a stored bound is the exact maximum F the thread reached
    when it was last scored (on the flat scheme's sparse body, the
    ``TP = 0`` ceiling where zero-prefix runs were resolved wholesale —
    an upper bound), F is non-increasing across iterations (TP shrinks,
    TN is fixed, float rounding is monotone), the ceiling bounds every
    combination of the thread now, and a thread is left only when its
    bound is *strictly* below the incumbent's F — so an unvisited thread
    holds neither the winner nor an equal-F tie, and the tuple-comparing
    :func:`better` makes the winner independent of visiting order.

    ``word_reads`` here is what the path gathers: the ceiling pass's
    tumor rows, each batch's ``f`` rows per thread and each inner table
    built.
    """
    f_ord, d = scheme.flattened, scheme.inner
    # Threads above level g-1-d own no combination: never visited.
    n = min(lam_end, math.comb(g - d, f_ord)) - lam_start
    if n <= 0:
        return None
    tops, ceiling = _prefix_ceilings(
        scheme, tumor, params, lam_start, lam_start + n, counters
    )
    order, keys = bounds.visit_order(ceiling)
    neg_keys = -keys  # ascending, for the stop search
    w = tumor.n_words + normal.n_words
    if d:
        widest = max(math.comb(g - 1 - int(tops[0]), d), tumor.n_words, normal.n_words)
        budget = max(1, _TILE_ELEMENTS // widest)
    else:
        budget = max(1, _CHUNK_ELEMENTS // (f_ord * w))
    tables: dict = {}
    best: "MultiHitCombination | None" = None
    pos, size = 0, 1
    while pos < n:
        stop = n if best is None else int(
            np.searchsorted(neg_keys, -best.f, side="right")
        )
        if stop <= pos:
            break
        picked = np.sort(order[pos : min(pos + size, stop)])
        tuples = combos_from_linear(picked + lam_start, f_ord)
        counters.decode_strides += 1
        if d:
            m = int(tuples[0, -1])
            if m not in tables:
                tables[m] = _inner_table(scheme, g, m, tumor, normal)
                counters.inner_tables_built += 1
                counters.word_reads += len(tables[m][0]) * d * w
            counters.word_reads += len(picked) * f_ord * w
            lam_max, cand = _score_tile(
                scheme, tuples, m, tables[m], tumor, normal, params, best,
                counters,
            )
        else:
            lam_max, tp, tn = score_combos(
                tumor, normal, tuples, params, counters,
                sparse=sparse,
                skip_below=best.f if sparse and best is not None else None,
            )
            cand = best_of(tuples, lam_max, tp, tn)
        bounds.refresh(picked, lam_max)
        best = better(best, cand)
        counters.threads_scanned += len(picked)
        pos += len(picked)
        size = min(2 * size, budget)
    rest = order[pos:]
    counters.threads_skipped += len(rest)
    work = np.array([level_work(scheme, g, m) for m in range(g)], dtype=np.int64)
    counters.combos_pruned += int(work[tops[rest]].sum())
    return best


@dataclass
class SingleGpuEngine:
    """Convenience wrapper: one simulated GPU searching a thread range.

    The distributed engine instantiates one of these per GPU partition;
    used standalone it searches the whole grid (the "single V100" baseline
    configuration of the prior paper).  ``sparse`` selects the flat
    scheme's sparsity-driven scoring body; winners are bit-identical
    either way.
    """

    scheme: Scheme
    sparse: bool = False

    def best_combo(
        self,
        tumor: BitMatrix,
        normal: BitMatrix,
        params: FScoreParams,
        lam_start: int = 0,
        lam_end: "int | None" = None,
        counters: "KernelCounters | None" = None,
        bounds: "BoundTable | None" = None,
    ) -> "MultiHitCombination | None":
        g = tumor.n_genes
        if lam_end is None:
            lam_end = total_threads(self.scheme, g)
        return best_in_thread_range(
            self.scheme,
            g,
            tumor,
            normal,
            params,
            lam_start,
            lam_end,
            counters=counters,
            bounds=bounds,
            sparse=self.sparse,
        )
