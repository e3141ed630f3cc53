"""Vectorized single-GPU search engine.

Mirrors the CUDA kernel's work decomposition: a thread owns one
``flattened``-tuple and runs an inner loop over the ``inner``-combinations
of the genes above its top index.  Scores are bit-exact with the
sequential reference; ties resolve to the lexicographically smallest
gene tuple.

The scan scores *tiles*, not threads or levels: :func:`_scan_blocks`
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
``-inf`` and not counted.  Per-λ maxima fold into per-block maxima with
a segmented reduction; every value is exact, block maxima included.

``sparse`` selects nothing on this nested path (it still selects the
flat scheme's :func:`repro.core.kernels.score_combos` body).

Counters: ``combos_scored`` and ``word_ops`` count the valid entries
(``word_ops`` at its dense definition, ``(hits - 1)`` row ANDs per
combination); ``decode_strides`` counts tiles and ``inner_tables_built``
the inner tables built.  ``word_reads`` on the nested path is the model
figure :func:`repro.core.memopt.fused_word_reads` of the range —
computed, not gathered: ``f`` rows per thread plus one inner table per
level the call touches, charged once per call (the runs of a pruned
call share one charged-level set).  ``word_reads_skipped`` stays 0.

When a :class:`repro.core.bounds.BoundTable` is supplied the engine takes
the lazy-greedy fast path instead: super-blocks are visited in descending
aggregate-bound order, and a super-block whose every member is stamped
below the incumbent is skipped in one step without touching per-block
metadata.  Surviving supers fall back to per-block checks, and their
non-skipped members — λ-adjacent by construction — are scanned as single
fused multi-block runs.  Because skipping requires the bound to be
*strictly* below the incumbent F, and the incumbent is maintained with
the tuple-comparing :func:`repro.core.combination.better`, the winner —
F, TP, TN, and the lexicographic tie rule — is bit-identical to the
unpruned scan regardless of visitation order or run batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.bitmatrix.sparsity import stride_any_mask
from repro.combinatorics.decode import combos_from_linear, top_index_array
from repro.combinatorics.enumeration import combinations_array
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
from repro.scheduling.workload import total_threads

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


def _fold_block_max(
    block_max: np.ndarray, cut: np.ndarray, start: int, lam_max: np.ndarray
) -> None:
    """Fold per-λ maxima for λ in ``[start, start + len)`` into per-block
    maxima, segmented at the ``cut`` boundaries.

    ``np.maximum.reduceat`` over the in-chunk offsets of the overlapped
    cut points gives each block's exact maximum even when one tile
    spans several blocks — the reduction that lets the fused scan
    enumerate once per tile instead of once per block.
    """
    end = start + len(lam_max)
    k0 = int(np.searchsorted(cut, start, side="right")) - 1
    k1 = int(np.searchsorted(cut, end - 1, side="right")) - 1
    offsets = np.maximum(cut[k0 : k1 + 1], start) - start
    seg_max = np.maximum.reduceat(lam_max, offsets)
    np.maximum(block_max[k0 : k1 + 1], seg_max, out=block_max[k0 : k1 + 1])


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


def _scan_blocks(
    scheme: Scheme,
    g: int,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    cut_points,
    counters: KernelCounters,
    best: "MultiHitCombination | None" = None,
    inner_cache: "dict | None" = None,
    charged_levels: "set | None" = None,
    sparse: bool = False,
) -> tuple["MultiHitCombination | None", np.ndarray]:
    """Exhaustively score threads ``[cut_points[0], cut_points[-1])``.

    One fused pass over a run of λ-adjacent blocks.  Returns
    ``(best, block_max)`` where ``best`` folds the supplied incumbent in
    via the tuple-comparing tie rule (so callers may chain scans over
    runs in any order) and ``block_max[k]`` is the exact maximum of F
    over ``[cut_points[k], cut_points[k+1])`` alone, the quantity a
    bound table stores (on the flat scheme's sparse body, an upper bound
    where zero-prefix runs were resolved wholesale).  ``inner_cache``
    memoizes per-level inner tables and ``charged_levels`` the levels
    already charged to ``word_reads`` across the runs of one call (the
    matrices are fixed within a call); without a cache only the current
    tile's table is kept.

    ``counters`` meters the scan (see the module docstring for what each
    field means on either path).
    """
    cut = np.asarray(cut_points, dtype=np.int64)
    lam_start, lam_end = int(cut[0]), int(cut[-1])
    block_max = np.full(len(cut) - 1, float("-inf"))
    f_ord = scheme.flattened
    d = scheme.inner

    if d == 0:
        # Threads == combinations: enumerate and score directly; the
        # kernel meters its own gathers on either path.
        chunk = max(
            1, _CHUNK_ELEMENTS // (f_ord * (tumor.n_words + normal.n_words))
        )
        for start in range(lam_start, lam_end, chunk):
            end = min(start + chunk, lam_end)
            combos = combinations_array(f_ord, start, end)
            counters.decode_strides += 1
            fvals, tp, tn = score_combos(
                tumor, normal, combos, params, counters,
                sparse=sparse,
                skip_below=(
                    best.f if sparse and best is not None else None
                ),
            )
            if fvals.size:
                _fold_block_max(block_max, cut, start, fvals)
            best = better(best, best_of(combos, fvals, tp, tn))
        return best, block_max

    w = tumor.n_words + normal.n_words
    counters.word_reads += fused_word_reads(
        scheme, g, w, lam_start, lam_end, charged_levels
    )
    # The scan's only closed-form inversions — its first thread's tuple
    # and its last thread's level (benchmarks/perf meters both by these
    # names).  Threads above level g-1-d have empty inner loops, so a
    # range reaching them ends where they begin.
    m = int(combos_from_linear(np.asarray([lam_start]), f_ord)[0, -1])
    if int(top_index_array(np.asarray([lam_end - 1]), f_ord)[0]) > g - 1 - d:
        lam_end = math.comb(g - d, f_ord)
    tables = inner_cache if inner_cache is not None else {}

    start = lam_start
    while start < lam_end:
        if m not in tables:
            if inner_cache is None:
                tables.clear()  # nothing outlives the call: one table live
            tables[m] = _inner_table(scheme, g, m, tumor, normal)
            counters.inner_tables_built += 1
        # Rows fill the budget against the wider of the tile's two
        # shapes, (B, L) entries and (B, W) base words.
        width = max(tables[m][0].shape[0], tumor.n_words, normal.n_words)
        end = min(start + max(1, _TILE_ELEMENTS // width), lam_end)
        tuples = combinations_array(f_ord, start, end)
        counters.decode_strides += 1
        lam_max, cand = _score_tile(
            scheme, tuples, m, tables[m], tumor, normal, params, best, counters
        )
        _fold_block_max(block_max, cut, start, lam_max)
        best = better(best, cand)
        # The next tile's lowest level, read off this tile's last row.
        top_last = int(tuples[-1, -1])
        m = top_last if end < math.comb(top_last + 1, f_ord) else top_last + 1
        start = end
    return best, block_max


def best_in_thread_range(
    scheme: Scheme,
    g: int,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    lam_start: int,
    lam_end: int,
    counters: "KernelCounters | None" = None,
    bounds: "object | None" = None,
    iteration: int = 0,
    sparse: bool = False,
) -> "MultiHitCombination | None":
    """Best combination among those owned by threads ``[lam_start, lam_end)``.

    A thread owns every ``hits``-combination formed by its decoded
    ``flattened``-tuple plus ``inner`` further genes above its top index.

    ``bounds`` (a :class:`repro.core.bounds.BoundTable` whose block
    boundaries align with this range) switches on the lazy-greedy pruned
    path; the table is mutated in place — scored blocks are refreshed and
    stamped with ``iteration``.  ``sparse`` reaches only the flat scheme
    (``inner == 0``), whose :func:`repro.core.kernels.score_combos`
    still has a sparsity-driven body (at the kernel's default word
    stride); the nested scan has one body.
    The winner is bit-identical across all four combinations of
    ``bounds`` and ``sparse``; only the work counters differ.
    """
    if tumor.n_genes != g or normal.n_genes != g:
        raise ValueError("matrix gene count must match g")
    lam_end = min(lam_end, total_threads(scheme, g))
    if lam_end <= lam_start:
        return None
    if counters is None:
        counters = KernelCounters()  # metered and dropped

    if bounds is not None:
        return _best_pruned(
            scheme, g, tumor, normal, params, lam_start, lam_end,
            bounds, iteration, counters, sparse,
        )
    best, _ = _scan_blocks(
        scheme, g, tumor, normal, params, (lam_start, lam_end), counters,
        sparse=sparse,
    )
    return best


def _best_pruned(
    scheme: Scheme,
    g: int,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    lam_start: int,
    lam_end: int,
    bounds,
    iteration: int,
    counters: KernelCounters,
    sparse: bool = False,
) -> "MultiHitCombination | None":
    """Hierarchical CELF visitation over the fused multi-block scan.

    Super-blocks are visited in descending aggregate-bound order; one
    whose every member is stamped below the incumbent is skipped in a
    single check.  Within a surviving super, members are walked in λ
    order so the non-skipped ones accumulate into contiguous *runs*, each
    scanned by one :func:`_scan_blocks` call (one enumeration per tile
    across the whole run; the runs of a call share their inner tables
    and charge each level's to ``word_reads`` once).  While no incumbent
    exists, runs flush after a single block so the skip checks get a
    real F to compare against as early as possible.

    Soundness: a skipped block's stored bound is the exact maximum F it
    reached when it was last scored (on the flat scheme's sparse body,
    the ``TP = 0`` ceiling where zero-prefix runs were resolved
    wholesale — an upper bound), F is non-increasing across iterations
    (TP shrinks, TN is fixed, float rounding is monotone), and skipping
    demands ``bound < incumbent.f`` *strictly* — so a skipped block (or
    super-block, via the max aggregate) holds neither the winner nor an
    equal-F tie.
    """
    i0, i1 = bounds.block_slice(lam_start, lam_end)
    best: "MultiHitCombination | None" = None
    inner_cache: dict = {}
    charged_levels: set = set()

    def flush(run: list) -> None:
        nonlocal best
        cuts = [bounds.block_range(b)[0] for b in run]
        cuts.append(bounds.block_range(run[-1])[1])
        best, block_max = _scan_blocks(
            scheme, g, tumor, normal, params, cuts, counters,
            best, inner_cache, charged_levels, sparse=sparse,
        )
        for k, b in enumerate(run):
            bounds.refresh(b, float(block_max[k]), iteration)
        counters.blocks_scanned += len(run)

    for s in map(int, bounds.super_visit_order(i0, i1)):
        a, b_hi = bounds.super_block_range(s)
        lo_b, hi_b = max(a, i0), min(b_hi, i1)
        if lo_b >= hi_b:
            continue
        whole = lo_b == a and hi_b == b_hi
        if whole and best is not None and bounds.can_skip_super(s, best.f):
            counters.supers_skipped += 1
            counters.blocks_skipped += hi_b - lo_b
            counters.combos_pruned += bounds.super_work(s)
            continue
        run: list = []
        for b in range(lo_b, hi_b):
            if best is not None and bounds.can_skip(b, best.f):
                if run:
                    flush(run)
                    run = []
                counters.blocks_skipped += 1
                counters.combos_pruned += bounds.block_work(b)
                continue
            run.append(b)
            if best is None:
                flush(run)
                run = []
        if run:
            flush(run)
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
        bounds: "object | None" = None,
        iteration: int = 0,
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
            iteration=iteration,
            sparse=self.sparse,
        )
