"""Vectorized single-GPU search engine.

Mirrors the CUDA kernel structure: a contiguous range of linear thread
ids is processed level by level (all threads at tetrahedral level ``m``
share the same inner-loop extent), with each thread's fixed-gene rows
AND-reduced once (the MemOpt prefetch) and broadcast against a table of
inner-combination AND rows.  Scores are bit-exact with the sequential
reference; ties resolve to the lexicographically smallest gene tuple.

The scan is *fused and batched*: :func:`_scan_blocks` scores an entire
run of λ-adjacent blocks in one pass, enumerating each stride of thread
ids exactly once (a level walk, :func:`repro.combinatorics.enumeration.
combinations_array` — a scan inverts λ only at its two ends, however
many strides it takes) and folding per-λ maxima into per-block maxima
with a segmented reduction.
The AND → popcount inner product goes through the word-stride fused
kernels of :mod:`repro.core.kernels`, so no ``(B, L, n_words)``
intermediate is ever materialized.

``sparse=True`` layers the sparsity-driven mechanisms on top (still
bit-identical winners): each matrix's
:class:`~repro.bitmatrix.sparsity.SparsityIndex` lets the fused passes
skip stride slices whose nonzero-mask intersection is empty, the
λ-lexicographic enumeration order shares one prefix AND across each run of
consecutive tuples (columns ``1:`` are constant within a run), and a run
whose *tumor* prefix AND is already all-zero is resolved wholesale —
``TP = 0`` exactly — whenever the incumbent's F strictly exceeds the
``TP = 0`` ceiling ``fscore(0, Nn)``.  Skipped content is reported at
the ceiling, a sound upper bound, so folded block maxima remain valid
bounds for the lazy-greedy table (see DESIGN §15 for the soundness
argument).

The scan is its own traffic meter: ``word_reads`` counts the words it
gathers from the matrices — dense, exactly
:func:`repro.core.memopt.fused_word_reads` of the range; sparse, the
actual gathers, with ``word_reads_skipped`` the rest of that figure.

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
    resolve_word_stride,
    score_combos,
    tp_zero_ceiling,
)
from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import level_range, total_threads

__all__ = ["SingleGpuEngine", "best_in_thread_range"]

# Soft cap on elements per broadcast chunk (threads x inner x words).
_CHUNK_ELEMENTS = 1 << 22


def _and_reduce_rows(matrix: BitMatrix, combos: np.ndarray) -> np.ndarray:
    """AND-reduce matrix rows for each combination row; shape (B, W).

    The fancy-indexed gather already materializes a fresh array, so the
    in-place ANDs below never touch the matrix rows themselves.
    """
    out = matrix.words[combos[:, 0]]
    for c in range(1, combos.shape[1]):
        np.bitwise_and(out, matrix.words[combos[:, c]], out=out)
    return out


def _and_reduce_rows_prefix(
    matrix: BitMatrix, combos: np.ndarray, counters: KernelCounters
) -> np.ndarray:
    """:func:`_and_reduce_rows` with shared-prefix AND caching.

    λ order makes consecutive rows share columns ``1:``; the
    prefix AND is computed once per run and each member costs one more
    row AND, amortizing gather traffic ~``h×``.  ``counters`` meters the
    words actually gathered and the cache hits.
    """
    b, h = combos.shape
    w = matrix.n_words
    if h == 1:
        counters.word_reads += b * w
        return matrix.words[combos[:, 0]]  # gather copies
    out = np.empty((b, w), dtype=np.uint64)
    change = np.any(combos[1:, 1:] != combos[:-1, 1:], axis=1)
    starts = np.concatenate(([0], np.flatnonzero(change) + 1, [b]))
    for i in range(len(starts) - 1):
        lo, hi = int(starts[i]), int(starts[i + 1])
        pre = matrix.words[int(combos[lo, 1])].copy()
        for c in combos[lo, 2:]:
            np.bitwise_and(pre, matrix.words[int(c)], out=pre)
        np.bitwise_and(
            matrix.words[combos[lo:hi, 0]], pre[None, :], out=out[lo:hi]
        )
        counters.word_reads += (h - 1 + (hi - lo)) * w
        counters.word_ops += (h - 2 + (hi - lo)) * w
        counters.prefix_and_hits += (hi - lo) - 1
    return out


def _run_count(mask: np.ndarray) -> int:
    """Number of maximal runs of True in a boolean vector."""
    if mask.size == 0:
        return 0
    return int(mask[0]) + int(np.count_nonzero(mask[1:] & ~mask[:-1]))


def _fold_block_max(
    block_max: np.ndarray, cut: np.ndarray, start: int, lam_max: np.ndarray
) -> None:
    """Fold per-λ maxima for λ in ``[start, start + len)`` into per-block
    maxima, segmented at the ``cut`` boundaries.

    ``np.maximum.reduceat`` over the in-chunk offsets of the overlapped
    cut points gives each block's exact maximum even when one stride
    spans several blocks — the reduction that lets the fused scan
    enumerate once per stride instead of once per block.  (With zero-prefix
    run skipping the folded value for skipped λ is the ``TP = 0``
    ceiling — an upper bound rather than the exact maximum, which is all
    a bound table needs.)
    """
    end = start + len(lam_max)
    k0 = int(np.searchsorted(cut, start, side="right")) - 1
    k1 = int(np.searchsorted(cut, end - 1, side="right")) - 1
    offsets = np.maximum(cut[k0 : k1 + 1], start) - start
    seg_max = np.maximum.reduceat(lam_max, offsets)
    np.maximum(block_max[k0 : k1 + 1], seg_max, out=block_max[k0 : k1 + 1])


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
    sparse: bool = False,
    word_stride: "int | None" = None,
) -> tuple["MultiHitCombination | None", np.ndarray]:
    """Exhaustively score threads ``[cut_points[0], cut_points[-1])``.

    One fused pass over a run of λ-adjacent blocks.  Returns
    ``(best, block_max)`` where ``best`` folds the supplied incumbent in
    via the tuple-comparing tie rule (so callers may chain scans over
    runs in any order) and ``block_max[k]`` is a valid upper bound on —
    and without zero-prefix skipping the exact maximum of — F over
    ``[cut_points[k], cut_points[k+1])`` alone, the quantity a bound
    table stores.  ``inner_cache`` memoizes per-level inner AND tables
    across the runs of one call (the matrices are fixed within a call).

    ``counters`` meters the scan as the work happens: ``combos_scored``,
    ``word_ops``, the diagnostics, and the words gathered — each
    thread's fixed rows once, each level's inner table when it is built
    (once per call through ``inner_cache``); on the sparse path
    ``word_reads_skipped`` gets the dense gathers minus the actual ones.
    """
    cut = np.asarray(cut_points, dtype=np.int64)
    lam_start, lam_end = int(cut[0]), int(cut[-1])
    block_max = np.full(len(cut) - 1, float("-inf"))
    f_ord = scheme.flattened
    d = scheme.inner
    ws = resolve_word_stride(word_stride)
    ceiling = tp_zero_ceiling(params)

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
                word_stride=ws,
                sparse=sparse,
                skip_below=(
                    best.f if sparse and best is not None else None
                ),
            )
            if fvals.size:
                _fold_block_max(block_max, cut, start, fvals)
            best = better(best, best_of(combos, fvals, tp, tn))
        return best, block_max

    # The scan's only closed-form inversions — its first thread's tuple
    # and its last thread's level (benchmarks/perf meters both by these
    # names).  Every stride below is enumerated.
    lo_top = int(combos_from_linear(np.asarray([lam_start]), f_ord)[0, -1])
    hi_top = int(top_index_array(np.asarray([lam_end - 1]), f_ord)[0])
    w = tumor.n_words + normal.n_words
    dense_reads = 0  # what the dense scan gathers: fused_word_reads
    reads_before = counters.word_reads

    for m in range(lo_top, hi_top + 1):
        a, b = level_range(scheme, m)
        t_lo, t_hi = max(a, lam_start), min(b, lam_end)
        if t_hi <= t_lo:
            continue
        n_inner_genes = g - 1 - m
        if n_inner_genes < d:
            continue  # threads at this level have empty inner loops
        # Inner-combination AND tables over genes (m+1 .. g-1).
        cached = inner_cache.get(m) if inner_cache is not None else None
        if cached is None:
            inner = combinations_array(d, 0, math.comb(n_inner_genes, d))
            inner += m + 1
            if sparse:
                inner_t = _and_reduce_rows_prefix(tumor, inner, counters)
                inner_n = _and_reduce_rows_prefix(normal, inner, counters)
                inner_masks = (
                    stride_any_mask(inner_t, ws),
                    stride_any_mask(inner_n, ws),
                )
            else:
                inner_t = _and_reduce_rows(tumor, inner)
                inner_n = _and_reduce_rows(normal, inner)
                inner_masks = None
            dense_reads += inner.shape[0] * d * w
            counters.inner_tables_built += 1
            if inner_cache is not None:
                inner_cache[m] = (inner, inner_t, inner_n, inner_masks)
        else:
            inner, inner_t, inner_n, inner_masks = cached
        n_l = inner.shape[0]
        chunk = max(1, _CHUNK_ELEMENTS // max(1, n_l * max(w, 1)))
        for start in range(t_lo, t_hi, chunk):
            end = min(start + chunk, t_hi)
            tuples = combinations_array(f_ord, start, end)
            counters.decode_strides += 1
            dense_reads += (end - start) * f_ord * w
            if sparse:
                tp, tn = _pair_scores_sparse(
                    tumor, normal, tuples, inner_t, inner_n, inner_masks,
                    params, best, ceiling, ws, counters,
                )
            else:
                base_t = _and_reduce_rows(tumor, tuples)
                base_n = _and_reduce_rows(normal, tuples)
                # (B, L) popcounts, word-stride fused (no (B, L, W) cube).
                tp = fused_pair_popcount(base_t, inner_t, ws)
                tn = params.n_normal - fused_pair_popcount(base_n, inner_n, ws)
                counters.word_ops += tp.size * (scheme.hits - 1) * w
            fvals = fscore(tp, tn, params)
            fmax = fvals.max()
            counters.combos_scored += int(fvals.size)
            _fold_block_max(block_max, cut, start, fvals.max(axis=1))
            cand: "MultiHitCombination | None" = None
            if best is None or fmax >= best.f:
                ties = np.argwhere(fvals == fmax)
                rows = np.concatenate(
                    [tuples[ties[:, 0]], inner[ties[:, 1]]], axis=1
                )
                genes = _lexmin_rows(rows)
                # Recover tp/tn of the winner from its tie position.
                first = ties[
                    np.flatnonzero(
                        (rows == genes).all(axis=1)
                    )[0]
                ]
                cand = MultiHitCombination(
                    genes=tuple(int(x) for x in genes),
                    f=float(fmax),
                    tp=int(tp[first[0], first[1]]),
                    tn=int(tn[first[0], first[1]]),
                )
            best = better(best, cand)

    if sparse:
        gathered = counters.word_reads - reads_before
        counters.word_reads_skipped += dense_reads - gathered
    else:
        counters.word_reads += dense_reads
    return best, block_max


def _pair_scores_sparse(
    tumor: BitMatrix,
    normal: BitMatrix,
    tuples: np.ndarray,
    inner_t: np.ndarray,
    inner_n: np.ndarray,
    inner_masks: tuple,
    params: FScoreParams,
    best: "MultiHitCombination | None",
    ceiling: float,
    ws: int,
    counters: KernelCounters,
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse ``(B, L)`` TP / TN for one stride of the nested scan.

    Base rows are built with shared-prefix caching; threads whose tumor
    base AND is all-zero have ``TP = 0`` for every inner combination, so
    when the incumbent strictly beats the ``TP = 0`` ceiling those rows
    skip the normal-side gather and both broadcasts entirely —
    ``TN = Nn`` is reported for them, folding to exactly the ceiling
    (a sound upper bound that can never displace or tie the incumbent).
    """
    mask_t, mask_n = inner_masks
    base_t = _and_reduce_rows_prefix(tumor, tuples, counters)
    drop = None
    if best is not None and best.f > ceiling:
        nz = base_t.any(axis=1)
        if not nz.all():
            drop = ~nz
    if drop is None:
        base_n = _and_reduce_rows_prefix(normal, tuples, counters)
        tp = fused_pair_popcount(
            base_t, inner_t, ws, stride_any_mask(base_t, ws), mask_t, counters
        )
        n_hits = fused_pair_popcount(
            base_n, inner_n, ws, stride_any_mask(base_n, ws), mask_n, counters
        )
        return tp, params.n_normal - n_hits
    kept = np.flatnonzero(~drop)
    tp = np.zeros((tuples.shape[0], inner_t.shape[0]), dtype=np.int64)
    n_hits = np.zeros_like(tp)
    if kept.size:
        bt = base_t[kept]
        bn = _and_reduce_rows_prefix(normal, tuples[kept], counters)
        tp[kept] = fused_pair_popcount(
            bt, inner_t, ws, stride_any_mask(bt, ws), mask_t, counters
        )
        n_hits[kept] = fused_pair_popcount(
            bn, inner_n, ws, stride_any_mask(bn, ws), mask_n, counters
        )
    counters.zero_prefix_runs_skipped += _run_count(drop)
    return tp, params.n_normal - n_hits


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
    word_stride: "int | None" = None,
) -> "MultiHitCombination | None":
    """Best combination among those owned by threads ``[lam_start, lam_end)``.

    A thread owns every ``hits``-combination formed by its decoded
    ``flattened``-tuple plus ``inner`` further genes above its top index.

    ``bounds`` (a :class:`repro.core.bounds.BoundTable` whose block
    boundaries align with this range) switches on the lazy-greedy pruned
    path; the table is mutated in place — scored blocks are refreshed and
    stamped with ``iteration``.  ``sparse`` switches on the
    sparsity-driven scoring path; ``word_stride`` overrides the fused
    slice width (any positive int here; the solver enforces its
    multiple-of-8 policy).  The winner is bit-identical across all four
    combinations of those switches; only the work counters differ.
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
            bounds, iteration, counters, sparse, word_stride,
        )
    best, _ = _scan_blocks(
        scheme, g, tumor, normal, params, (lam_start, lam_end), counters,
        sparse=sparse, word_stride=word_stride,
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
    word_stride: "int | None" = None,
) -> "MultiHitCombination | None":
    """Hierarchical CELF visitation over the fused multi-block scan.

    Super-blocks are visited in descending aggregate-bound order; one
    whose every member is stamped below the incumbent is skipped in a
    single check.  Within a surviving super, members are walked in λ
    order so the non-skipped ones accumulate into contiguous *runs*, each
    scanned by one :func:`_scan_blocks` call (one enumeration per stride
    across the whole run; the runs of a call share their inner tables,
    each built and metered once).  While no incumbent exists, runs flush
    after a single block so the skip checks get a real F to compare
    against as early as possible.

    Soundness: a skipped block's stored bound is a valid upper bound on
    the F it could achieve at some earlier iteration (the exact maximum
    when it was fully scored; the ``TP = 0`` ceiling where zero-prefix
    runs were resolved wholesale), F is non-increasing across iterations
    (TP shrinks, TN is fixed, float rounding is monotone), and skipping
    demands ``bound < incumbent.f`` *strictly* — so a skipped block (or
    super-block, via the max aggregate) holds neither the winner nor an
    equal-F tie.
    """
    i0, i1 = bounds.block_slice(lam_start, lam_end)
    best: "MultiHitCombination | None" = None
    inner_cache: dict = {}

    def flush(run: list) -> None:
        nonlocal best
        cuts = [bounds.block_range(b)[0] for b in run]
        cuts.append(bounds.block_range(run[-1])[1])
        best, block_max = _scan_blocks(
            scheme, g, tumor, normal, params, cuts, counters,
            best, inner_cache, sparse=sparse, word_stride=word_stride,
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
    configuration of the prior paper).  ``sparse`` selects the
    sparsity-driven scoring path; winners are bit-identical either way.
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
