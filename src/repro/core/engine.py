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
scan inverts λ only at its two ends) and scored against the inner
AND-table of its *lowest* level — the widest one, a superset of every
higher level's — stored word-major.  Entries whose inner genes do not
lie above the thread's top gene belong to no thread: they are dropped
and not counted, and the valid ones are scored once, row-major, which
is combination-rank order.

The whole tile is one call into the native kernel (``_tile.c``, built
and loaded by :mod:`repro.core.tile`), without the GIL: per thread it
AND-reduces the fixed rows, popcounts them against the table over the
valid columns only (skipping zero base words), takes or stores the
normal hits, forms Equation 1's numerator ``fl(fl(α·TP) + TN)`` exactly
as :func:`repro.core.fscore.numerator` does (compiled with
``-ffp-contract=off``, so no FMA merges the two roundings), and keeps
the thread's maximum.  The tile's maximum is found on numerators —
division by the positive constant ``Nt + Nn`` is monotone — and ties
are settled in F, since division can merge different numerators: only
a thread whose F can tie or beat the running best is rescanned, and the
lexicographic rule compares the thread tuple, then the inner tuple.
Python keeps the enumeration, the counters and building the candidate.
Without a compiler (or under ``tile.FALLBACK``) :func:`_score_tile_numpy`
does the same in numpy, bit-identical.

``sparse`` selects nothing on this nested path (it still selects the
flat scheme's :func:`repro.core.kernels.score_combos` body).

Normal hits are computed once per solve.  Equation 1's ``TN`` depends
only on the normal matrix, which no greedy iteration changes (BitSplicing
narrows the tumor side alone), so a :class:`NormalHitStore` keeps every
combination's normal popcount, indexed by combination rank: thread λ's
combinations occupy ``[cumulative_work_before(λ),
cumulative_work_before(λ + 1))``, so a tile's valid entries (row-major)
are one contiguous slice wherever a partition or a tile is cut, in the
order the tile scores them (the native kernel reads and writes it in
place, at the store's itemsize).  A tile's first scan fills its slice;
every later scan reads it as it is and gathers, ANDs and popcounts only
the tumor side (a level's normal inner table is built only on a miss).
The store is capped at :data:`NORMAL_HIT_BUDGET` bytes.  ``C(G, h)``
counts of ``np.min_scalar_type(Nn)`` fit at cohort scale (2.5 MiB at
G 200, h 3, Nn < 65536); threads past the cap are scored in full every
time, and at the paper's scale (``C(20000, 4)`` combinations) almost all
of them are.

Counters: ``combos_scored`` and ``word_ops`` count the valid entries
(``word_ops`` at its dense definition, ``(hits - 1)`` row ANDs per
combination); ``decode_strides`` counts tiles and ``inner_tables_built``
the inner tables built.  ``word_reads`` is what the scan gathers, on
every nested path: ``f`` rows per thread of each tile and ``d`` rows per
inner combination of each table built, from each matrix it gathers
from, so a tile whose normal hits are stored charges only tumor rows.
``word_reads_skipped`` stays 0.

When a :class:`repro.core.bounds.BoundTable` is supplied the engine runs
an exact branch and bound instead (:func:`_best_pruned`): every thread
is bounded by ``min(stored, ceiling)`` — its exact maximum when last
scored, and ``fscore(TP_prefix, Nn)`` from its tumor prefix — and
threads are scored best-first in doubling λ-sorted batches until the
next bound is *strictly* below the incumbent.  The incumbent is
maintained with the tuple-comparing
:func:`repro.core.combination.better`, so the winner — F, TP, TN, and
the lexicographic tie rule — is bit-identical to the unpruned scan.
It never uses the normal-hit store, and
``threads_scanned`` / ``threads_skipped`` / ``combos_pruned`` record
what the bounds saved.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.combinatorics.decode import combos_from_linear, top_index

# Bound here but never called by the scan: the benchmark harness
# (benchmarks/perf/trace.py) patches them by these names.
from repro.bitmatrix.sparsity import stride_any_mask  # noqa: F401
from repro.combinatorics.decode import top_index_array  # noqa: F401
from repro.combinatorics.enumeration import combinations_array
from repro.core import tile
from repro.core.bounds import BoundTable
from repro.core.combination import MultiHitCombination, better
from repro.core.fscore import FScoreParams, fscore, numerator
from repro.core.kernels import (
    KernelCounters,
    _lexmin_rows,
    best_of,
    fused_pair_popcount,
    score_combos,
)
from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import (
    cumulative_work_before,
    level_range,
    level_work,
    total_threads,
    work_prefix_by_level,
)

__all__ = [
    "NORMAL_HIT_BUDGET",
    "NormalHitStore",
    "SingleGpuEngine",
    "best_in_thread_range",
]

# Soft cap on elements (combinations x words) per flat-scheme stride.
_CHUNK_ELEMENTS = 1 << 22
# Entries per nested-scheme tile, threads x max(inner combinations, row
# words): every temporary of a tile holds at most this many 8-byte values.
_TILE_ELEMENTS = 1 << 16
#: Bytes one :class:`NormalHitStore` may hold.
NORMAL_HIT_BUDGET = 32 << 20


class NormalHitStore:
    """Each combination's normal hit count, kept across a solve's scans.

    Bound to one ``(scheme, g, normal)``: counts are indexed by
    combination rank (:func:`cumulative_work_before` of the thread plus
    the offset in its inner loop) and typed ``np.min_scalar_type(Nn)``.
    The lowest-λ threads whose counts fit :data:`NORMAL_HIT_BUDGET`
    bytes are stored (``[0, lam_cap)``, at most the threads whose inner
    loops are not empty); pages are committed as they fill.  A thread is
    marked filled once its counts are written, so a reader on another
    thread never sees a half-written slice, and two scans of one thread
    write equal counts.
    """

    def __init__(self, scheme: Scheme, g: int, normal: BitMatrix) -> None:
        self.scheme, self.g, self._words = scheme, g, normal.words
        dtype = np.min_scalar_type(normal.n_samples)
        self._prefix = work_prefix_by_level(scheme, g)
        cap = NORMAL_HIT_BUDGET // dtype.itemsize
        if self._prefix[g] <= cap:
            self.lam_cap = math.comb(g - scheme.inner, scheme.flattened)
        else:  # the whole levels below m fit, then part of level m
            m = bisect.bisect_right(self._prefix, cap) - 1
            self.lam_cap = level_range(scheme, m)[0] + (
                cap - self._prefix[m]
            ) // level_work(scheme, g, m)
        self.counts = np.empty(self._rank(self.lam_cap), dtype=dtype)
        self.filled = np.zeros(self.lam_cap, dtype=bool)

    @classmethod
    def reuse(
        cls,
        store: "NormalHitStore | None",
        scheme: Scheme,
        g: int,
        normal: BitMatrix,
    ) -> "NormalHitStore | None":
        """The store an engine hands an unpruned scan of ``normal``:
        ``store`` while it is bound to ``(scheme, g, normal)``, a new one
        otherwise, and ``None`` for a flat scheme, which reads none.  A
        pruned scan reads none either; its callers pass no store."""
        if not scheme.inner:
            return None
        if store is not None and store.binds(scheme, g, normal):
            return store
        return cls(scheme, g, normal)

    def binds(self, scheme: Scheme, g: int, normal: BitMatrix) -> bool:
        return (scheme, g) == (self.scheme, self.g) and normal.words is self._words

    def _rank(self, lam: int) -> int:
        return cumulative_work_before(self.scheme, self.g, lam, self._prefix)

    def read(self, lo: int, hi: int) -> "np.ndarray | None":
        """Counts of threads ``[lo, hi)`` in rank order, or ``None``
        unless every one of them is stored."""
        if hi > self.lam_cap or not self.filled[lo:hi].all():
            return None
        return self.counts[self._rank(lo) : self._rank(hi)]

    def slot(self, lo: int, hi: int) -> np.ndarray:
        """The counts of threads ``[lo, hi)`` in rank order, a writable
        view (``hi <= lam_cap``)."""
        return self.counts[self._rank(lo) : self._rank(hi)]

    def write(self, lo: int, hi: int, counts: "np.ndarray | None" = None) -> None:
        """Store the counts of threads ``[lo, hi)`` (rank order, ``hi <=
        lam_cap``) and mark them filled; ``None``: they were written into
        :meth:`slot` in place."""
        if counts is not None:
            self.slot(lo, hi)[...] = counts
        self.filled[lo:hi] = True


def _and_reduce_rows(matrix: BitMatrix, combos: np.ndarray) -> np.ndarray:
    """AND-reduce matrix rows for each combination row; shape (B, W).

    The fancy-indexed gather already materializes a fresh array, so the
    in-place ANDs below never touch the matrix rows themselves.
    """
    out = matrix.words[combos[:, 0]]
    for c in range(1, combos.shape[1]):
        np.bitwise_and(out, matrix.words[combos[:, c]], out=out)
    return out


def _gather(
    matrix: BitMatrix, combos: np.ndarray, counters: KernelCounters
) -> np.ndarray:
    """:func:`_and_reduce_rows`, charged to ``word_reads`` as gathered."""
    counters.word_reads += combos.size * matrix.n_words
    return _and_reduce_rows(matrix, combos)


class _Level:
    """Level ``m``'s inner combinations over genes ``m+1 .. g-1`` and
    their AND rows, stored word-major ``(W, L)``: the tumor rows at once,
    the normal rows on first use."""

    def __init__(
        self, scheme: Scheme, g: int, m: int, tumor: BitMatrix,
        counters: KernelCounters,
    ) -> None:
        d = scheme.inner
        self.m = m
        self.inner = combinations_array(d, 0, math.comb(g - 1 - m, d))
        self.inner += m + 1
        self.tumor_w = np.ascontiguousarray(_gather(tumor, self.inner, counters).T)
        self._normal_w = None
        self._native = None
        counters.inner_tables_built += 1

    def normal_w(self, normal: BitMatrix, counters: KernelCounters) -> np.ndarray:
        if self._normal_w is None:
            self._normal_w = np.ascontiguousarray(
                _gather(normal, self.inner, counters).T
            )
        return self._normal_w

    def native_args(self, tumor: BitMatrix, normal: BitMatrix) -> tuple:
        """The native call's per-level arguments: both matrices (those the
        level is scored against, always the same), this level's tables
        and a scratch and winner buffer of its own (a level is never
        scored by two threads at once).  ``win`` is the tile's winner
        ``(b, l, TP, normal hits)`` and the words its fixed-row gathers
        read, which the meter's tests tally.  Made on the first native
        tile: reading an array's address costs microseconds."""
        if self._native is None:
            self._scratch = np.empty(
                tumor.n_words + normal.n_words + 2 * len(self.inner) + 2, np.uint64
            )
            self.win = np.empty(5, np.int64)
            self._native = (
                tumor.words.ctypes.data, tumor.n_words,
                normal.words.ctypes.data, normal.n_words,
                self.inner.ctypes.data, *self.inner.shape,
                self.tumor_w.ctypes.data, self._scratch.ctypes.data,
                self.win.ctypes.data,
            )
        return self._native


def _score_tile(
    scheme: Scheme,
    tuples: np.ndarray,
    level: _Level,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    best: "MultiHitCombination | None",
    counters: KernelCounters,
    normal_hits: "tuple[NormalHitStore, int] | None" = None,
    thread_max: bool = False,
) -> tuple["np.ndarray | None", "MultiHitCombination | None"]:
    """Score one tile: threads ``tuples`` (lowest level ``level.m``)
    against that level's inner table.

    Returns each thread's maximum F (with ``thread_max``, which only the
    pruned caller reads; ``None`` otherwise) and the tile's candidate —
    ``None`` unless it can displace or tie ``best``.  Entries whose inner
    genes do not lie above the thread's top gene belong to no thread and
    are dropped; the valid ones are scored once, row-major, which is
    combination-rank order (the store's).  ``normal_hits`` is a store
    and the tile's first thread λ: the tile is then the threads
    ``[λ, λ + B)``, whose stored normal hits replace the normal side, or
    whose normal side fills the store.

    The whole tile is one call into the native kernel (``_tile.c``, see
    :mod:`repro.core.tile`), which gathers, multiplies, scores and picks
    the winner without the GIL; :func:`_score_tile_numpy` is the
    fallback, bit-identical.
    """
    native = tile.kernel()
    if native is None:
        return _score_tile_numpy(
            scheme, tuples, level, tumor, normal, params, best, counters,
            normal_hits, thread_max,
        )
    n_rows = len(tuples)
    store = hits = fill = None
    if normal_hits is not None:
        store, lam = normal_hits
        hits = store.read(lam, lam + n_rows)
    counters.word_reads += tuples.size * tumor.n_words
    normal_w = None
    if hits is None:
        counters.word_reads += tuples.size * normal.n_words
        normal_w = level.normal_w(normal, counters).ctypes.data
        if store is not None and lam + n_rows <= store.lam_cap:
            hits = fill = store.slot(lam, lam + n_rows)
    lam_max = np.empty(n_rows) if thread_max else None
    n_valid = native(
        *level.native_args(tumor, normal),
        tuples.ctypes.data, n_rows, scheme.flattened, normal_w,
        None if hits is None else hits.ctypes.data,
        0 if store is None else store.counts.itemsize,
        params.n_normal, params.alpha, params.denominator,
        -math.inf if best is None else best.f,
        None if lam_max is None else lam_max.ctypes.data,
    )
    if fill is not None:
        store.write(lam, lam + n_rows)
    counters.combos_scored += n_valid
    counters.word_ops += (
        n_valid * (scheme.hits - 1) * (tumor.n_words + normal.n_words)
    )
    b, col, tp, hit, _ = level.win.tolist()
    if b < 0:
        return lam_max, None
    tn = int(params.n_normal) - hit
    return lam_max, MultiHitCombination(
        genes=(*tuples[b].tolist(), *level.inner[col].tolist()),
        f=float(fscore(tp, tn, params)),
        tp=tp,
        tn=tn,
    )


def _score_tile_numpy(
    scheme: Scheme,
    tuples: np.ndarray,
    level: _Level,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    best: "MultiHitCombination | None",
    counters: KernelCounters,
    normal_hits: "tuple[NormalHitStore, int] | None",
    thread_max: bool,
) -> tuple["np.ndarray | None", "MultiHitCombination | None"]:
    """:func:`_score_tile` in numpy, for a host without the native
    kernel (or ``tile.FALLBACK``).

    The epilogue forms Equation 1's numerator ``fl(α·TP) + TN``
    (:func:`repro.core.fscore.numerator`) in one float64 buffer and
    divides only its maximum by ``Nt + Nn``: division by a positive
    constant is monotone, so that is the tile's maximum F.  F itself is
    materialised only on a tile that can displace or tie the incumbent,
    to find its ties, which are taken in F because division can merge
    different numerators.  A tile whose integer ceiling
    ``fscore(max TP, Nn)`` is strictly below the incumbent skips the
    float pass, and per-thread maxima are formed only for the pruned
    caller.
    """
    inner = level.inner
    top = tuples[:, -1]
    valid = inner[:, 0] > top[:, None] if top[-1] > level.m else None
    base_t = _gather(tumor, tuples, counters)
    tp = fused_pair_popcount(base_t, level.tumor_w)
    hits = None
    if normal_hits is not None:
        store, lam = normal_hits
        hi = lam + len(tuples)
        hits = store.read(lam, hi)
    if hits is None:
        base_n = _gather(normal, tuples, counters)
        hits = fused_pair_popcount(base_n, level.normal_w(normal, counters))
        hits = hits.ravel() if valid is None else hits[valid]
        if normal_hits is not None and hi <= store.lam_cap:
            store.write(lam, hi, hits)
    n_valid = len(hits)
    counters.combos_scored += n_valid
    counters.word_ops += (
        n_valid * (scheme.hits - 1) * (tumor.n_words + normal.n_words)
    )
    # The tile's F ceiling from integers alone: TN <= Nn, and the whole
    # tile's TP (a superset of the valid entries) bounds theirs.  The
    # pruned caller needs every thread's exact maximum, so never skips.
    if (
        not thread_max
        and best is not None
        and fscore(tp.max(), params.n_normal, params) < best.f
    ):
        return None, None
    tp = tp.ravel() if valid is None else tp[valid]
    # int32, not the store's type: under NEP 50, Nn minus a uint8 or
    # uint16 array would stay in that type.
    tn = np.subtract(params.n_normal, hits, dtype=np.int32)
    num = numerator(tp, tn, params)
    fmax = num.max() / params.denominator
    lam_max = None
    if thread_max:  # each thread's valid entries are one run of ``num``
        per_row = (
            np.full(len(tuples), len(inner)) if valid is None
            else np.count_nonzero(valid, axis=1)
        )
        starts = np.cumsum(per_row) - per_row
        lam_max = np.maximum.reduceat(num, starts) / params.denominator
    if best is not None and fmax < best.f:
        return lam_max, None
    # Ties in F, not in the numerator: division can merge numerators.
    ties = np.flatnonzero(np.divide(num, params.denominator, out=num) == fmax)
    at = ties if valid is None else np.flatnonzero(valid)[ties]
    i, j = np.divmod(at, len(inner))
    rows = np.concatenate([tuples[i], inner[j]], axis=1)
    genes = _lexmin_rows(rows)
    k = ties[np.flatnonzero((rows == genes).all(axis=1))[0]]
    return lam_max, MultiHitCombination(
        genes=tuple(int(x) for x in genes),
        f=float(fmax),
        tp=int(tp[k]),
        tn=int(tn[k]),
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
    normal_hits: "NormalHitStore | None" = None,
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

    # The scan's only inversions — its first thread's level and its last
    # thread's.  Threads above level g-1-d have empty inner loops, so a
    # range reaching them ends where they begin.
    m = top_index(lam_start, f_ord)
    if top_index(lam_end - 1, f_ord) > g - 1 - d:
        lam_end = math.comb(g - d, f_ord)
    level = None

    start = lam_start
    while start < lam_end:
        if level is None or level.m != m:  # one table live at a time
            level = _Level(scheme, g, m, tumor, counters)
        # Rows fill the budget against the wider of the tile's two
        # shapes, (B, L) entries and (B, W) base words.
        width = max(len(level.inner), tumor.n_words, normal.n_words)
        end = min(start + max(1, _TILE_ELEMENTS // width), lam_end)
        tuples = combinations_array(f_ord, start, end)
        counters.decode_strides += 1
        _, cand = _score_tile(
            scheme, tuples, level, tumor, normal, params, best, counters,
            None if normal_hits is None else (normal_hits, start),
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
        rows = _gather(tumor, tuples, counters)
        at = slice(start - lam_start, end - lam_start)
        tp[at] = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
        tops[at] = tuples[:, -1]
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
    normal_hits: "NormalHitStore | None" = None,
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
    ``normal_hits`` (a :class:`NormalHitStore` bound to ``scheme``,
    ``g`` and ``normal``) serves and keeps the unpruned nested scan's
    normal hit counts; the pruned and flat paths ignore it.
    The winner is bit-identical across every combination of ``bounds``,
    ``sparse`` and ``normal_hits``; only the work counters differ.
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
    if normal_hits is not None and not normal_hits.binds(scheme, g, normal):
        raise ValueError(
            f"normal-hit store is bound to {normal_hits.scheme} over "
            f"{normal_hits.g} genes and its own normal matrix; this scan is "
            f"{scheme} over {g} genes"
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
        sparse=sparse, normal_hits=normal_hits,
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

    ``word_reads`` counts the ceiling pass's tumor rows on top of the
    scan's gathers: each batch's ``f`` rows per thread and each inner
    table built.
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
                tables[m] = _Level(scheme, g, m, tumor, counters)
            lam_max, cand = _score_tile(
                scheme, tuples, tables[m], tumor, normal, params, best,
                counters, thread_max=True,
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

    Used standalone it searches the whole grid (the "single V100"
    baseline configuration of the prior paper).  ``sparse`` selects the
    flat scheme's sparsity-driven scoring body; winners are
    bit-identical either way.  The engine keeps one
    :class:`NormalHitStore` for the normal matrix it last searched, so
    a solve's unpruned scans compute each normal hit count once.
    """

    scheme: Scheme
    sparse: bool = False
    _normal_hits: "NormalHitStore | None" = field(
        default=None, init=False, repr=False, compare=False
    )

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
        if bounds is None:
            self._normal_hits = NormalHitStore.reuse(
                self._normal_hits, self.scheme, g, normal
            )
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
            normal_hits=None if bounds is not None else self._normal_hits,
        )
