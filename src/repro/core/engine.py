"""Vectorized single-GPU search engine.

Mirrors the CUDA kernel's work decomposition: a thread owns one
``flattened``-tuple and runs an inner loop over the ``inner``-combinations
of the genes above its top index.  Scores are bit-exact with the
sequential reference; ties resolve to the lexicographically smallest
gene tuple.

An unpruned scan is one call into the native kernel (``_tile.c``,
built and loaded by :mod:`repro.core.tile`) per λ range — per lease on
a fanned-out backend — without the GIL.  :func:`_scan_range` inverts
only the range's first λ; ``scan_range`` then walks the threads in
colex order and scores every one against *one inner table per scan*,
the AND-table of the range's first (lowest) level, stored word-major:
a lower level's table is a superset of every higher level's, and the
kernel selects a thread's valid columns (inner genes above its top
gene), which are scored once, in combination-rank order.  Per thread it
AND-reduces the fixed rows, reads or fills the normal-hit store (a fill
popcounts the normal side first), bounds a stored thread by its
normal-hit floor before any tumor product (below), popcounts the tumor
rows against the table over the valid columns only (skipping zero base
words), forms Equation 1's numerator ``fl(fl(α·TP) + TN)``
exactly as :func:`repro.core.fscore.numerator` does (compiled with
``-ffp-contract=off``, so no FMA merges the two roundings) and keeps
the running winner.  The maximum is found on numerators — division by
the positive constant ``Nt + Nn`` is monotone — and ties are settled in
F, since division can merge different numerators: only a thread whose
F can tie or beat the running best is rescanned, and the lexicographic
rule compares the thread tuple, then the inner tuple.  Python keeps the
counters and building the winner.  There is no other body: a C compiler
is required, and every :class:`Scheme` is nested (``inner >= 1``) —
the paper implements only nested schemes.

Normal hits are computed once per solve.  Equation 1's ``TN`` depends
only on the normal matrix, which no greedy iteration changes (BitSplicing
narrows the tumor side alone), so a :class:`NormalHitStore` keeps every
combination's normal popcount, indexed by combination rank: thread λ's
combinations occupy ``[cumulative_work_before(λ),
cumulative_work_before(λ + 1))``, so a range's valid entries are one
contiguous slice wherever a partition is cut, in the order the scan
scores them (the kernel reads and writes it in place, at the store's
itemsize).  A thread's first scan fills its counts and then marks it
filled; every later scan reads them as they are and gathers, ANDs and
popcounts only the tumor side (the normal inner table is built only
when some thread of the range misses the store).
Beside its counts a stored thread keeps ``NormalHitStore.least``, the
smallest of them, fixed for the solve.  Every entry's ``TP`` is at most
the popcount of the thread's AND-reduced tumor rows and its ``TN`` at
most ``Nn - least``, so their numerator bounds the thread's F (rounding
is monotone); a thread whose bound cannot take or tie the running lead
— the rescan's own test — skips its tumor product, and
``threads_bounded`` counts it.  Each scan starts with no lead.
The store is capped at :data:`NORMAL_HIT_BUDGET` bytes, counts and
4-byte ``least`` values together.  ``C(G, h)`` counts of
``np.min_scalar_type(Nn)`` fit at cohort scale (2.5 MiB of counts and
80 KB of ``least`` at G 200, h 3, Nn < 65536); threads past the cap have
no ``least``, are never bounded and are scored in full every time, and
at the paper's scale (``C(20000, 4)`` combinations) almost all of them
are.

Counters: ``combos_scored`` and ``word_ops`` count the valid entries,
each computed or bounded out of the running lead — below it, or at it
behind a smaller leader — (``word_ops`` at its dense definition,
``(hits - 1)`` row ANDs per combination); ``threads_bounded`` counts the
threads the normal-hit floor skipped; ``decode_strides`` counts scan
calls (unpruned) or batches (pruned) and ``inner_tables_built`` the
inner tables built, one per call.  ``word_reads`` is what the scan
gathers, on either path: ``f`` rows per thread and ``d`` rows per inner
combination of each table built, from each matrix it gathers from, so a
thread whose normal hits are stored charges only tumor rows.  The unpruned charge
is derived from the thread and store-hit counts the kernel reports.

When a :class:`repro.core.bounds.BoundTable` is supplied the engine runs
an exact branch and bound instead (:func:`_best_pruned`): every thread
is bounded by ``min(stored, ceiling)`` — its exact maximum when last
scored, and ``fscore(TP_prefix, Nn)`` from its tumor prefix — and
threads are scored best-first in doubling λ-sorted batches until the
next bound is *strictly* below the incumbent, each batch one call into
the kernel's ``tile_score`` against the call's one inner table.  The
incumbent is maintained with the tuple-comparing
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
from repro.combinatorics.decode import combos_from_linear

# Bound here but never called by the scan: the benchmark harness
# (benchmarks/perf/trace.py) patches them by these names.
from repro.bitmatrix.sparsity import stride_any_mask  # noqa: F401
from repro.combinatorics.decode import top_index_array  # noqa: F401
from repro.core.kernels import best_of, fused_pair_popcount, score_combos  # noqa: F401
from repro.combinatorics.enumeration import combinations_array
from repro.core import tile
from repro.core.bounds import BoundTable
from repro.core.combination import MultiHitCombination, better
from repro.core.fscore import FScoreParams, fscore
from repro.core.kernels import KernelCounters
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

# Entries per pruned batch, threads x max(inner combinations, row words),
# and threads per window of the pruned ceiling pass x row words.
_TILE_ELEMENTS = 1 << 16
#: Bytes one :class:`NormalHitStore` may hold.
NORMAL_HIT_BUDGET = 32 << 20
# Bytes of one stored thread's least count (an int32 in ``_tile.c``).
_LEAST = 4


class NormalHitStore:
    """Each combination's normal hit count, kept across a solve's scans.

    Bound to one ``(scheme, g, normal)``: counts are indexed by
    combination rank (:func:`cumulative_work_before` of the thread plus
    the offset in its inner loop) and typed ``np.min_scalar_type(Nn)``;
    ``least[λ]`` (int32) is thread λ's smallest count, the floor the
    kernel bounds the thread with before its tumor product.  The
    lowest-λ threads whose counts and ``least`` fit
    :data:`NORMAL_HIT_BUDGET` bytes are stored (``[0, lam_cap)``, at
    most the threads whose inner loops are not empty); pages are
    committed as they fill.  A thread is marked filled once its counts
    and ``least`` are written, so a reader on another thread never sees
    a half-written slice, and two scans of one thread write equal
    values.
    """

    def __init__(self, scheme: Scheme, g: int, normal: BitMatrix) -> None:
        self.scheme, self.g, self._words = scheme, g, normal.words
        dtype = np.min_scalar_type(normal.n_samples)
        self._prefix = work_prefix_by_level(scheme, g)
        # Bytes of the threads below each level with inner loops: their
        # counts and one least count each.  The whole levels below m fit,
        # then part of level m (all of them when m is the last).
        top = g - scheme.inner
        below = [
            dtype.itemsize * self._prefix[m] + _LEAST * level_range(scheme, m)[0]
            for m in range(top + 1)
        ]
        m = bisect.bisect_right(below, NORMAL_HIT_BUDGET) - 1
        self.lam_cap = level_range(scheme, m)[0]
        if m < top:
            self.lam_cap += (NORMAL_HIT_BUDGET - below[m]) // (
                dtype.itemsize * level_work(scheme, g, m) + _LEAST
            )
        self.counts = np.empty(self._rank(self.lam_cap), dtype=dtype)
        self.least = np.empty(self.lam_cap, dtype=np.int32)
        self.filled = np.zeros(self.lam_cap, dtype=bool)
        self._at = (
            self.counts.ctypes.data, self.filled.ctypes.data, self.least.ctypes.data
        )

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
        otherwise.  A pruned scan reads none; its callers pass no
        store."""
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

    def at(self, lam: int) -> tuple[int, int, int]:
        """The kernel's addresses of thread ``lam``'s first count, its
        filled mark and its least count (``lam < lam_cap``)."""
        counts, filled, least = self._at
        return (
            counts + self._rank(lam) * self.counts.itemsize,
            filled + lam,
            least + lam * _LEAST,
        )


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


class _Table:
    """One call's inner table: level ``m``'s inner combinations over genes
    ``m+1 .. g-1`` and their AND rows, stored word-major ``(W, L)`` — the
    normal rows unless ``with_normal`` is false.  ``m`` is the call's
    lowest level, whose table is a superset of every higher level's.

    ``args`` are the kernel's table arguments, read once per call
    (reading an array's address costs microseconds): both matrices,
    both tables, and a scratch and winner buffer of the call's own.
    ``win`` is the winner (column, TP, normal hits), then the words the
    fixed-row gathers read, store hits, store fills, threads scored,
    threads bounded before their tumor product and the winner's thread
    tuple (``_tile.c``)."""

    def __init__(
        self, scheme: Scheme, g: int, m: int, tumor: BitMatrix,
        normal: BitMatrix, counters: KernelCounters, with_normal: bool = True,
    ) -> None:
        d = scheme.inner
        self.inner = combinations_array(d, 0, math.comb(g - 1 - m, d))
        self.inner += m + 1
        self.tumor_w = np.ascontiguousarray(_gather(tumor, self.inner, counters).T)
        self.normal_w = (
            np.ascontiguousarray(_gather(normal, self.inner, counters).T)
            if with_normal else None
        )
        counters.inner_tables_built += 1
        self.row_words = tumor.n_words, normal.n_words
        self.win = np.empty(8 + scheme.flattened, np.int64)
        self._scratch = np.empty(
            tumor.n_words + normal.n_words + 2 * len(self.inner) + 2, np.uint64
        )
        self.args = (
            tumor.words.ctypes.data, tumor.n_words,
            normal.words.ctypes.data, normal.n_words,
            self.inner.ctypes.data, *self.inner.shape,
            self.tumor_w.ctypes.data,
            None if self.normal_w is None else self.normal_w.ctypes.data,
            self._scratch.ctypes.data, self.win.ctypes.data,
        )

    def charge(self, scheme: Scheme, n_valid: int, counters: KernelCounters) -> None:
        """Charge ``n_valid`` scored entries at the dense definition."""
        counters.combos_scored += n_valid
        counters.word_ops += n_valid * (scheme.hits - 1) * sum(self.row_words)

    def winner(self, params: FScoreParams) -> "MultiHitCombination | None":
        """The last call's winner, ``None`` if nothing reached its
        incumbent."""
        col, tp, hit = self.win[:3].tolist()
        if col < 0:
            return None
        tn = int(params.n_normal) - hit
        return MultiHitCombination(
            genes=(*self.win[8:].tolist(), *self.inner[col].tolist()),
            f=float(fscore(tp, tn, params)),
            tp=tp,
            tn=tn,
        )


def _score_tile(
    scheme: Scheme,
    tuples: np.ndarray,
    table: _Table,
    params: FScoreParams,
    best: "MultiHitCombination | None",
    counters: KernelCounters,
) -> tuple[np.ndarray, "MultiHitCombination | None"]:
    """Score one pruned batch: threads ``tuples`` (λ-sorted, none below
    the table's level) against ``table``, in one call into the kernel's
    ``tile_score``.

    Returns each thread's maximum F and the batch's candidate — ``None``
    unless it can displace or tie ``best``.  Entries whose inner genes do
    not lie above the thread's top gene belong to no thread and are
    dropped; the valid ones are scored once.
    """
    lam_max = np.empty(len(tuples))
    n_valid = tile.kernel().tile_score(
        *table.args, tuples.ctypes.data, len(tuples), scheme.flattened,
        params.n_normal, params.alpha, params.denominator,
        -math.inf if best is None else best.f, lam_max.ctypes.data,
    )
    counters.word_reads += tuples.size * sum(table.row_words)
    table.charge(scheme, n_valid, counters)
    return lam_max, table.winner(params)


def _scan_range(
    scheme: Scheme,
    g: int,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    lam_start: int,
    lam_end: int,
    counters: KernelCounters,
    normal_hits: "NormalHitStore | None" = None,
) -> "MultiHitCombination | None":
    """Exhaustively score threads ``[lam_start, lam_end)`` in λ order, in
    one native ``scan_range`` call.

    ``counters`` meters the scan (see the module docstring for what each
    field means).
    """
    f_ord, d = scheme.flattened, scheme.inner
    # Threads above level g-1-d have empty inner loops, so a range
    # reaching them ends where they begin.
    lam_end = min(lam_end, math.comb(g - d, f_ord))
    if lam_end <= lam_start:
        return None
    n = lam_end - lam_start
    # The scan's one inversion; the kernel steps the tuple from here.
    genes = combinations_array(f_ord, lam_start, lam_start + 1)[0]
    store, n_stored = normal_hits, 0
    hits = filled = least = None
    if store is not None and lam_start < store.lam_cap:
        n_stored = min(lam_end, store.lam_cap) - lam_start
        hits, filled, least = store.at(lam_start)
    missed = n_stored < n or not store.filled[lam_start:lam_end].all()
    table = _Table(
        scheme, g, int(genes[-1]), tumor, normal, counters, with_normal=missed
    )
    n_valid = tile.kernel().scan_range(
        *table.args, genes.ctypes.data, n, f_ord,
        hits, filled, least, 0 if store is None else store.counts.itemsize,
        n_stored,
        params.n_normal, params.alpha, params.denominator,
    )
    # f fixed rows per thread, the normal ones unless stored: from the
    # thread and store-hit counts the kernel reports.
    threads, stored = int(table.win[6]), int(table.win[4])
    counters.word_reads += f_ord * (
        threads * tumor.n_words + (threads - stored) * normal.n_words
    )
    counters.threads_bounded += int(table.win[7])
    counters.decode_strides += 1
    table.charge(scheme, n_valid, counters)
    return table.winner(params)


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
    normal_hits: "NormalHitStore | None" = None,
) -> "MultiHitCombination | None":
    """Best combination among those owned by threads ``[lam_start, lam_end)``.

    A thread owns every ``hits``-combination formed by its decoded
    ``flattened``-tuple plus ``inner`` further genes above its top index.

    ``bounds`` (a :class:`repro.core.bounds.BoundTable` covering exactly
    this range) switches on the pruned best-first path; the table is
    mutated in place — every scored thread's entry becomes its exact
    maximum F.  Unpruned, the call is one native ``scan_range`` call,
    whatever the range.  ``normal_hits`` (a :class:`NormalHitStore`
    bound to ``scheme``, ``g`` and ``normal``) serves and keeps the
    unpruned scan's normal hit counts; the pruned path ignores it.
    The winner is bit-identical with and without ``bounds`` and
    ``normal_hits``; only the work counters differ.
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
            bounds, counters,
        )
    return _scan_range(
        scheme, g, tumor, normal, params, lam_start, lam_end, counters,
        normal_hits=normal_hits,
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
) -> "MultiHitCombination | None":
    """Best-first branch and bound over the threads of one range.

    Each thread is bounded by ``min(stored, ceiling)``
    (:meth:`BoundTable.visit_order`) and visited in descending bound
    order.  Threads are scored in batches that double from one thread
    up to the tile budget: a batch is decoded with
    :func:`combos_from_linear`, sorted by λ and scored against the call's
    one inner table, that of the range's lowest level, and each scored
    thread's entry becomes its exact maximum.  The scan stops at the
    first bound *strictly* below the incumbent; the threads left
    unvisited add their combinations to ``combos_pruned``.

    Soundness: a stored bound is the exact maximum F the thread reached
    when it was last scored, F is non-increasing across iterations (TP
    shrinks, TN is fixed, float rounding is monotone), the ceiling bounds
    every combination of the thread now, and a thread is left only when
    its bound is *strictly* below the incumbent's F — so an unvisited
    thread holds neither the winner nor an equal-F tie, and the
    tuple-comparing :func:`better` makes the winner independent of
    visiting order.

    ``word_reads`` counts the ceiling pass's tumor rows on top of the
    scan's gathers: each batch's ``f`` rows per thread and the inner
    table.
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
    # One table, the range's lowest level's.
    table = _Table(scheme, g, int(tops[0]), tumor, normal, counters)
    widest = max(len(table.inner), tumor.n_words, normal.n_words)
    budget = max(1, _TILE_ELEMENTS // widest)
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
        lam_max, cand = _score_tile(scheme, tuples, table, params, best, counters)
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
    """Convenience wrapper: one simulated GPU searching the whole grid
    (the "single V100" baseline configuration of the prior paper).

    The engine keeps one :class:`NormalHitStore` for the normal matrix
    it last searched, so a solve's unpruned scans compute each normal
    hit count once.
    """

    scheme: Scheme
    _normal_hits: "NormalHitStore | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def best_combo(
        self,
        tumor: BitMatrix,
        normal: BitMatrix,
        params: FScoreParams,
        counters: "KernelCounters | None" = None,
        bounds: "BoundTable | None" = None,
    ) -> "MultiHitCombination | None":
        g = tumor.n_genes
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
            0,
            total_threads(self.scheme, g),
            counters=counters,
            bounds=bounds,
            normal_hits=None if bounds is not None else self._normal_hits,
        )
