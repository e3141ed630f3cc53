"""Vectorized single-GPU search engine.

Mirrors the CUDA kernel's work decomposition: a thread owns one
``flattened``-tuple and runs an inner loop over the ``inner``-combinations
of the genes above its top index.  Scores are bit-exact with the
sequential reference; ties resolve to the lexicographically smallest
gene tuple.

Every arg-max is one call into the native kernel (``_tile.c``, built and
loaded by :mod:`repro.core.tile`) per λ range — per lease on a
fanned-out backend — without the GIL.  :func:`_scan_range` inverts
only the range's first λ; ``scan_range`` then walks the threads in
colex order and scores every one against *one inner table per scan*,
the AND-table of the range's first (lowest) level, stored word-major:
a lower level's table is a superset of every higher level's, and the
kernel selects a thread's valid columns (inner genes above its top
gene), which are scored once, in combination-rank order.  Per thread it
AND-reduces the tumor prefix (the fixed rows), bounds the thread by its
prefix ceiling unless its normal hits are stored, reads or fills the
normal-hit store (a fill popcounts the normal side first), bounds a
stored thread by its normal-hit floor (both bounds below), popcounts
the tumor rows against the table over the valid columns only (skipping
zero base words), forms Equation 1's numerator ``fl(fl(α·TP) + TN)``
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
itemsize).  A thread's counts are filled by the first scan that gets
past its prefix ceiling, which then marks it filled; every later scan
reads them as they are and gathers, ANDs and popcounts only the tumor
side (the normal inner table is built only when some thread of the
range misses the store).

Two bounds skip a thread's tumor product, both tested by the rescan's
own predicate — a thread whose bound cannot take or tie the running
lead is skipped, and ``threads_bounded`` counts it.  Every entry's
``TP`` is at most ``TP_prefix``, the popcount of the thread's
AND-reduced tumor rows, and its ``TN`` at most ``Nn``, so
``fscore(TP_prefix, Nn)`` bounds its F (rounding is monotone): that
prefix ceiling is tested before any normal work on every thread whose
normal hits are not stored, and a thread it skips is not filled.  A
stored thread keeps ``NormalHitStore.least``, the smallest of its
counts, fixed for the solve, so its ``TN`` is at most ``Nn - least``
and ``fscore``'s numerator of ``(TP_prefix, Nn - least)`` bounds it
tighter.  Each scan starts with no lead, so which threads are skipped
depends only on where the grid is cut, never on what the store holds.
The store is capped at :data:`NORMAL_HIT_BUDGET` bytes, counts and
4-byte ``least`` values together.  ``C(G, h)`` counts of
``np.min_scalar_type(Nn)`` fit at cohort scale (2.5 MiB of counts and
80 KB of ``least`` at G 200, h 3, Nn < 65536); threads past the cap
are bounded by their prefix ceiling alone and scored in full whenever
it passes, and at the paper's scale (``C(20000, 4)`` combinations)
almost all of them are past it.

Counters: ``combos_scored`` and ``word_ops`` count the valid entries,
each computed or bounded out of the running lead — below it, or at it
behind a smaller leader — (``word_ops`` at its dense definition,
``(hits - 1)`` row ANDs per combination); ``threads_bounded`` counts the
threads either bound skipped; ``decode_strides`` counts scan calls and
``inner_tables_built`` the inner tables built, one per call.
``word_reads`` is what the scan gathers: ``d`` rows per inner
combination of each table built, from each matrix it gathers from, and
the fixed rows the kernel gathers, as it counts them — ``f`` tumor rows
per thread, and ``f`` normal rows per thread that gets past its prefix
ceiling without stored normal hits.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from repro.bitmatrix.matrix import BitMatrix

# Bound here but never called by the scan: the benchmark harness
# (benchmarks/perf/trace.py) patches them by these names.
from repro.bitmatrix.sparsity import stride_any_mask  # noqa: F401
from repro.combinatorics.decode import combos_from_linear, top_index_array  # noqa: F401
from repro.core.kernels import best_of, fused_pair_popcount, score_combos  # noqa: F401
from repro.combinatorics.enumeration import combinations_array
from repro.core import tile
from repro.core.combination import MultiHitCombination
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
        """The store an engine hands a scan of ``normal``: ``store``
        while it is bound to ``(scheme, g, normal)``, a new one
        otherwise."""
        if store is not None and store.binds(scheme, g, normal):
            return store
        return cls(scheme, g, normal)

    def binds(self, scheme: Scheme, g: int, normal: BitMatrix) -> bool:
        return (scheme, g) == (self.scheme, self.g) and normal.words is self._words

    def _rank(self, lam: int) -> int:
        return cumulative_work_before(self.scheme, self.g, lam, self._prefix)

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
        """The last call's winner, ``None`` when its range had no
        entry."""
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
    counters.word_reads += int(table.win[3])  # the fixed rows, as gathered
    counters.threads_bounded += int(table.win[7])
    counters.decode_strides += 1
    table.charge(scheme, n_valid, counters)
    return table.winner(params)


def best_in_thread_range(
    scheme: Scheme,
    g: int,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    lam_start: int,
    lam_end: int,
    counters: "KernelCounters | None" = None,
    normal_hits: "NormalHitStore | None" = None,
) -> "MultiHitCombination | None":
    """Best combination among those owned by threads ``[lam_start, lam_end)``.

    A thread owns every ``hits``-combination formed by its decoded
    ``flattened``-tuple plus ``inner`` further genes above its top index.

    The call is one native ``scan_range`` call, whatever the range.
    ``normal_hits`` (a :class:`NormalHitStore` bound to ``scheme``,
    ``g`` and ``normal``) serves and keeps the scan's normal hit counts.
    The winner is bit-identical with and without ``normal_hits``; only
    the traffic counters differ.
    """
    if tumor.n_genes != g or normal.n_genes != g:
        raise ValueError("matrix gene count must match g")
    lam_end = min(lam_end, total_threads(scheme, g))
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

    return _scan_range(
        scheme, g, tumor, normal, params, lam_start, lam_end, counters,
        normal_hits=normal_hits,
    )


@dataclass
class SingleGpuEngine:
    """Convenience wrapper: one simulated GPU searching the whole grid
    (the "single V100" baseline configuration of the prior paper).

    The engine keeps one :class:`NormalHitStore` for the normal matrix
    it last searched, so a solve's scans compute each normal hit count
    once.
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
    ) -> "MultiHitCombination | None":
        g = tumor.n_genes
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
            normal_hits=self._normal_hits,
        )
