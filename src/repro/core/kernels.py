"""Vectorized scoring kernels (the ``maxF`` kernel, NumPy edition).

Each CUDA thread ANDs the packed rows of its combination's genes over the
tumor matrix (popcount -> TP) and the normal matrix (popcount -> ``Nn -
TN``), then computes F.  Here a *block* of combinations is scored at once
with broadcast bitwise ops; results are bit-exact with the sequential
reference.

One numpy scoring primitive.  :func:`score_combos`
scores explicit combinations one row each (the flat scheme's scan and
the public API) and is *word-stride fused*: gather -> AND -> popcount
runs over slices of at most ``word_stride`` packed words at a time
(default :data:`DEFAULT_WORD_STRIDE`), accumulating popcounts into
per-combination integer totals, so no full ``(B, n_words)``
intermediate is materialized.  The nested scheme is scored natively:
one call into ``_tile.c`` (built and loaded by :mod:`repro.core.tile`)
per unpruned range or pruned batch.  :func:`fused_pair_popcount`, the
``(B, L)`` product of thread base rows against an inner table, has no
caller left; the benchmark harness still patches it by name.
Popcounts are exact integers, so every body is bit-identical to the
single-shot reference (kept as :func:`score_combos_reference` and
enforced by tests).

``sparse=True`` switches :func:`score_combos` to the sparsity-driven
path (Prabhu et al.): a :class:`~repro.bitmatrix.sparsity.SparsityIndex`
on each matrix marks which stride slices of each row contain any set
bit, the λ-lexicographic decode order groups consecutive combinations
into runs sharing their high-order ``h - 1`` genes so the prefix AND is
computed once per run, and stride slices whose combined mask is empty
are skipped outright.  All of that is exact — an all-zero slice
contributes 0 to every popcount — so ``(f, tp, tn)`` are bit-identical
to the dense path.  ``skip_below`` additionally enables *zero-prefix run
skipping*: when the tumor prefix AND of a run is already all-zero, every
member has ``TP = 0``, and if the caller's incumbent F strictly exceeds
the ``TP = 0`` ceiling ``fscore(0, Nn)`` the run cannot win or tie, so
its members are reported with the ceiling as a (sound) upper bound
instead of being scored.  Only the engine's flat-scheme scan passes
``skip_below``; the public scoring API stays exact.

:func:`score_combos` meters its own global-memory traffic:
``word_reads`` is the words gathered from the matrices, on either path.
On the sparse path ``word_reads_skipped`` carries what the dense pass
would have gathered on top, so ``word_reads + word_reads_skipped``
always equals the dense path's ``word_reads`` for the same call (an
identity the tests pin).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.bitmatrix.sparsity import stride_any_mask
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
    "tp_zero_ceiling",
]

# Packed uint64 words per score_combos pass (512 B per row slice): with
# the stride chunking in the engine the live working set stays within
# L1/L2 while each word is still touched exactly once.
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
    every path — on nested schemes each scored thread's ``f`` rows and
    each inner table built, from the tumor matrix and, unless the
    thread's normal hits are stored (:class:`repro.core.engine.
    NormalHitStore`), from the normal one.  ``decode_strides`` counts
    the strides (flat), scan calls (nested) or batches (pruned) the scan
    enumerated and ``inner_tables_built`` the inner tables it built.  The pruned
    best-first path (:mod:`repro.core.bounds`) also counts its ceiling
    pass's tumor rows and alone populates ``combos_pruned`` and
    ``threads_*`` (threads scored / left unvisited).  Four fields are set only by the flat
    scheme's sparse :func:`score_combos` body and stay 0 on nested
    scans: ``strides_skipped_sparse`` (stride slices the nonzero-mask
    intersection proved empty), ``prefix_and_hits`` (combinations that
    reused a cached shared-prefix AND), ``zero_prefix_runs_skipped``
    (suffix runs resolved wholesale from an all-zero tumor prefix), and
    ``word_reads_skipped`` (the traffic the dense path would have charged
    minus what was actually gathered — so ``word_reads +
    word_reads_skipped`` reproduces the dense charge exactly).  They all
    ride the same merge path as the scoring counters so the leases of
    either backend, pinned or elastic, report pruning, fusion, and
    sparsity effectiveness for free.
    """

    combos_scored: int = 0
    word_reads: int = 0
    word_ops: int = 0
    combos_pruned: int = 0
    threads_scanned: int = 0
    threads_skipped: int = 0
    decode_strides: int = 0
    inner_tables_built: int = 0
    strides_skipped_sparse: int = 0
    prefix_and_hits: int = 0
    zero_prefix_runs_skipped: int = 0
    word_reads_skipped: int = 0

    def merge(self, other: "KernelCounters") -> None:
        self.combos_scored += other.combos_scored
        self.word_reads += other.word_reads
        self.word_ops += other.word_ops
        self.combos_pruned += other.combos_pruned
        self.threads_scanned += other.threads_scanned
        self.threads_skipped += other.threads_skipped
        self.decode_strides += other.decode_strides
        self.inner_tables_built += other.inner_tables_built
        self.strides_skipped_sparse += other.strides_skipped_sparse
        self.prefix_and_hits += other.prefix_and_hits
        self.zero_prefix_runs_skipped += other.zero_prefix_runs_skipped
        self.word_reads_skipped += other.word_reads_skipped

    # Harness-only (benchmarks/perf/layers.py reads it): the thread skip
    # count under the block table's name.
    supers_skipped = property(lambda self: self.threads_skipped)


def tp_zero_ceiling(params: FScoreParams) -> float:
    """The best F any ``TP = 0`` combination can reach: ``fscore(0, Nn)``.

    ``TN <= Nn`` and IEEE division by the fixed positive denominator is
    monotone, so every real ``TP = 0`` score is ``<= `` this ceiling —
    the bound zero-prefix run skipping compares the incumbent against.
    Returns ``-inf`` for an empty cohort (skipping disabled).
    """
    if params.denominator <= 0:
        return float("-inf")
    return float(params.n_normal) / params.denominator


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


def _prefix_run_starts(combos: np.ndarray) -> np.ndarray:
    """Boundaries of maximal runs sharing gene columns ``1:``.

    λ order is colex, so column 0 (the lowest gene) varies fastest:
    consecutive rows of an enumerated stride share their ``h - 1``
    high-order genes — the shareable prefix.  Returns the
    ``len(runs) + 1`` start offsets (last entry is ``B``).
    """
    b, h = combos.shape
    if h == 1:
        # No shared prefix: every combination is its own run.
        return np.arange(b + 1, dtype=np.int64)
    change = np.any(combos[1:, 1:] != combos[:-1, 1:], axis=1)
    return np.concatenate(
        ([0], np.flatnonzero(change) + 1, [b])
    ).astype(np.int64)


def _and_rows(words: np.ndarray, genes: np.ndarray) -> np.ndarray:
    """Full-width AND of the given rows (a fresh array)."""
    out = words[int(genes[0])].copy()
    for c in genes[1:]:
        np.bitwise_and(out, words[int(c)], out=out)
    return out


def _score_combos_sparse(
    tumor: BitMatrix,
    normal: BitMatrix,
    combos: np.ndarray,
    params: FScoreParams,
    counters: "KernelCounters | None",
    word_stride: int,
    skip_below: "float | None",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparsity-driven scoring: stride skipping + shared-prefix caching +
    (optional) zero-prefix run skipping.  See :func:`score_combos`."""
    b, h = combos.shape
    t_words, n_words = tumor.words, normal.words
    t_index = tumor.sparsity(word_stride)
    n_index = normal.sparsity(word_stride)
    tp = np.zeros(b, dtype=np.int64)
    n_hits = np.zeros(b, dtype=np.int64)  # normal samples in all rows

    ceiling = tp_zero_ceiling(params)
    skip_runs = skip_below is not None and skip_below > ceiling
    starts = _prefix_run_starts(combos)

    reads = 0
    ops = 0
    prefix_hits = 0
    zero_runs = 0
    strides_skipped = 0

    def member_pass(
        words, index, pre, accum, lo, hi
    ) -> tuple[int, int, int]:
        """AND each member's own row into the (possibly cached) prefix,
        stride by stride, skipping slices the masks prove empty."""
        last = combos[lo:hi, 0]
        mask = index.stride_any[last]
        if pre is not None:
            mask = mask & stride_any_mask(pre, word_stride)[None, :]
        w = words.shape[1]
        r = o = skipped = 0
        for s in range(index.n_strides):
            rows_on = np.flatnonzero(mask[:, s])
            if rows_on.size == 0:
                skipped += 1
                continue
            sl = slice(s * word_stride, min((s + 1) * word_stride, w))
            width = sl.stop - sl.start
            gathered = words[last[rows_on], sl]
            if pre is not None:
                np.bitwise_and(gathered, pre[sl][None, :], out=gathered)
                o += rows_on.size * width
            accum[lo + rows_on] += np.bitwise_count(gathered).sum(
                axis=1, dtype=np.int64
            )
            r += rows_on.size * width
        return r, o, skipped

    for i in range(len(starts) - 1):
        lo, hi = int(starts[i]), int(starts[i + 1])
        k = hi - lo
        pre_t = pre_n = None
        if h > 1:
            prefix = combos[lo, 1:]
            pre_t = _and_rows(t_words, prefix)
            reads += (h - 1) * tumor.n_words
            ops += (h - 2) * tumor.n_words
            prefix_hits += k - 1
            if skip_runs and not pre_t.any():
                # TP = 0 for the whole run and the incumbent strictly
                # beats the TP = 0 ceiling: resolve the run wholesale.
                # tp stays 0 (exact); n_hits stays 0, reporting
                # TN = Nn — the sound upper bound fscore folds into
                # exactly the ceiling.  Neither can displace or tie the
                # incumbent, so the winner is unchanged.
                zero_runs += 1
                continue
            pre_n = _and_rows(n_words, prefix)
            reads += (h - 1) * normal.n_words
            ops += (h - 2) * normal.n_words
        r, o, sk = member_pass(t_words, t_index, pre_t, tp, lo, hi)
        reads, ops, strides_skipped = reads + r, ops + o, strides_skipped + sk
        r, o, sk = member_pass(n_words, n_index, pre_n, n_hits, lo, hi)
        reads, ops, strides_skipped = reads + r, ops + o, strides_skipped + sk

    tn = params.n_normal - n_hits
    f = fscore(tp, tn, params)
    if counters is not None:
        dense_reads = b * h * (tumor.n_words + normal.n_words)
        counters.combos_scored += b
        counters.word_reads += reads
        counters.word_ops += ops
        counters.word_reads_skipped += dense_reads - reads
        counters.prefix_and_hits += prefix_hits
        counters.zero_prefix_runs_skipped += zero_runs
        counters.strides_skipped_sparse += strides_skipped
    return f, tp, tn


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
    sparse: bool = False,
    skip_below: "float | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score a block of combinations; returns ``(f, tp, tn)`` arrays.

    ``combos`` has shape ``(B, h)`` with strictly increasing gene rows.
    ``TP`` counts tumor samples present in *all* rows of the combination,
    ``TN = Nn - (normal samples present in all rows)``.

    ``sparse=True`` takes the sparsity-driven path — bit-identical
    ``(f, tp, tn)`` with less traffic, metered as actually performed
    (the dense path's charge equals its actual traffic, so both paths
    meter reality; ``word_reads_skipped`` keeps the closure
    ``sparse reads + skipped == dense reads`` exact).  ``skip_below``
    (an incumbent F from the engine scan) additionally lets runs whose
    tumor prefix AND is all-zero be resolved wholesale; their ``tp`` is
    exact (0) but ``f`` / ``tn`` are then the ``TP = 0`` ceiling upper
    bounds rather than exact values, so only callers maintaining an
    incumbent under the strict ``better`` rule may pass it.
    """
    combos = np.asarray(combos, dtype=np.int64)
    if combos.ndim != 2:
        raise ValueError(f"combos must be 2-D (B, h), got shape {combos.shape}")
    b, h = combos.shape
    if b == 0:
        empty = np.empty(0)
        return empty, empty.astype(np.int64), empty.astype(np.int64)
    ws = resolve_word_stride(word_stride)

    if sparse:
        return _score_combos_sparse(
            tumor, normal, combos, params, counters, ws, skip_below
        )

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
