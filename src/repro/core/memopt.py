"""Memory-optimization configuration and access-volume models (Section III-D).

Three optimizations from the paper, all of which change *how much* global
memory the scoring kernel touches without changing the result:

* **MemOpt1** — prefetch the packed row of gene ``i`` into registers /
  local memory once per thread instead of once per inner combination;
* **MemOpt2** — same for gene ``j``;
* **BitSplicing** — physically remove covered sample columns after each
  greedy iteration, shrinking the word width every kernel touches.

``global_word_reads`` computes the exact number of global-memory word
reads a thread-range would perform under a configuration — the quantity
NVPROF's DRAM counters measure up to caching effects — and is what the
Fig. 5 experiment compares across configurations.  The vectorized scan
cannot express the register prefetches (it gathers every fixed row once
regardless), so nothing below :class:`~repro.core.solver.MultiHitSolver`
takes a :class:`MemoryConfig`; what the scan loads is
``fused_word_reads`` — the nested scan charges it as its ``word_reads``,
and the flat scan's dense gathers equal it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import level_range, level_work
from repro.combinatorics.decode import top_index

__all__ = [
    "MemoryConfig",
    "fused_word_reads",
    "global_word_reads",
]


@dataclass(frozen=True)
class MemoryConfig:
    """Which of the paper's memory optimizations are active."""

    prefetch_i: bool = True   # MemOpt1
    prefetch_j: bool = True   # MemOpt2
    bitsplice: bool = True    # splice covered columns out of the tumor matrix

    @property
    def label(self) -> str:
        parts = []
        if self.prefetch_i:
            parts.append("MemOpt1")
        if self.prefetch_j:
            parts.append("MemOpt2")
        if self.bitsplice:
            parts.append("BitSplicing")
        return "+".join(parts) if parts else "baseline"

    @property
    def prefetched_rows(self) -> int:
        return int(self.prefetch_i) + int(self.prefetch_j)

    def combo_rows(self, scheme: Scheme) -> "tuple[int, int]":
        """``(prefetched, rows_per_combo)`` of ``scheme`` under this config.

        At most :attr:`prefetched_rows` of the scheme's fixed rows are
        read once per thread; every inner combination then loads the
        remaining fixed rows plus the inner-loop rows.
        """
        pre = min(self.prefetched_rows, scheme.flattened)
        return pre, (scheme.flattened - pre) + scheme.inner


NONE = MemoryConfig(False, False, False)


def global_word_reads(
    scheme: Scheme,
    g: int,
    words: int,
    lam_start: int,
    lam_end: int,
    config: MemoryConfig,
) -> int:
    """Global-memory word reads for threads ``[lam_start, lam_end)``.

    A thread whose tuple has ``f`` fixed genes and runs ``w`` inner
    combinations of ``d`` further genes reads, per inner combination, the
    rows of the non-prefetched fixed genes plus the ``d`` inner-loop
    genes; prefetched rows are read exactly once per thread.  Each row is
    ``words`` uint64 words wide (BitSplicing shrinks ``words``).
    """
    if lam_end <= lam_start:
        return 0
    f = scheme.flattened
    pre, per_combo_rows = config.combo_rows(scheme)
    total = 0
    # Walk the levels intersecting the range; within a level the work per
    # thread is constant, so the sum is closed-form.
    lo_top = top_index(lam_start, f)
    hi_top = top_index(lam_end - 1, f)
    for m in range(lo_top, hi_top + 1):
        a, b = level_range(scheme, m)
        n_threads = min(b, lam_end) - max(a, lam_start)
        if n_threads <= 0:
            continue
        w = level_work(scheme, g, m)
        total += n_threads * (pre + w * per_combo_rows)
    return total * words


def fused_word_reads(
    scheme: Scheme,
    g: int,
    words: int,
    lam_start: int,
    lam_end: int,
) -> int:
    """Global-memory word reads of the *fused* scan over a thread range.

    The engine's unpruned scoring pass (whose ``word_reads`` counter is
    this figure: charged as computed on nested schemes, gathered on the
    flat one) touches each global word exactly once per logical load: every
    thread's ``f`` fixed rows are gathered and AND-reduced a single time
    (full-width prefetch — this subsumes MemOpt1/2, so
    :class:`MemoryConfig` prefetch flags do not appear here), and each
    workload level's inner AND-table (``C(g-1-m, d)`` combinations of
    ``d`` rows) is loaded once per scan call and reused across every
    thread and block that touches the level.  Re-reads of a cached
    table or base row are not loads — the same convention the paper's
    MemOpt accounting uses for prefetched rows.
    """
    if lam_end <= lam_start:
        return 0
    f = scheme.flattened
    d = scheme.inner
    total = 0
    lo_top = top_index(lam_start, f)
    hi_top = top_index(lam_end - 1, f)
    for m in range(lo_top, hi_top + 1):
        a, b = level_range(scheme, m)
        n_threads = min(b, lam_end) - max(a, lam_start)
        if n_threads <= 0:
            continue
        if d > 0:
            inner = level_work(scheme, g, m)
            if inner == 0:
                continue  # empty inner loops: the engine never gathers
            total += n_threads * f + inner * d
        else:
            # Fully flattened: every thread is one combination reading
            # its h = f rows once.
            total += n_threads * f
    return total * words
