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
takes a :class:`MemoryConfig`.  What the scan loads is its own
``word_reads`` counter, gathered on every path: each thread's fixed rows
once, each inner table it builds once, and only the tumor side once a
combination's normal hits are stored or its tumor prefix bounds it
(:class:`repro.core.engine.NormalHitStore`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import level_range, level_work
from repro.combinatorics.decode import top_index

__all__ = [
    "MemoryConfig",
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
