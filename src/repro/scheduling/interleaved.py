"""Interleaved (block-cyclic) scheduling — the occupancy fix.

Analysis of the 2x2 stragglers (Fig. 6) shows a scheduling limit that
*no* contiguous partition can fix: the low-lambda partitions hold few,
very heavy threads, and a GPU's latency hiding depends on its thread
count, so assigning that partition less work also removes the threads it
needs to stay occupied — its runtime barely moves.  The remedy is to
break contiguity: deal fixed-size blocks of the thread axis to GPUs
round-robin, so every GPU receives the same mixture of heavy and light
threads (same per-GPU work as equi-area *and* uniform occupancy).

The price is that each GPU touches the whole matrix (no row-subset
locality) and decodes scattered blocks; the benchmark quantifies the
trade against equi-area and against the paper's own remedy (the 3x1
scheme).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.combinatorics.decode import top_index
from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import (
    cumulative_work_before,
    level_work,
    total_threads,
    work_prefix_by_level,
)

__all__ = ["InterleavedSchedule", "interleaved_schedule"]


@dataclass(frozen=True)
class InterleavedSchedule:
    """Block-cyclic partition: GPU ``p`` owns blocks ``p, p+P, p+2P, ...``.

    Unlike :class:`repro.scheduling.schedule.Schedule`, partitions are
    unions of disjoint ``block_size`` ranges; the same work/thread
    accounting is provided so the performance model can consume either.
    """

    scheme: Scheme
    g: int
    n_parts: int
    block_size: int = 4096

    def __post_init__(self) -> None:
        if self.n_parts < 1:
            raise ValueError("need at least one partition")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")

    @property
    def total_threads(self) -> int:
        return total_threads(self.scheme, self.g)

    @property
    def n_blocks(self) -> int:
        return (self.total_threads + self.block_size - 1) // self.block_size

    def ranges(self, part: int) -> list[tuple[int, int]]:
        """The disjoint thread ranges owned by one partition."""
        if not 0 <= part < self.n_parts:
            raise ValueError(f"partition {part} out of range")
        t = self.total_threads
        out = []
        for b in range(part, self.n_blocks, self.n_parts):
            lo = b * self.block_size
            hi = min(lo + self.block_size, t)
            if hi > lo:
                out.append((lo, hi))
        return out

    # -- accounting ------------------------------------------------------

    def work_per_part(self) -> list[int]:
        """Exact combinations per partition (sums its blocks)."""
        prefix = work_prefix_by_level(self.scheme, self.g)

        def before(lam: int) -> int:
            return cumulative_work_before(self.scheme, self.g, lam, prefix)

        return [
            sum(before(hi) - before(lo) for lo, hi in self.ranges(p))
            for p in range(self.n_parts)
        ]

    def thread_counts(self) -> list[int]:
        return [sum(hi - lo for lo, hi in self.ranges(p)) for p in range(self.n_parts)]

    def max_thread_work(self, part: int) -> int:
        """Heaviest thread in the partition (first thread of its first block)."""
        ranges = self.ranges(part)
        if not ranges:
            return 0
        lo = ranges[0][0]
        return level_work(self.scheme, self.g, top_index(lo, self.scheme.flattened))

    def imbalance(self) -> float:
        work = self.work_per_part()
        mean = sum(work) / len(work)
        return max(work) / mean if mean else 1.0


def interleaved_schedule(
    scheme: Scheme, g: int, n_parts: int, block_size: int = 4096
) -> InterleavedSchedule:
    """Build a block-cyclic schedule."""
    return InterleavedSchedule(scheme=scheme, g=g, n_parts=n_parts, block_size=block_size)
