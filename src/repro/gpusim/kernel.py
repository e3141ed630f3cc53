"""Kernel launch statistics — the timing model's input.

One :class:`KernelStats` summarizes what a single GPU's share of the
``maxF`` kernel will do: how many threads run, how many combinations they
score in total, the packed word width per combination, how many matrix
rows each inner combination loads (the memory-optimization knob), the
exact global-memory word traffic (from :mod:`repro.core.memopt`), and the
heaviest single thread (which bounds the serial tail).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KernelStats"]


@dataclass(frozen=True)
class KernelStats:
    """Work summary for one GPU's kernel launch.

    Attributes
    ----------
    n_threads / n_combos:
        Threads in this GPU's linear-id range and total inner
        combinations they score.
    words_per_combo:
        Packed uint64 width ANDed per combination (tumor + normal).
    rows_per_combo:
        Matrix rows *loaded from memory* per inner combination — ``hits``
        minus the rows prefetched into thread-local storage (MemOpt1/2
        remove one each).
    prefetched_rows:
        Rows loaded once per thread instead of once per combination.
    bytes_read:
        Exact global-memory bytes touched (8 x the word-read count).
    max_thread_combos:
        Inner combinations of the heaviest thread (serial-tail bound).
    """

    n_threads: int
    n_combos: int
    words_per_combo: int
    rows_per_combo: int
    prefetched_rows: int
    bytes_read: int
    max_thread_combos: int
    block_size: int = 512

    def __post_init__(self) -> None:
        if self.n_threads < 0 or self.n_combos < 0 or self.bytes_read < 0:
            raise ValueError("kernel statistics cannot be negative")
        if self.n_threads and self.max_thread_combos * self.n_threads < self.n_combos:
            raise ValueError(
                "max_thread_combos inconsistent: "
                f"{self.n_threads} threads x {self.max_thread_combos} max "
                f"< {self.n_combos} total combos"
            )

    @property
    def n_blocks(self) -> int:
        return (self.n_threads + self.block_size - 1) // self.block_size
