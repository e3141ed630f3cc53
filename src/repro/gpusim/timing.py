"""Analytic kernel-timing model: instruction cost + DRAM roofline + tail.

A kernel's busy time is the maximum of three resource bounds:

* **compute** — per-combination instructions: one AND+popcount chain over
  the packed words, one *load* per non-prefetched row word (register-
  resident prefetched rows cost nothing in the loop), plus loop
  bookkeeping; per-thread setup (the closed-form index decode and the
  prefetch loads) is added once per thread.  This is where the MemOpt
  speedups come from: removing row loads from the inner loop removes
  instructions, not just DRAM traffic.
* **memory** — DRAM bytes over bandwidth.  Raw traffic is derated by a
  *cache-reuse* factor (warp-level broadcast of shared rows plus L2 line
  reuse), and bandwidth is derated by a latency-hiding factor: a GPU
  running fewer threads than needed to cover DRAM latency cannot reach
  peak bandwidth.  The low-index GPUs of the 2x2 scheme — few, heavy
  threads — are memory-bound stragglers for exactly this reason (Fig. 6).
* **tail** — the single heaviest thread executed serially at ~1 op per
  cycle; with few resident threads the longest thread bounds the kernel
  no matter how idle the rest of the device is.

Constants live in :class:`TimingTuning`, each documented.  The model was
sanity-anchored against the paper's absolute single-GPU numbers (3-hit
BRCA ~23 min on one V100) but the experiments only rely on shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.device import V100, DeviceSpec
from repro.gpusim.kernel import KernelStats

__all__ = ["TimingTuning", "KernelTiming", "kernel_time", "kernel_times"]


@dataclass(frozen=True)
class TimingTuning:
    """Model constants for the scoring kernel.

    and_cycles_per_word:
        AND + popcount + accumulate per packed 64-bit word (~2 simple ops
        on the int pipe).
    load_cycles_per_word:
        Issue + L1-hit cost of one 64-bit load in the inner loop (~4
        cycles amortized).
    base_ops_per_combo:
        Loop bookkeeping per inner combination (index increment, running
        max compare-and-swap): ~8 ops.
    decode_cycles:
        Per-thread closed-form lambda -> (i, j, k) decode: sqrt/cbrt via
        log/exp plus integer repair, ~60 cycles.
    latency_hide_threads:
        Resident threads needed to fully hide DRAM latency; V100 needs
        roughly full occupancy (~160k threads) with dependent-load code.
    compute_hide_threads:
        Threads needed to keep the issue pipelines full (~4 warps per
        scheduler).  A GPU given only a few thousand heavy threads (the
        low-index equi-area partitions of the 2x2 scheme) cannot issue at
        peak no matter how much work each thread has — this is the
        low-occupancy straggler effect behind Fig. 6.
    issue_efficiency:
        Fraction of peak integer issue this mix achieves (popcount and
        AND share pipes; calibrated so 3-hit BRCA on one V100 lands near
        the paper's ~23 minutes).
    cache_reuse:
        Raw word reads divided by this reach DRAM; threads in a warp read
        the same inner row simultaneously (broadcast) and consecutive
        inner rows hit L2.
    kernel_launch_s:
        Fixed launch + driver overhead per kernel.
    """

    and_cycles_per_word: float = 2.0
    load_cycles_per_word: float = 4.0
    base_ops_per_combo: float = 8.0
    decode_cycles: float = 60.0
    latency_hide_threads: float = 160_000.0
    compute_hide_threads: float = 40_960.0
    issue_efficiency: float = 0.35
    cache_reuse: float = 64.0
    kernel_launch_s: float = 12e-6

    def ops_per_combo(self, words: int, rows_loaded: int) -> float:
        """Inner-loop instructions per scored combination."""
        return (
            self.base_ops_per_combo
            + words * self.and_cycles_per_word
            + rows_loaded * words * self.load_cycles_per_word
        )

    def setup_ops_per_thread(self, words: int, prefetched_rows: int) -> float:
        """One-time per-thread cost: decode + prefetch loads."""
        return self.decode_cycles + prefetched_rows * words * self.load_cycles_per_word


@dataclass(frozen=True)
class KernelTiming:
    """Resolved resource times for one kernel launch on one GPU (from
    :func:`kernel_times`, arrays of launches: ``bound`` excepted)."""

    t_compute_s: float
    t_setup_s: float
    t_memory_s: float
    t_tail_s: float
    launch_s: float
    hide_factor: float
    issue_hide: float = 1.0

    @property
    def busy_s(self) -> float:
        return np.maximum(
            np.maximum(self.t_compute_s + self.t_setup_s, self.t_memory_s), self.t_tail_s
        )

    @property
    def total_s(self) -> float:
        return self.busy_s + self.launch_s

    @property
    def bound(self) -> str:
        """Which resource bounds this launch: memory, compute, or tail.

        A launch throttled by exposed load latency (``issue_hide < 1`` —
        too few threads to keep the pipelines fed through dependent
        loads) is *memory*-bound in the NVPROF sense even though the
        derated compute term is the arithmetic maximum.
        """
        busy = self.busy_s
        if busy == self.t_memory_s or self.issue_hide < 1.0:
            return "memory"
        if busy == self.t_tail_s:
            return "tail"
        return "compute"


def kernel_time(
    stats: KernelStats,
    device: DeviceSpec = V100,
    tuning: TimingTuning = TimingTuning(),
) -> KernelTiming:
    """Evaluate the three-bound timing model for one launch."""
    timing = kernel_times(
        stats.n_threads, stats.n_combos, stats.max_thread_combos, stats.bytes_read,
        stats.words_per_combo, stats.rows_per_combo, stats.prefetched_rows,
        device, tuning,
    )
    return KernelTiming(**{name: float(v) for name, v in vars(timing).items()})


def kernel_times(
    n_threads, n_combos, max_thread_combos, bytes_read,
    words: int, rows: int, prefetched: int,
    device: DeviceSpec = V100,
    tuning: TimingTuning = TimingTuning(),
) -> KernelTiming:
    """The three-bound model over arrays of launches (or scalars).

    The four counts are :class:`KernelStats`' fields of the same names,
    one launch per element; ``words`` / ``rows`` / ``prefetched`` (its
    ``words_per_combo`` / ``rows_per_combo`` / ``prefetched_rows``) are
    shared.  A launch with no threads or no combinations costs only its
    launch overhead.
    """
    n_threads = np.asarray(n_threads, dtype=np.float64)
    n_combos = np.asarray(n_combos, dtype=np.float64)
    idle = (n_threads == 0) | (n_combos == 0)
    ops_combo = tuning.ops_per_combo(words, rows)
    setup_ops = tuning.setup_ops_per_thread(words, prefetched)
    issue_hide = np.minimum(1.0, n_threads / tuning.compute_hide_threads)
    hide = np.minimum(1.0, n_threads / tuning.latency_hide_threads)
    int_throughput = device.peak_int_ops_per_s * tuning.issue_efficiency * issue_hide
    dram_bytes = np.asarray(bytes_read, dtype=np.float64) / tuning.cache_reuse
    with np.errstate(divide="ignore", invalid="ignore"):  # idle: dropped below
        t_compute = n_combos * ops_combo / int_throughput
        t_setup = n_threads * setup_ops / int_throughput
        t_memory = dram_bytes / (device.dram_bandwidth_bps * hide)
    t_tail = (
        np.asarray(max_thread_combos, dtype=np.float64) * ops_combo + setup_ops
    ) / device.clock_hz
    return KernelTiming(
        *(np.where(idle, 0.0, t) for t in (t_compute, t_setup, t_memory, t_tail)),
        launch_s=tuning.kernel_launch_s,
        hide_factor=np.where(idle, 1.0, hide),
        issue_hide=np.where(idle, 1.0, issue_hide),
    )
