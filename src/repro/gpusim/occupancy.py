"""V100 occupancy calculator.

Justifies the timing model's thread thresholds from first principles:
how many thread blocks fit per SM given the kernel's register and
shared-memory appetite, how many threads that leaves resident, and
whether that is enough to hide pipeline and DRAM latencies.  The maxF
kernel's register pressure is dominated by the prefetched rows
(MemOpt1/2 hold two packed rows in registers), so prefetching trades
occupancy for fewer loads — the calculator quantifies when that trade
inverts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.device import V100, DeviceSpec

__all__ = ["KernelResources", "Occupancy", "occupancy"]

# V100 per-SM resource pools (CUDA occupancy tables).
REGISTERS_PER_SM = 65_536
SHARED_BYTES_PER_SM = 96 * 1024
MAX_BLOCKS_PER_SM = 32
WARPS_PER_SM = 64


@dataclass(frozen=True)
class KernelResources:
    """What one thread / block of the scoring kernel consumes.

    ``base_registers`` covers the decode arithmetic and loop state.
    Prefetched rows live in *local memory* (the paper's "thread's faster
    local memory") — a BRCA-width pair of rows (2 x 31 x 8 bytes) would
    blow the register file at block size 512, so the CUDA code spills
    them to the L1-resident stack; that costs latency on a miss, not
    occupancy.  ``shared_bytes_per_block`` holds the block-reduction
    scratch (one 20-byte record per warp).
    """

    block_size: int = 512
    base_registers: int = 40
    prefetched_rows: int = 2
    words: int = 31
    shared_bytes_per_block: int = 512

    @property
    def registers_per_thread(self) -> int:
        return self.base_registers

    def __post_init__(self) -> None:
        if self.block_size < 32 or self.block_size % 32:
            raise ValueError("block_size must be a positive multiple of 32")


@dataclass(frozen=True)
class Occupancy:
    """Resolved occupancy for one kernel on one device."""

    blocks_per_sm: int
    threads_per_sm: int
    device_threads: int
    limiter: str

    @property
    def fraction(self) -> float:
        return self.threads_per_sm / 2048.0


def occupancy(resources: KernelResources, device: DeviceSpec = V100) -> Occupancy:
    """CUDA-style occupancy: min over register/shared/block/thread limits."""
    regs_per_block = resources.registers_per_thread * resources.block_size
    limits = {
        "registers": REGISTERS_PER_SM // max(regs_per_block, 1),
        "shared": SHARED_BYTES_PER_SM // max(resources.shared_bytes_per_block, 1),
        "blocks": MAX_BLOCKS_PER_SM,
        "threads": (device.max_threads_per_sm // resources.block_size),
    }
    limiter = min(limits, key=lambda k: limits[k])
    blocks = max(limits[limiter], 0)
    threads = blocks * resources.block_size
    return Occupancy(
        blocks_per_sm=blocks,
        threads_per_sm=min(threads, device.max_threads_per_sm),
        device_threads=min(threads, device.max_threads_per_sm) * device.n_sms,
        limiter=limiter,
    )
