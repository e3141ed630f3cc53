"""Inter-node network cost model.

Summit's fat-tree EDR InfiniBand gives ~1 microsecond MPI latency and
~12.5 GB/s per-direction node bandwidth (dual-rail aggregate 25 GB/s).
The solver's communication is tiny — one 20-byte candidate per rank per
greedy iteration plus a broadcast of the covered-sample mask — so
latency, not bandwidth, dominates; the tree-reduce term is what shows up
as "communication time" in Fig. 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["NetworkModel", "SUMMIT_NETWORK"]


@dataclass(frozen=True)
class NetworkModel:
    """Alpha-beta (latency/bandwidth) communication cost model."""

    latency_s: float = 1.5e-6
    bandwidth_bps: float = 12.5e9  # bytes/second per direction
    per_rank_software_overhead_s: float = 2.0e-6

    def p2p_time(self, n_bytes: int) -> float:
        """One point-to-point message."""
        return self.latency_s + n_bytes / self.bandwidth_bps

    def tree_reduce_time(self, n_ranks: int, n_bytes: int) -> float:
        """Binomial-tree reduce of ``n_bytes`` payloads to the root."""
        if n_ranks <= 1:
            return 0.0
        depth = math.ceil(math.log2(n_ranks))
        return depth * (self.p2p_time(n_bytes) + self.per_rank_software_overhead_s)

    def bcast_time(self, n_ranks: int, n_bytes: int) -> float:
        """Binomial-tree broadcast (same shape as the reduce)."""
        return self.tree_reduce_time(n_ranks, n_bytes)


SUMMIT_NETWORK = NetworkModel()
