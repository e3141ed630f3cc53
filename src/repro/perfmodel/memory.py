"""Per-GPU memory-footprint planning — §V strategy (2).

§V proposes *distributing only the required subset* of the (20x larger)
mutation-sample matrices to each GPU.  A partition owning 3x1 threads
``[lo, hi)`` touches two classes of rows with very different intensity:

* **inner rows** — the ``l``-loop rows ``(top(lo), g)``, read once per
  combination: these are the hot set that must be device-resident;
* **tuple rows** — the decoded ``(i, j, k)`` rows, spanning
  ``[0, top(hi-1)]`` but each read only once per thread (prefetch):
  these can stream from host/NVLink without entering the inner loop.

The planner sizes full replication vs hot-set residency per GPU and
checks both against device memory — the accounting that decides whether
a mutation-level input (~4e5 rows) can run without unified-memory
thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.combinatorics.decode import top_index
from repro.gpusim.device import V100, DeviceSpec
from repro.scheduling.schedule import Schedule

__all__ = ["GpuMemoryPlan", "plan_memory"]

_WORD_BYTES = 8


@dataclass(frozen=True)
class GpuMemoryPlan:
    """Resident-set summary for one schedule on one device type."""

    n_parts: int
    words: int
    full_replication_bytes: int
    hot_bytes: np.ndarray  # per partition: inner (per-combination) rows
    streamable_bytes: np.ndarray  # per partition: tuple (per-thread) rows
    device_bytes: int

    @property
    def max_hot_bytes(self) -> int:
        return int(self.hot_bytes.max()) if len(self.hot_bytes) else 0

    @property
    def replication_fits(self) -> bool:
        return self.full_replication_bytes <= self.device_bytes

    @property
    def hot_set_fits(self) -> bool:
        return self.max_hot_bytes <= self.device_bytes

    @property
    def mean_hot_fraction(self) -> float:
        """Average fraction of the matrix that must be device-resident."""
        if self.full_replication_bytes == 0:
            return 0.0
        return float(self.hot_bytes.mean() / self.full_replication_bytes)


def plan_memory(
    schedule: Schedule,
    words: int,
    device: DeviceSpec = V100,
) -> GpuMemoryPlan:
    """Memory plan for a schedule over a ``g x words`` packed matrix pair."""
    g = schedule.g
    full = g * words * _WORD_BYTES
    hot = np.zeros(schedule.n_parts, dtype=np.int64)
    stream = np.zeros(schedule.n_parts, dtype=np.int64)
    for p in range(schedule.n_parts):
        lo, hi = schedule.thread_range(p)
        if hi <= lo:
            continue
        top_lo = top_index(lo, schedule.scheme.flattened)
        top_hi = top_index(hi - 1, schedule.scheme.flattened)
        inner_rows = max(0, g - 1 - top_lo)  # rows (top_lo, g)
        tuple_rows = top_hi + 1  # rows [0, top_hi]
        hot[p] = inner_rows * words * _WORD_BYTES
        stream[p] = tuple_rows * words * _WORD_BYTES
    return GpuMemoryPlan(
        n_parts=schedule.n_parts,
        words=words,
        full_replication_bytes=full,
        hot_bytes=hot,
        streamable_bytes=stream,
        device_bytes=device.dram_bytes,
    )
