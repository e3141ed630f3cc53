"""Unified counter / gauge / histogram registry with cross-process merge.

One namespace for every series something reads (``tests/
test_telemetry_catalogue.py`` names each one's reader): the scoring
kernel's :class:`~repro.core.kernels.KernelCounters` (``kernel.*``,
``prune.*``), the live progress feed (``progress.*``), lease and fault
events (``lease.*``, ``faults.events``), rank heartbeats
(``spmd.heartbeat_stale_s.max``) and the gateway's job lifecycle
(``job.*``).

Registries merge: pool workers ship ``to_dict()`` snapshots back over
the existing result channel and the parent folds them in with
:meth:`merge_dict`.  Counters add, gauges last-write-wins, histograms
combine their count/sum/min/max moments.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["HistogramStat", "MetricsRegistry"]


@dataclass
class HistogramStat:
    """Moment summary of an observed distribution."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def combine(self, other: "HistogramStat") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Thread-safe named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, HistogramStat] = {}
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = HistogramStat()
            hist.observe(float(value))

    # -- absorption of existing accounting streams ---------------------

    def absorb_kernel_counters(self, counters) -> None:
        """Fold a :class:`repro.core.kernels.KernelCounters` in.

        The pruning fields land under ``prune.*``: they describe the
        lazy-greedy engine, not kernel traffic, and are only emitted
        when the pruned path actually ran.
        """
        self.inc("kernel.combos_scored", counters.combos_scored)
        self.inc("kernel.word_reads", counters.word_reads)
        if counters.decode_strides:
            self.inc("kernel.decode_strides", counters.decode_strides)
        if counters.inner_tables_built:
            self.inc("kernel.inner_tables_built", counters.inner_tables_built)
        if counters.word_reads_skipped:
            self.inc("kernel.word_reads_skipped", counters.word_reads_skipped)
        if counters.blocks_scanned or counters.blocks_skipped:
            self.inc("prune.combos_pruned", counters.combos_pruned)
            self.inc("prune.blocks_skipped", counters.blocks_skipped)
            self.inc("prune.blocks_scanned", counters.blocks_scanned)
            self.inc("prune.supers_skipped", counters.supers_skipped)

    # -- merge / serialization -----------------------------------------

    def merge_dict(self, state: dict) -> None:
        with self._lock:
            for name, value in state.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in state.get("gauges", {}).items():
                self.gauges[name] = value
            for name, d in state.get("histograms", {}).items():
                hist = self.histograms.get(name)
                if hist is None:
                    hist = self.histograms[name] = HistogramStat()
                hist.combine(
                    HistogramStat(
                        count=d["count"],
                        total=d["total"],
                        minimum=d["min"] if d["count"] else float("inf"),
                        maximum=d["max"] if d["count"] else float("-inf"),
                    )
                )

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {
                    name: h.to_dict() for name, h in self.histograms.items()
                },
            }
