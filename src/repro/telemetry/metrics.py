"""Unified counter / gauge / histogram registry with cross-process merge.

One namespace absorbs every accounting stream the repo previously kept
in islands: the scoring-kernel :class:`~repro.core.kernels.KernelCounters`
(``kernel.*``), pool chunk statistics (``pool.*``), fault/retry events
(``faults.*``, routed live from :class:`repro.faults.FaultReport`),
gpusim launch accounting and NVPROF-style occupancy/stall metrics
(``gpusim.*``), and checkpoint I/O (``checkpoint.*``).

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

    def clear_gauges(self, prefix: str) -> int:
        """Drop every gauge whose name starts with ``prefix``.

        Gauges are last-write-wins snapshots keyed by name; a key that
        stops being written (a departed rank's ``spmd.heartbeat_stale_s.
        rankN``) would otherwise report its final value forever.  World
        (re)starts clear their per-rank keys so ``/metrics`` and the
        progress monitor only ever show the current membership.
        """
        with self._lock:
            stale = [name for name in self.gauges if name.startswith(prefix)]
            for name in stale:
                del self.gauges[name]
            return len(stale)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = HistogramStat()
            hist.observe(float(value))

    # -- absorption of existing accounting streams ---------------------

    def absorb_kernel_counters(self, counters, prefix: str = "kernel") -> None:
        """Fold a :class:`repro.core.kernels.KernelCounters` in.

        The pruning fields land under ``prune.*`` (not ``{prefix}.*``):
        they describe the lazy-greedy engine's behavior, not kernel
        traffic, and are only emitted when the pruned path actually ran.
        """
        self.inc(f"{prefix}.combos_scored", counters.combos_scored)
        self.inc(f"{prefix}.word_reads", counters.word_reads)
        self.inc(f"{prefix}.word_ops", counters.word_ops)
        if counters.decode_strides:
            self.inc(f"{prefix}.decode_strides", counters.decode_strides)
        if counters.inner_tables_built:
            self.inc(f"{prefix}.inner_tables_built", counters.inner_tables_built)
        # Sparse-path diagnostics: emitted only when the sparsity-driven
        # scan actually ran (any skipped traffic or cache hit).
        if counters.word_reads_skipped:
            self.inc(f"{prefix}.word_reads_skipped", counters.word_reads_skipped)
        if counters.strides_skipped_sparse:
            self.inc(
                f"{prefix}.strides_skipped_sparse",
                counters.strides_skipped_sparse,
            )
        if counters.prefix_and_hits:
            self.inc(f"{prefix}.prefix_and_hits", counters.prefix_and_hits)
        if counters.zero_prefix_runs_skipped:
            self.inc(
                "prune.zero_prefix_runs_skipped",
                counters.zero_prefix_runs_skipped,
            )
        if counters.blocks_scanned or counters.blocks_skipped:
            self.inc("prune.combos_pruned", counters.combos_pruned)
            self.inc("prune.blocks_skipped", counters.blocks_skipped)
            self.inc("prune.blocks_scanned", counters.blocks_scanned)
            self.inc("prune.supers_skipped", counters.supers_skipped)

    def record_fault_event(self, kind: str, site: str, action: str) -> None:
        """Live routing target for :meth:`repro.faults.FaultReport.record`."""
        self.inc("faults.events")
        self.inc(f"faults.kind.{kind}")
        self.inc(f"faults.site.{site}")
        self.inc(f"faults.action.{action}")

    def absorb_gpu_profile(self, profile, prefix: str = "gpusim") -> None:
        """Fold a :class:`repro.gpusim.profiler.GpuProfile` in."""
        for metric in profile.metrics:
            self.inc(f"{prefix}.bound.{metric.bound}")
            self.observe(f"{prefix}.utilization", metric.utilization)
            self.observe(f"{prefix}.busy_s", metric.busy_s)
            self.observe(
                f"{prefix}.stall_memory_dependency", metric.stall_memory_dependency
            )
            self.observe(
                f"{prefix}.stall_memory_throttle", metric.stall_memory_throttle
            )
            self.observe(
                f"{prefix}.stall_execution_dependency",
                metric.stall_execution_dependency,
            )
        transition = profile.memory_to_compute_transition()
        if transition is not None:
            self.set_gauge(f"{prefix}.memory_to_compute_transition", transition)

    # -- merge / serialization -----------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_dict(other.to_dict())

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
