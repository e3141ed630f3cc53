"""Live progress / ETA monitor for long solves.

``C(G,4)`` grows to ~7e15 combinations at genome scale; a solve that
runs for hours must answer "how far along is it, and when will it
finish?" without being killed and post-processed.  The
:class:`ProgressMonitor` is a sampling daemon thread over the live
metrics registry:

* **λ-coverage** — the solver publishes ``progress.combos_scheduled``
  (combinations per greedy iteration) and feeds
  ``progress.combos_scored`` / ``progress.combos_pruned`` counters
  (per worker chunk on the pool backend, per iteration elsewhere); the
  monitor turns them into an in-iteration completion fraction;
* **rank health** — the rank fleet exports the stalest live rank's
  heartbeat age (``spmd.heartbeat_stale_s.max``); the monitor surfaces
  it next to the ``faults.events`` count;
* **ETA** — the measured rate (combinations examined per second since
  the monitor started) applied to what is left of the iteration;
  ``None`` until a combination has been examined.

Each sample is re-exported as gauges (``progress.fraction``,
``progress.rate_combos_per_s``, ``progress.eta_s``) so the same numbers
reach the ``/metrics`` endpoint, and optionally rendered as a
single-line ``\\r``-rewritten console status (what the CLI's
``--progress`` shows on stderr).

When the watched session is tracing, each sample also runs the causal
analyzer (:mod:`repro.telemetry.critpath`) over the spans closed so
far and exports ``progress.critical_path_fraction`` (critical-path
seconds over total attributed rank-seconds — 1.0 means fully serial)
and ``progress.comm_wait_fraction`` (share of rank time blocked on the
wire), rendered on the status line as ``crit ..% / comm ..%``.  The
analysis is skipped past :data:`SPAN_CAP` retained spans so a monster
trace never turns the sampler into the bottleneck it is watching.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = ["ProgressMonitor", "ProgressSnapshot"]

#: Retained spans past which a sample skips the causal analysis (the
#: gauges keep their last exported values).
SPAN_CAP = 4096


@dataclass(frozen=True)
class ProgressSnapshot:
    """One sample of solve progress (everything the status line shows)."""

    elapsed_s: float
    iteration: int
    combos_examined: int  # scored + pruned, cumulative over the run
    iteration_done: int  # examined within the current iteration
    iteration_total: int  # scheduled combinations per iteration
    fraction: float  # iteration_done / iteration_total
    rate_combos_per_s: "float | None"
    eta_s: "float | None"
    heartbeat_stale_s: "float | None"
    fault_events: int
    critical_path_fraction: "float | None" = None
    comm_wait_fraction: "float | None" = None

    def status_line(self) -> str:
        """The single-line console rendering."""
        pct = f"{100.0 * self.fraction:5.1f}%" if self.iteration_total else "  n/a"
        rate = (
            f"{self.rate_combos_per_s:,.0f}/s"
            if self.rate_combos_per_s
            else "--/s"
        )
        eta = _fmt_duration(self.eta_s)
        line = (
            f"iter {self.iteration or '-'} {pct} "
            f"({self.iteration_done:,}/{self.iteration_total:,}) "
            f"| {rate} | eta {eta} | elapsed {_fmt_duration(self.elapsed_s)}"
        )
        if self.fault_events:
            line += f" | faults {self.fault_events}"
        if self.heartbeat_stale_s is not None:
            line += f" | hb {self.heartbeat_stale_s:.1f}s"
        if self.critical_path_fraction is not None:
            line += f" | crit {100.0 * self.critical_path_fraction:.0f}%"
        if self.comm_wait_fraction is not None:
            line += f" | comm {100.0 * self.comm_wait_fraction:.0f}%"
        return line


def _fmt_duration(seconds: "float | None") -> str:
    if seconds is None:
        return "--"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


class ProgressMonitor:
    """Samples the live registry on a daemon thread; renders + re-exports.

    Parameters
    ----------
    telemetry:
        Session to watch; ``None`` resolves the installed session at
        each sample (matches the CLI lifecycle).
    interval_s:
        Sampling cadence.
    stream:
        Where the single-line status goes (``None`` disables rendering;
        the monitor still samples and exports gauges).
    """

    def __init__(self, telemetry=None, interval_s: float = 0.5, stream=None) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.telemetry = telemetry
        self.interval_s = interval_s
        self.stream = stream
        self.samples: list[ProgressSnapshot] = []
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._t0 = 0.0
        self._examined0 = 0

    # -- session plumbing ----------------------------------------------

    def _session(self):
        if self.telemetry is not None:
            return self.telemetry
        from repro.telemetry.session import get_telemetry

        return get_telemetry()

    # -- sampling ------------------------------------------------------

    def sample(self) -> ProgressSnapshot:
        """Read the registry, compute a snapshot, re-export the gauges."""
        telemetry = self._session()
        state = telemetry.metrics.to_dict()
        counters, gauges = state["counters"], state["gauges"]
        now = time.monotonic()
        if self._t0 == 0.0:
            self._t0 = now
        elapsed = now - self._t0

        scored = counters.get("progress.combos_scored", 0)
        pruned = counters.get("progress.combos_pruned", 0)
        examined = scored + pruned
        total = int(gauges.get("progress.combos_scheduled", 0))
        base = int(gauges.get("progress.iteration_base", 0))
        iteration = int(gauges.get("progress.iteration", 0))
        done = max(0, examined - base)
        fraction = done / total if total else 0.0

        measured = examined - self._examined0
        rate = measured / elapsed if measured > 0 and elapsed > 0 else None
        # The run rate applied to what is left of this iteration.
        eta = max(0, total - done) / rate if total and rate else None

        crit_frac, comm_frac = self._span_fractions(telemetry)
        snapshot = ProgressSnapshot(
            elapsed_s=elapsed,
            iteration=iteration,
            combos_examined=examined,
            iteration_done=done,
            iteration_total=total,
            fraction=min(1.0, fraction),
            rate_combos_per_s=rate,
            eta_s=eta,
            heartbeat_stale_s=gauges.get("spmd.heartbeat_stale_s.max"),
            fault_events=counters.get("faults.events", 0),
            critical_path_fraction=crit_frac,
            comm_wait_fraction=comm_frac,
        )
        if telemetry.enabled:
            telemetry.set_gauge("progress.fraction", snapshot.fraction)
            if snapshot.rate_combos_per_s is not None:
                telemetry.set_gauge(
                    "progress.rate_combos_per_s", snapshot.rate_combos_per_s
                )
            if snapshot.eta_s is not None:
                telemetry.set_gauge("progress.eta_s", snapshot.eta_s)
            if crit_frac is not None:
                telemetry.set_gauge("progress.critical_path_fraction", crit_frac)
            if comm_frac is not None:
                telemetry.set_gauge("progress.comm_wait_fraction", comm_frac)
        self.samples.append(snapshot)
        return snapshot

    def _span_fractions(self, telemetry) -> "tuple[float | None, float | None]":
        """Causal fractions from the spans closed so far (or ``None``s).

        Runs the critical-path extractor and the time-attribution pass
        over the live tracer ring.  Partial traces are fine — the
        analyzer roots at a virtual window root — but nonsense can
        happen mid-span, so any analysis error degrades to ``None``
        rather than killing the sampler.
        """
        if not telemetry.enabled:
            return None, None
        spans = telemetry.tracer.export()
        if not spans or len(spans) > SPAN_CAP:
            return None, None
        from repro.telemetry.critpath import attribute_time, critical_path

        try:
            attribution = attribute_time(spans)
            total = attribution["total_s"]
            if total <= 0:
                return None, None
            cp = critical_path(spans, top=1)
            crit = min(1.0, cp["length_s"] / total)
            comm = attribution["fractions"].get("comm_wait", 0.0)
            return crit, comm
        except (KeyError, ValueError, ZeroDivisionError):
            return None, None

    # -- the sampling thread -------------------------------------------

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._render(self.sample())

    def _render(self, snapshot: ProgressSnapshot) -> None:
        if self.stream is not None:
            self.stream.write("\r\x1b[2K" + snapshot.status_line())
            self.stream.flush()

    def start(self) -> "ProgressMonitor":
        if self._thread is not None:
            return self
        self._t0 = time.monotonic()
        state = self._session().metrics.to_dict()["counters"]
        self._examined0 = state.get("progress.combos_scored", 0) + state.get(
            "progress.combos_pruned", 0
        )
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-progress-monitor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._render(self.sample())  # final state, not a stale line
        if self.stream is not None:
            self.stream.write("\n")
            self.stream.flush()

    def __enter__(self) -> "ProgressMonitor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
