"""Flight recorder: a bounded in-memory timeline + post-mortem black box.

Long solves die in ways post-hoc exporters cannot see: a rank crashes
mid-iteration, a device fails, the solver raises — and the spans and
metrics accumulated so far vanish with the process (or are never
exported because ``write_*`` only runs on the happy path).  The
:class:`FlightRecorder` is the operational answer: a thread-safe ring
buffer that retains the most recent N span-close events, fault events
and notes per process, plus the *active λ-range assignments* (the
lease table) of whichever fleet is currently searching.

On any detected failure — leases stolen or forfeited on the rank fleet
(either backend) or an unhandled solver exception — the instrumented layers call
:meth:`FlightRecorder.dump`, which writes a post-mortem JSON "black box" (recent timeline + metrics registry
snapshot + :class:`repro.faults.FaultReport` + active assignments)
through the same atomic tmp + fsync + ``os.replace`` discipline as
checkpoints.  Dumps are sequence-numbered, so a cascade of failures
leaves one readable file per event.

Attach a recorder to a live session with
:meth:`repro.telemetry.Telemetry.attach_flight`; it subscribes to the
tracer's span-close feed (including absorbed spans) and to the fault
report's live routing.  A session without a recorder
pays one ``None`` check per fault event and nothing per span.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import asdict
from pathlib import Path

__all__ = ["FLIGHT_SCHEMA", "FlightRecorder"]

FLIGHT_SCHEMA = "repro.telemetry.flight/v1"
#: Events a recorder retains (oldest evicted first).  Spans, fault
#: events and notes share the one ring — a post-mortem wants the most
#: recent *timeline*, not per-type quotas.
CAPACITY = 512
#: Hard cap on black-box files one recorder writes: a fault storm
#: cannot fill the disk.
MAX_DUMPS = 16


class FlightRecorder:
    """Bounded ring buffer of recent telemetry events + black-box dumps.

    Parameters
    ----------
    out_dir:
        Directory black-box dumps are written into (created on demand).
        The ring holds :data:`CAPACITY` events and at most
        :data:`MAX_DUMPS` dumps are written.
    tag:
        Optional namespace woven into every dump filename
        (``blackbox-<tag>-NNN-<reason>.json``).  Concurrent solves
        sharing one dump directory (the gateway's per-job recorders,
        tagged with the job id) can never clobber each other's
        artifacts.

    The dump filename carries only the tag/sequence/reason; the causal
    identity lives *inside* the payload as ``trace_id`` (stamped from
    the session that dumped, when tracing is on).  Joining a black box
    against its trace is therefore ``payload["trace_id"]`` ==
    ``span["trace"]`` — the filename never needs re-parsing.
    """

    def __init__(
        self,
        out_dir: "str | Path" = "flight-recorder",
        tag: str = "",
    ) -> None:
        self.out_dir = Path(out_dir)
        self.tag = _slug(tag) if tag else ""
        self.dumps: list[Path] = []
        self._events: deque = deque(maxlen=CAPACITY)
        self._assignments: dict[str, list] = {}
        self._lock = threading.Lock()
        self._seq = 0

    # -- live feeds ----------------------------------------------------

    def _append(self, event: dict) -> None:
        event["t_wall"] = time.time()
        with self._lock:
            event["seq"] = self._seq
            self._seq += 1
            self._events.append(event)

    def record_span(self, span: dict) -> None:
        """Span-close feed (installed as the tracer's listener)."""
        self._append({"type": "span", **span})

    def record_fault(
        self, kind: str, site: str, target: int, call: int, action: str,
        detail: str = "", trace_id: "str | None" = None,
    ) -> None:
        """Fault feed (routed live from :class:`repro.faults.FaultReport`)."""
        event = {
            "type": "fault",
            "kind": kind,
            "site": site,
            "target": target,
            "call": call,
            "action": action,
            "detail": detail,
        }
        if trace_id is not None:
            event["trace_id"] = trace_id
        self._append(event)

    def note(self, kind: str, **fields) -> None:
        """Free-form operational event (lease steals, reschedules...)."""
        self._append({"type": "note", "kind": kind, **fields})

    def set_assignments(self, site: str, assignments: "list[dict]") -> None:
        """Publish the λ-ranges ``site`` is currently searching.

        Overwritten per arg-max call; the black box shows what every
        executor *was working on* when the run died, which is the first
        question a stuck-job post-mortem asks.
        """
        with self._lock:
            self._assignments[site] = list(assignments)

    # -- inspection ----------------------------------------------------

    def timeline(self) -> "list[dict]":
        """The retained events, oldest first."""
        with self._lock:
            return [dict(e) for e in self._events]

    def assignments(self) -> "dict[str, list]":
        with self._lock:
            return {site: list(rows) for site, rows in self._assignments.items()}

    # -- the black box -------------------------------------------------

    def snapshot(
        self,
        reason: str,
        exc: "BaseException | None" = None,
        telemetry=None,
        fault_report=None,
    ) -> dict:
        """Assemble the post-mortem payload (what :meth:`dump` writes)."""
        payload = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "wall_time": time.time(),
            "timeline": self.timeline(),
            "assignments": self.assignments(),
        }
        if self.tag:
            payload["tag"] = self.tag
        trace_id = getattr(telemetry, "trace_id", None)
        if trace_id is not None:
            payload["trace_id"] = trace_id
        if exc is not None:
            payload["exception"] = {
                "type": type(exc).__name__,
                "message": str(exc),
            }
        if telemetry is not None:
            payload["metrics"] = telemetry.metrics.to_dict()
        if fault_report is not None:
            payload["fault_report"] = {
                "n_detected": fault_report.n_detected,
                "n_retries": fault_report.n_retries,
                "n_rescheduled": fault_report.n_rescheduled,
                "dead_ranks": list(fault_report.dead_ranks),
                "events": [asdict(e) for e in fault_report.events],
                "rescheduled": [asdict(r) for r in fault_report.rescheduled],
            }
        return payload

    def dump(
        self,
        reason: str,
        exc: "BaseException | None" = None,
        telemetry=None,
        fault_report=None,
    ) -> "Path | None":
        """Write a black-box JSON; returns its path (``None`` if capped).

        Atomic (tmp + fsync + ``os.replace`` via the exporter helper):
        the dump is written *because* something is going wrong, so a
        half-written post-mortem would be worse than none.
        """
        from repro.telemetry.export import atomic_write_text

        with self._lock:
            if len(self.dumps) >= MAX_DUMPS:
                return None
            n = len(self.dumps)
            stem = f"blackbox-{self.tag}-" if self.tag else "blackbox-"
            path = self.out_dir / f"{stem}{n:03d}-{_slug(reason)}.json"
            self.dumps.append(path)
        payload = self.snapshot(
            reason, exc=exc, telemetry=telemetry, fault_report=fault_report
        )
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
        return path


def _slug(reason: str) -> str:
    keep = [c if c.isalnum() else "-" for c in reason.lower()]
    return "".join(keep).strip("-") or "event"
