"""Per-run accounting of detected faults and recovery actions.

A :class:`FaultReport` is what an operator reads after a degraded run:
every detected fault (what, where, which arg-max call), every retry, and
every λ-range that moved from a dead rank to a survivor.  The
engines append to it as they recover; the solver attaches it to the
:class:`repro.core.solver.MultiHitResult` so degradation is visible in
the output, not just in a warning that scrolled by.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.session import get_telemetry

__all__ = ["FaultEvent", "FaultReport", "RescheduledRange"]


@dataclass(frozen=True)
class FaultEvent:
    """One detected fault and the action taken on it.

    ``action`` is one of ``"resubmitted"`` (retried on the original
    executor), ``"inline-retry"`` (recovered in the parent),
    ``"lease-forfeit"`` (holder retired, its leases stolen by
    survivors), ``"lease-expired"`` (holder silent past the TTL, its
    lease stolen), or ``"observed"`` (detected but the result was kept,
    e.g. a straggler that finished)."""

    kind: str
    site: str
    target: int
    call: int
    action: str
    attempt: int = 1
    detail: str = ""
    # The causal trace the fault occurred inside (None when telemetry
    # is off) — joins a fault entry against the span timeline and the
    # flight-recorder black box that share the same trace id.
    trace_id: "str | None" = None


@dataclass(frozen=True)
class RescheduledRange:
    """A dead rank's λ sub-range handed to a survivor."""

    dead_rank: int
    survivor: int
    lam_start: int
    lam_end: int
    call: int = 0


@dataclass
class FaultReport:
    """Accumulated fault/recovery record for one run."""

    events: list[FaultEvent] = field(default_factory=list)
    rescheduled: list[RescheduledRange] = field(default_factory=list)

    def record(
        self,
        kind: str,
        site: str,
        target: int,
        call: int,
        action: str,
        attempt: int = 1,
        detail: str = "",
    ) -> None:
        telemetry = get_telemetry()
        trace_id = telemetry.trace_id if telemetry.enabled else None
        self.events.append(
            FaultEvent(
                kind=kind,
                site=site,
                target=target,
                call=call,
                action=action,
                attempt=attempt,
                detail=detail,
                trace_id=trace_id,
            )
        )
        # Live-route every fault/recovery event into the telemetry
        # registry (the progress monitor's fault count) and onto the
        # flight recorder's ring (so the black box shows the fault
        # sequence leading up to a dump).
        telemetry.count("faults.events")
        if telemetry.flight is not None:
            telemetry.flight.record_fault(
                kind, site, target, call, action, detail=detail,
                trace_id=trace_id,
            )

    def record_reschedule(
        self, dead_rank: int, survivor: int, lam_start: int, lam_end: int, call: int = 0
    ) -> None:
        self.rescheduled.append(
            RescheduledRange(
                dead_rank=dead_rank,
                survivor=survivor,
                lam_start=lam_start,
                lam_end=lam_end,
                call=call,
            )
        )
        telemetry = get_telemetry()
        if telemetry.flight is not None:
            telemetry.flight.note(
                "reschedule",
                dead_rank=dead_rank,
                survivor=survivor,
                lam_start=lam_start,
                lam_end=lam_end,
                call=call,
            )

    def merge(self, other: "FaultReport") -> None:
        self.events.extend(other.events)
        self.rescheduled.extend(other.rescheduled)

    @property
    def n_detected(self) -> int:
        return len(self.events)

    @property
    def n_retries(self) -> int:
        return sum(
            1 for e in self.events if e.action in ("resubmitted", "inline-retry")
        )

    @property
    def n_rescheduled(self) -> int:
        return len(self.rescheduled)

    @property
    def dead_ranks(self) -> tuple[int, ...]:
        return tuple(sorted({r.dead_rank for r in self.rescheduled}))

    def describe(self) -> str:
        lines = [
            f"FaultReport: {self.n_detected} detected "
            f"({self.n_retries} retried, {self.n_rescheduled} ranges rescheduled)"
        ]
        for e in self.events:
            detail = f"  [{e.detail}]" if e.detail else ""
            lines.append(
                f"  call {e.call}: {e.kind} @ {e.site}/{e.target} -> "
                f"{e.action} (attempt {e.attempt}){detail}"
            )
        for r in self.rescheduled:
            lines.append(
                f"  call {r.call}: rank {r.dead_rank} range "
                f"[{r.lam_start}, {r.lam_end}) -> survivor {r.survivor}"
            )
        return "\n".join(lines)
