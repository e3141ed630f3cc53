"""Fault tolerance: deterministic injection, retry policy, reporting.

Three pillars (see DESIGN § work distribution and recovery):

* :class:`FaultPlan` / :class:`FaultSpec` — a deterministic, seedable
  fault-injection plan (rank crash at iteration *k*, worker hang,
  slow-GPU straggler, fleet join/leave) hooked into the pool, the rank
  fleet, its membership and the gpusim layer, so any failure scenario
  is a reproducible test case;
* :class:`RetryPolicy` — the shared retry/backoff/deadline policy every
  recovery layer consults (extracted from the pool's PR 1 inline retry);
* :class:`FaultReport` — the per-run record of what was detected,
  retried, and rescheduled (a dead rank's λ-ranges handed whole to
  survivors by the lease ledger).

Results under any injected plan are bit-identical to the failure-free
run: recovery changes *who* searches a thread range, never which
candidates exist or how ties break.
"""

from repro.faults.plan import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultInjected,
    FaultPlan,
    FaultSpec,
)
from repro.faults.policy import RetryPolicy
from repro.faults.report import FaultEvent, FaultReport, RescheduledRange

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "FaultEvent",
    "FaultReport",
    "RescheduledRange",
]
