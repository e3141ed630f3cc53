"""Solve-as-a-service: the multi-tenant async job gateway.

The subsystem layers admission control, dispatch, and supervised
execution over the existing engine fleet:

* :mod:`repro.service.jobs` — job lifecycle + atomic JSON job store;
* :mod:`repro.service.queue` — bounded admission queue, tenant quotas;
* :mod:`repro.service.dispatch` — the one sizing rule (backend + budget
  from the job's modeled cost, tenant pins honored);
* :mod:`repro.service.runner` — supervisor threads driving the solvers;
* :mod:`repro.service.http` — the stdlib HTTP API (``repro serve``).
"""

from repro.service.dispatch import DispatchDecision, FleetState
from repro.service.http import Gateway, GatewayServer, validate_spec
from repro.service.jobs import Job, JobState, JobStore
from repro.service.queue import (
    AdmissionError,
    AdmissionQueue,
    QueueFullError,
    QuotaExceededError,
)
from repro.service.runner import JobRunner

__all__ = [
    "AdmissionError",
    "AdmissionQueue",
    "DispatchDecision",
    "FleetState",
    "Gateway",
    "GatewayServer",
    "Job",
    "JobRunner",
    "JobState",
    "JobStore",
    "QueueFullError",
    "QuotaExceededError",
    "validate_spec",
]
