"""Solve-as-a-service: the multi-tenant async job gateway.

The subsystem layers admission control, dispatch, and supervised
execution over the existing engine fleet:

* :mod:`repro.service.jobs` — job lifecycle + atomic JSON job store;
* :mod:`repro.service.queue` — bounded admission queue, tenant quotas;
* :mod:`repro.service.dispatch` — the one sizing rule (backend + budget
  from the job's modeled cost, tenant pins honored);
* :mod:`repro.service.runner` — supervisor threads driving the solvers;
* :mod:`repro.service.http` — the one stdlib HTTP server, serving the
  job API (``repro serve``) or just ``/metrics`` + ``/healthz``
  (:class:`MetricsServer`, ``multihit solve --prom-port``).
"""

from repro.service.dispatch import DispatchDecision, FleetState
from repro.service.http import Gateway, MetricsServer, validate_spec
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
    "Job",
    "JobRunner",
    "JobState",
    "JobStore",
    "MetricsServer",
    "QueueFullError",
    "QuotaExceededError",
    "validate_spec",
]
