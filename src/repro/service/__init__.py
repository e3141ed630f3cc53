"""Solve-as-a-service: the multi-tenant async job gateway.

The subsystem layers admission control, dispatch, and supervised
execution over the existing engine fleet:

* :mod:`repro.service.jobs` — job lifecycle + atomic JSON job store, the
  one record of a job's state: the FIFO queue, admission (fleet-wide
  depth, tenant quotas) and the in-flight accounting are its job states;
* :mod:`repro.service.dispatch` — the one sizing rule (backend + budget
  from the job's modeled cost, tenant pins honored);
* :mod:`repro.service.runner` — supervisor threads driving the solvers;
* :mod:`repro.service.http` — the one stdlib HTTP server, serving the
  job API (``repro serve``) or just ``/metrics`` + ``/healthz``
  (:class:`MetricsServer`, ``multihit solve --prom-port``).
"""

from repro.service.dispatch import DispatchDecision
from repro.service.http import Gateway, MetricsServer, validate_spec
from repro.service.jobs import (
    AdmissionError,
    Job,
    JobState,
    JobStore,
    QueueFullError,
    QuotaExceededError,
)
from repro.service.runner import JobRunner

__all__ = [
    "AdmissionError",
    "DispatchDecision",
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
