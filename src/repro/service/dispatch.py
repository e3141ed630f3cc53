"""The sizing rule: backend + worker budget per job, from its modeled cost.

Admission decides *whether* a job enters the fleet; dispatch decides
*where* and *how big*.  :func:`decide` maps (job spec, the fleet's
outstanding modeled cost, its worker cap) to a :class:`DispatchDecision`
— which engine backend runs the solve and how many workers/nodes it may
use — by one rule:

* model the job's full scan cost with
  :func:`repro.scheduling.costaware.total_schedule_cost` (the same
  per-thread cost model the cost-aware scheduler balances);
* at or below :data:`SINGLE_THRESHOLD` modeled cycles, or on a host with
  fewer than two cores, the job runs on the in-process ``single`` engine
  (a pool's rank threads and lease bookkeeping cost more than they save);
* above it, the job fans out over the ``pool`` with a budget
  proportional to its share of the outstanding modeled work (its own
  plus ``load``, what the job store's other admitted and running jobs
  cost), at least two workers and at most ``os.cpu_count()`` (more
  workers than cores only time-slice).

A tenant may pin ``solver.backend`` / ``solver.n_workers`` /
``solver.n_nodes`` in the submission (value-checked there, so used here
as given); pins win over the rule, and a pinned ``n_workers`` is
clamped only to the fleet's ``max_workers``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.data.registry import _SPECS
from repro.scheduling.costaware import total_schedule_cost
from repro.scheduling.schemes import scheme_for

__all__ = ["DispatchDecision", "SINGLE_THRESHOLD", "decide"]

#: Modeled cycles (:class:`repro.scheduling.costaware.ThreadCostModel`)
#: at or below which a job runs in-process: the measured break-even of
#: ``single`` against a 2-worker pool on a 2-core host.  With the native
#: tile kernel, single's time over the pool's read 0.80-1.15 up to 3-hit
#: G 600 (4.8e9) at either density, 0.97-1.03 at G 600 at the paper's
#: density; at G 800 (1.1e10) it read 0.93 there and 1.26 on a dense
#: cohort.  The model cannot see density, so the line sits just above
#: 3-hit G 600.  DESIGN §14 has the table.  Those measurements predate
#: the scan's one native call per lease: since then two rank threads
#: read 1.24-1.61x ``single`` at 3-hit G 600 (in-process fan-out probe),
#: so the line is stale, and it stays unchanged until a fan-out
#: benchmark workload (ROADMAP's ``fan3_wide``) can re-measure it.
SINGLE_THRESHOLD = 5e9


@dataclass(frozen=True)
class DispatchDecision:
    """Where one job runs and with what budget."""

    backend: str
    n_workers: int = 1
    n_nodes: int = 1
    est_cost: float = 0.0

    def to_payload(self) -> dict:
        return {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "n_nodes": self.n_nodes,
            "est_cost": self.est_cost,
        }


def _job_cost(spec: dict) -> float:
    """Modeled scan cost of the job's cohort (abstract cycles).

    A registry ``dataset`` is priced from its recipe, without generating
    it; hits come from the solver first, then the cohort, as
    :meth:`repro.service.runner.JobRunner._cohort_arrays` resolves them.
    An unknown dataset prices at 0.0 (its solve fails on its own).
    """
    cohort = spec.get("cohort", {})
    if "dataset" in cohort:
        cohort = _SPECS.get(cohort["dataset"], {})
    g = int(cohort.get("n_genes", 0))
    hits = int(spec.get("solver", {}).get("hits", cohort.get("hits", 4)))
    if g < hits or hits < 2:
        return 0.0
    return total_schedule_cost(scheme_for(hits, hits - 1), g)


def decide(job, load: float, max_workers: int) -> DispatchDecision:
    """Size ``job`` from its modeled cost, honoring the tenant's pins.

    ``load`` is the modeled cost of the fleet's other admitted or
    running jobs; ``max_workers`` caps any job's workers.
    """
    pins = job.spec.get("solver", {})
    est = _job_cost(job.spec)
    budget = min(max_workers, os.cpu_count() or 1)
    backend = pins.get("backend")
    if backend is None:
        backend = "pool" if est > SINGLE_THRESHOLD and budget >= 2 else "single"
    if backend == "single":
        n_workers = 1
    else:
        total = load + est
        share = est / total if total > 0 else 1.0
        n_workers = max(2, round(share * budget))
    n_workers = max(1, min(pins.get("n_workers", n_workers), max_workers))
    return DispatchDecision(
        backend=backend,
        n_workers=n_workers,
        n_nodes=pins.get("n_nodes", n_workers),
        est_cost=est,
    )
