"""Pluggable dispatch policies: backend + worker budget per job.

Admission decides *whether* a job enters the fleet; dispatch decides
*where* and *how big*.  A policy maps (job spec, current fleet state)
to a :class:`DispatchDecision` — which engine backend runs the solve
and how many workers/nodes it may use — in the shape of melange-style
GPU load balancers (a policy object per strategy, chosen by name at
gateway boot):

* ``round_robin`` — rotate jobs across the allowed backends, equal
  budgets.  The baseline every other policy is compared against.
* ``weighted_by_load`` — send the job to the backend with the least
  outstanding modeled work, budget scaled to the fleet's idle share.
* ``cost_aware`` — model the job's full scan cost with
  :func:`repro.scheduling.costaware.total_schedule_cost` (the same
  per-thread cost model the latency-aware scheduler uses) and size the
  worker budget to the job: small cohorts stay on the in-process
  ``single`` engine, large ones fan out over the pool with a budget
  proportional to their share of the outstanding work.

A tenant may pin ``solver.backend`` / ``solver.n_workers`` in the
submission (value-checked there, so used here as given); the policy
honors pins and budgets around them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.scheduling.costaware import ThreadCostModel, total_schedule_cost
from repro.scheduling.schemes import scheme_for

__all__ = [
    "CostAwarePolicy",
    "DispatchDecision",
    "DispatchPolicy",
    "FleetState",
    "POLICIES",
    "RoundRobinPolicy",
    "WeightedByLoadPolicy",
    "dispatch_policy",
]


@dataclass(frozen=True)
class DispatchDecision:
    """Where one job runs and with what budget."""

    backend: str
    n_workers: int = 1
    n_nodes: int = 1
    policy: str = ""
    est_cost: float = 0.0

    def to_payload(self) -> dict:
        return {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "n_nodes": self.n_nodes,
            "policy": self.policy,
            "est_cost": self.est_cost,
        }


@dataclass
class FleetState:
    """What dispatch can see of the fleet: capacity and outstanding work.

    ``running`` maps job id -> its decision; the runner registers a job
    at admission and unregisters at completion, under ``lock`` (the
    policies read it while the supervisors mutate it).
    """

    max_workers: int = 8
    backends: tuple = ("single", "pool")
    running: dict = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def register(self, job_id: str, decision: DispatchDecision) -> None:
        with self.lock:
            self.running[job_id] = decision

    def unregister(self, job_id: str) -> None:
        with self.lock:
            self.running.pop(job_id, None)

    def load(self) -> dict:
        """Outstanding modeled cost and busy workers per backend."""
        per_backend = {b: {"est_cost": 0.0, "n_workers": 0, "jobs": 0}
                      for b in self.backends}
        with self.lock:
            for decision in self.running.values():
                row = per_backend.setdefault(
                    decision.backend,
                    {"est_cost": 0.0, "n_workers": 0, "jobs": 0},
                )
                row["est_cost"] += decision.est_cost
                row["n_workers"] += decision.n_workers
                row["jobs"] += 1
        return per_backend


def _job_cost(spec: dict, cost_model: "ThreadCostModel | None" = None) -> float:
    """Modeled scan cost of the job's cohort (abstract cycles)."""
    cohort = spec.get("cohort", {})
    solver = spec.get("solver", {})
    g = int(cohort.get("n_genes", 0))
    hits = int(solver.get("hits", cohort.get("hits", 4)))
    if g < hits or hits < 2:
        return 0.0
    scheme = scheme_for(hits, hits - 1)
    return total_schedule_cost(scheme, g, cost_model)


class DispatchPolicy:
    """Base policy: subclasses implement :meth:`choose`."""

    name = "base"

    def choose(self, job, fleet: FleetState) -> DispatchDecision:
        raise NotImplementedError

    def _decide(
        self, job, fleet: FleetState, backend: str, n_workers: int,
        est_cost: float = 0.0,
    ) -> DispatchDecision:
        pins = job.spec.get("solver", {})  # tenant pins, to be honored
        backend = pins.get("backend", backend)
        if backend == "single":
            n_workers = 1
        n_workers = pins.get("n_workers", n_workers)
        n_workers = max(1, min(n_workers, fleet.max_workers))
        return DispatchDecision(
            backend=backend,
            n_workers=n_workers,
            n_nodes=pins.get("n_nodes", max(1, n_workers)),
            policy=self.name,
            est_cost=est_cost,
        )


class RoundRobinPolicy(DispatchPolicy):
    """Rotate across the allowed backends, equal worker budgets."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0
        self._lock = threading.Lock()

    def choose(self, job, fleet: FleetState) -> DispatchDecision:
        with self._lock:
            backend = fleet.backends[self._next % len(fleet.backends)]
            self._next += 1
        share = max(1, fleet.max_workers // max(len(fleet.backends), 1))
        return self._decide(
            job, fleet, backend, share, est_cost=_job_cost(job.spec)
        )


class WeightedByLoadPolicy(DispatchPolicy):
    """Least-loaded backend wins; budget scales with idle capacity."""

    name = "weighted_by_load"

    def choose(self, job, fleet: FleetState) -> DispatchDecision:
        load = fleet.load()
        backend = min(
            fleet.backends,
            key=lambda b: (load[b]["est_cost"], load[b]["jobs"]),
        )
        busy = sum(row["n_workers"] for row in load.values())
        idle = max(1, fleet.max_workers - busy)
        return self._decide(
            job, fleet, backend, idle, est_cost=_job_cost(job.spec)
        )


class CostAwarePolicy(DispatchPolicy):
    """Size the budget to the job's modeled cost.

    Jobs below ``single_threshold`` (abstract cycles) are cheaper to run
    in-process than to fan out (worker startup dominates); everything
    else goes to the pool with workers proportional to this job's share
    of the outstanding modeled work.
    """

    name = "cost_aware"

    def __init__(
        self,
        cost_model: "ThreadCostModel | None" = None,
        single_threshold: float = 5e6,
    ) -> None:
        self.cost_model = cost_model or ThreadCostModel()
        self.single_threshold = single_threshold

    def choose(self, job, fleet: FleetState) -> DispatchDecision:
        est = _job_cost(job.spec, self.cost_model)
        if est <= self.single_threshold or "pool" not in fleet.backends:
            return self._decide(job, fleet, "single", 1, est_cost=est)
        outstanding = sum(
            row["est_cost"] for row in fleet.load().values()
        )
        share = est / (outstanding + est)
        budget = max(2, int(round(share * fleet.max_workers)))
        return self._decide(job, fleet, "pool", budget, est_cost=est)


POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    WeightedByLoadPolicy.name: WeightedByLoadPolicy,
    CostAwarePolicy.name: CostAwarePolicy,
}


def dispatch_policy(name: str) -> DispatchPolicy:
    """Instantiate a policy by registry name (gateway ``--policy``)."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown dispatch policy {name!r}; "
            f"known: {sorted(POLICIES)}"
        ) from None
