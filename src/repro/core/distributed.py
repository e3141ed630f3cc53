"""Distributed scale-out driver: cut the λ-grid -> search each range -> reduce.

One MPI rank per node, six GPU partitions per rank (Fig. 1).  Every
range of the grid is a lease on a :class:`repro.cluster.leases.
LeaseLedger`; ranks take leases, search them with the vectorized engine
and complete them with a single 20-byte candidate, and the per-lease
winners fold through the multi-stage max-reduction in lease-id order.
Each rank is a thread of :func:`repro.cluster.elastic.spmd_best_combo`,
the one driver of a ledger, running :func:`search_lease` under
:func:`run_lease`.

:class:`DistributedEngine` is the one engine of both backends that fan
out: ``backend="distributed"`` over ``n_nodes`` ranks of
``gpus_per_node`` partitions, and ``backend="pool"`` over ``n_workers``
ranks of one partition each.  It builds one of two ledgers, and in
both whichever rank is free pulls the lowest free lease:

* static (``elastic=False``): one lease per partition of the schedule
  (``n_nodes * gpus_per_node`` equi-area or equidistance cuts), the
  paper's one-partition-per-GPU schedule, balanced by its cuts alone;
* ``elastic=True``: :data:`LEASES_PER_PULLER` equi-area cuts per rank,
  and ``membership``-site :class:`FaultSpec` churn (join/leave) resizes
  the fleet mid-call.

Recovery is one rule for every ledger, :func:`run_lease`: retry a
crashed attempt in place, then retire the holder and let survivors
steal its leases; a lease held past its TTL expires to a survivor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bitmatrix.matrix import BitMatrix
from repro.core.combination import MultiHitCombination
from repro.core.engine import NormalHitStore, best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
# Bound but never called here: the benchmark harness
# (benchmarks/perf/trace.py) patches it by this name.
from repro.core.reduction import multi_stage_reduce  # noqa: F401
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.faults.report import FaultReport
from repro.scheduling.equiarea import LEASES_PER_PULLER, equiarea_schedule
from repro.scheduling.schedule import Schedule
from repro.scheduling.schemes import Scheme
from repro.telemetry.session import get_telemetry

__all__ = [
    "DistributedEngine",
    "run_lease",
    "search_lease",
]

GPUS_PER_NODE = 6


def search_lease(
    scheme: Scheme,
    lease,
    rank: int,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    call: int = 0,
    stall_s: float = 0.0,
    normal_hits: "NormalHitStore | None" = None,
) -> "tuple[MultiHitCombination | None, KernelCounters]":
    """Search one lease's λ-range; returns ``(winner, counters)``.

    The winner is a pure function of the range, so any holder may run
    this for any lease.  Metering rides
    the lease, not the run counters, so a range that is stolen and
    computed twice still counts once: the ledger keeps the first
    completion's counters.  ``normal_hits`` is the engine's store, shared
    by every rank thread: whether a lease reads or fills it depends on
    who scanned what before, its winner does not.

    ``stall_s`` is an injected silence — a straggler, or a hang on a
    real thread: the holder goes quiet for that long inside the search
    span, spanned as comm time so attribution can explain the lost wall
    clock.
    """
    tel = get_telemetry()
    lo, hi = lease.lam_start, lease.lam_end
    counters = KernelCounters()
    stolen = lease.grants > 1
    with tel.span(
        "lease.search", cat="distributed", rank=rank, lease=lease.lease_id,
        lam_start=lo, lam_end=hi, call=call,
        **({"stolen": True} if stolen else {}),
    ) as span:
        # Cross-rank causal edge: redoing work the previous holder lost
        # chains the thief's timeline to the victim's.
        span.link(lease.victim_ctx, kind="steal")
        if stall_s > 0:
            with tel.span("comm.stall", cat="comm", rank=rank, delay_s=stall_s):
                time.sleep(stall_s)
        winner = best_in_thread_range(
            scheme, tumor.n_genes, tumor, normal, params, lo, hi,
            counters=counters,
            normal_hits=normal_hits,
        )
    return winner, counters


def run_lease(
    ledger,
    lease,
    rank: int,
    search,
    fault_plan: "FaultPlan | None",
    policy: RetryPolicy,
    report: FaultReport,
    call: int,
) -> bool:
    """One granted lease under the retry policy — the one recovery rule.

    ``search(lease, rank, stall_s=)`` returns ``(winner, counters)``.  A
    crash injected on the grant loses the attempt (any exception from
    the search is a bug and propagates); the holder retries in place up to
    ``policy.resubmits`` times with backoff (``"resubmitted"``), then is
    retired (``"lease-forfeit"``): the lease it held goes back to the
    pool, and ``False`` tells the rank to stop.
    Every completed lease is checked against ``policy.is_straggler``,
    injected or not, and feeds the live ``progress.*`` counters once.

    A hang or a straggler is a real silence of ``delay_s`` inside the
    search.  The lease TTL is the hang detector: a survivor steals the
    expired lease, and the rank resurfaces and carries on (its late
    completion is dropped as a duplicate).
    """
    tel = get_telemetry()
    crashed = False
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            with tel.span(
                "fault.retry", cat="distributed", rank=rank, attempt=attempt
            ):
                policy.sleep_before(attempt - 1)
        spec = (
            fault_plan.take("rank", rank, call)
            if fault_plan is not None and rank >= 0
            else None
        )
        kind = spec.kind if spec is not None else None
        if kind == "crash":
            crashed = True
            report.record("crash", "rank", rank, call, "detected", attempt=attempt)
            continue
        started = time.monotonic()
        winner, lease_counters = search(
            lease, rank, stall_s=spec.delay_s if spec is not None else 0.0
        )
        wall = time.monotonic() - started
        if kind == "straggler" or policy.is_straggler(wall):
            report.record(
                "straggler", "rank", rank, call, "observed",
                attempt=attempt, detail=f"{wall:.3f}s",
            )
        if crashed:
            report.record("crash", "rank", rank, call, "resubmitted", attempt=attempt)
        if ledger.complete(
            lease.lease_id, rank, winner, counters=lease_counters,
            wall_seconds=wall,
        ):
            # Live progress, once per completed range on either fleet;
            # a duplicate completion adds nothing.
            tel.count("progress.combos_scored", lease_counters.combos_scored)
        return True
    report.record(
        "crash", "rank", rank, call, "lease-forfeit",
        attempt=policy.max_attempts,
        detail=f"lease {lease.lease_id} [{lease.lam_start}, {lease.lam_end})",
    )
    ledger.retire(rank)
    return False


@dataclass(kw_only=True)
class DistributedEngine:
    """Multi-node search over a lease ledger of the thread grid — the one
    engine of every backend that fans out.

    Parameters mirror a Summit job: ``n_nodes`` MPI ranks with
    ``gpus_per_node`` GPU partitions each (``backend="pool"`` is
    ``gpus_per_node=1``: one partition per rank).  Each call builds a
    ledger — ``scheduler``'s partition (equi-area by default), one lease
    per partition, or :data:`LEASES_PER_PULLER` equi-area leases per
    rank when ``elastic`` — whose lease TTL is ``retry_policy.deadline_s``, and
    runs it on rank threads (:func:`repro.cluster.elastic.
    spmd_best_combo`, no wall-clock cap).  ``fault_plan`` faults are
    numbered by arg-max call and recovered by :func:`run_lease` into
    ``report``.  One :class:`repro.core.engine.NormalHitStore`, kept
    across calls, serves every rank's scans; ``ledger`` is the last
    call's, whose leases hold each range's completer, wall time and
    counters.
    """

    scheme: Scheme
    n_nodes: int
    gpus_per_node: int = GPUS_PER_NODE
    scheduler: str = "equiarea"
    fault_plan: "FaultPlan | None" = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    elastic: bool = False
    report: FaultReport = field(
        default_factory=FaultReport, repr=False, compare=False
    )
    ledger: "object | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    _calls: int = field(default=0, init=False, repr=False, compare=False)
    _normal_hits: "NormalHitStore | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def build_schedule(self, g: int) -> Schedule:
        n_parts = self.n_nodes * self.gpus_per_node
        with get_telemetry().span(
            "schedule", cat="distributed", scheduler=self.scheduler, n_parts=n_parts
        ):
            if self.scheduler == "equiarea":
                return equiarea_schedule(self.scheme, g, n_parts)
            if self.scheduler == "equidistance":
                from repro.scheduling.equidistance import equidistance_schedule

                return equidistance_schedule(self.scheme, g, n_parts)
            raise ValueError(f"unknown scheduler {self.scheduler!r}")

    def close(self) -> None:
        """Nothing to release: the rank threads and the ledger live for
        one call."""

    def best_combo(
        self,
        tumor: BitMatrix,
        normal: BitMatrix,
        params: FScoreParams,
        counters: "KernelCounters | None" = None,
    ) -> "MultiHitCombination | None":
        """Full distributed arg-max: every lease's winner reduced at
        root, in lease-id order, so no scheduling or recovery detail can
        reach the result."""
        # Imported here: repro.cluster imports this module for search_lease.
        from repro.cluster.elastic import spmd_best_combo
        from repro.cluster.leases import LeaseLedger

        g = tumor.n_genes
        if normal.n_genes != g:
            raise ValueError("tumor and normal matrices must share the gene axis")
        call = self._calls
        self._calls += 1
        self._normal_hits = NormalHitStore.reuse(
            self._normal_hits, self.scheme, g, normal
        )
        ttl = self.retry_policy.deadline_s
        self.ledger = (
            LeaseLedger.build(
                self.scheme, g, LEASES_PER_PULLER * self.n_nodes, ttl_s=ttl
            )
            if self.elastic
            else LeaseLedger(self.build_schedule(g).boundaries, ttl_s=ttl)
        )
        return spmd_best_combo(
            self.ledger, self.scheme, tumor, normal, params, self.n_nodes,
            fault_plan=self.fault_plan, retry_policy=self.retry_policy,
            report=self.report, counters=counters, max_wall_s=None,
            call=call, normal_hits=self._normal_hits,
        )
