"""Distributed scale-out driver: cut the λ-grid -> search each range -> reduce.

One MPI rank per node, six GPU partitions per rank (Fig. 1).  Every
range of the grid is a lease on a :class:`repro.cluster.leases.
LeaseLedger`; ranks take leases, search them with the vectorized engine
and complete them with a single 20-byte candidate, and the per-lease
winners fold through the multi-stage max-reduction in lease-id order.
Each rank is a thread of :func:`repro.cluster.elastic.spmd_best_combo`,
the one driver of a ledger, running :func:`search_lease` under
:func:`run_lease`.

The two scheduling modes differ only in the ledger they build:

* static (``elastic=False``): the cuts are the schedule's partition
  boundaries and each lease is **pinned** to the rank that owns the
  partition (``part // gpus_per_node``), so a healthy run is exactly the
  paper's one-partition-per-GPU schedule;
* ``elastic=True``: :data:`LEASES_PER_PULLER` equi-area cuts per rank,
  nothing pinned — whichever rank is free pulls the next lease, and
  ``membership``-site :class:`FaultSpec` churn (join/leave) resizes the
  fleet mid-call.

Recovery is one rule for both: a crash on a granted lease is retried by
the same holder up to ``retry_policy.resubmits`` times with backoff,
then the holder is retired and its leases — the one it held and the
ones pinned to it — go back to the pool for survivors to steal (the
driver itself, holder ``-1``, if nobody survives).  A hang is a real
silence inside the search: past the lease TTL,
``retry_policy.deadline_s``, the lease expires and a survivor steals
it.  A pruned lease searches a copy of its slice of the bound table,
whoever ends up searching it, so recovery keeps the pruning speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby

from repro.bitmatrix.matrix import BitMatrix
from repro.core.bounds import BoundTable
from repro.core.combination import MultiHitCombination
from repro.core.engine import NormalHitStore, best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.reduction import ReductionStats, multi_stage_reduce
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.faults.report import FaultReport
from repro.scheduling.equiarea import LEASES_PER_PULLER, equiarea_schedule
from repro.scheduling.schedule import Schedule
from repro.scheduling.schemes import Scheme
from repro.telemetry.session import get_telemetry

__all__ = [
    "DistributedEngine",
    "node_candidates",
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
    bounds: "BoundTable | None" = None,
    refreshed: "dict | None" = None,
    sparse: bool = False,
    call: int = 0,
    stall_s: float = 0.0,
    normal_hits: "NormalHitStore | None" = None,
) -> "tuple[MultiHitCombination | None, KernelCounters]":
    """Search one lease's λ-range; returns ``(winner, counters)``.

    The winner is a pure function of the range, so any holder may run
    this for any lease.  With ``bounds`` the lease prunes against a copy
    of its slice of the table, taken at grant, and leaves the refreshed
    slice in ``refreshed[lease_id]`` for the caller to write back once
    the ledger is done.  The table is not written during the call, so
    every search of a lease refreshes the same values.  Metering rides
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
    lease_bounds = None if bounds is None else bounds.slice(lo, hi)
    counters = KernelCounters()
    stolen = lease.grants > 1 or lease.owner not in (None, rank)
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
            bounds=lease_bounds,
            sparse=sparse,
            normal_hits=normal_hits,
        )
    if lease_bounds is not None:
        refreshed.setdefault(lease.lease_id, lease_bounds)
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
    crash injected on the grant loses the attempt; the holder retries in
    place up to ``policy.resubmits`` times with backoff
    (``"resubmitted"``), then is retired (``"lease-forfeit"``): the
    lease it held and the ones pinned to it go back to the pool, and
    ``False`` tells the rank to stop.  Every completed lease is checked
    against ``policy.is_straggler``, injected or not.

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
        ledger.complete(lease.lease_id, rank, winner, counters=lease_counters)
        return True
    report.record(
        "crash", "rank", rank, call, "lease-forfeit",
        attempt=policy.max_attempts,
        detail=f"lease {lease.lease_id} [{lease.lam_start}, {lease.lam_end})",
    )
    ledger.retire(rank)
    return False


def node_candidates(leases) -> "list[MultiHitCombination | None]":
    """Stage 2 of the reduction, on-rank: a pinned rank's leases fold to
    the one 20-byte candidate that leaves the node; an unpinned lease
    stands alone.  ``leases`` come in lease-id order and a pinned rank's
    are contiguous, so the fold never depends on who searched what."""
    candidates: "list[MultiHitCombination | None]" = []
    for owner, group in groupby(leases, key=lambda lease: lease.owner):
        results = [lease.result for lease in group]
        candidates.extend(
            results if owner is None else [multi_stage_reduce(results)]
        )
    return candidates


@dataclass
class DistributedEngine:
    """Multi-node search over a lease ledger of the thread grid.

    Parameters mirror a Summit job: ``n_nodes`` MPI ranks with
    ``gpus_per_node`` GPU partitions each.  ``scheduler`` builds the
    static partition (equi-area by default).

    ``elastic`` replaces the pinned partition-per-GPU leases with
    :data:`LEASES_PER_PULLER` unpinned ones per node that whichever rank
    is free pulls; membership churn specs grow/shrink the fleet
    mid-call.  Winners are bit-identical either way.

    ``fault_plan`` injects rank faults and churn; recovery follows the
    module's one rule under ``retry_policy``, whose ``deadline_s`` is
    the lease TTL, and everything detected/retried/stolen lands in
    ``report``.  One :class:`repro.core.engine.NormalHitStore`, kept
    across calls, serves every rank thread's unpruned scans.
    """

    scheme: Scheme
    n_nodes: int
    gpus_per_node: int = GPUS_PER_NODE
    scheduler: str = "equiarea"
    fault_plan: "FaultPlan | None" = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    elastic: bool = False
    sparse: bool = False
    report: FaultReport = field(
        default_factory=FaultReport, repr=False, compare=False
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

    def chunk_cuts(self, g: int) -> tuple[int, ...]:
        """The ledger's range boundaries.

        Static: the schedule's partition cuts.  Elastic:
        :data:`LEASES_PER_PULLER` equi-area cuts per node, so losing a
        rank re-pools a few leases, not its whole share of the grid.
        """
        if not self.elastic:
            return tuple(self.build_schedule(g).boundaries)
        from repro.scheduling.equiarea import equiarea_range_boundaries
        from repro.scheduling.workload import total_threads

        return equiarea_range_boundaries(
            self.scheme, g, 0, total_threads(self.scheme, g),
            LEASES_PER_PULLER * self.n_nodes,
        )

    def close(self) -> None:
        """Nothing to release: the rank threads and the ledger live for
        one call."""

    def best_combo(
        self,
        tumor: BitMatrix,
        normal: BitMatrix,
        params: FScoreParams,
        counters: "KernelCounters | None" = None,
        reduction_stats: "ReductionStats | None" = None,
        bounds: "BoundTable | None" = None,
    ) -> "MultiHitCombination | None":
        """Full distributed arg-max: every lease's winner reduced at root.

        The ledger runs on ``n_nodes`` rank threads
        (:func:`repro.cluster.elastic.spmd_best_combo`), with
        ``retry_policy.deadline_s`` as its lease TTL and no wall-clock
        cap.  The reduction folds per-lease winners in lease-id order,
        so no scheduling or recovery detail can reach the result.
        """
        # Imported here: repro.cluster imports this module for search_lease.
        from repro.cluster.elastic import spmd_best_combo
        from repro.cluster.leases import LeaseLedger

        call = self._calls
        self._calls += 1
        g = tumor.n_genes
        if bounds is None:
            self._normal_hits = NormalHitStore.reuse(
                self._normal_hits, self.scheme, g, normal
            )
        ttl = self.retry_policy.deadline_s
        ledger = (
            LeaseLedger(self.chunk_cuts(g), ttl_s=ttl)
            if self.elastic
            else LeaseLedger.from_schedule(
                self.build_schedule(g), self.gpus_per_node, ttl_s=ttl
            )
        )
        return spmd_best_combo(
            ledger, self.scheme, tumor, normal, params, self.n_nodes,
            fault_plan=self.fault_plan, retry_policy=self.retry_policy,
            report=self.report, counters=counters,
            reduction_stats=reduction_stats, bounds=bounds,
            sparse=self.sparse, max_wall_s=None,
            call=call,
            normal_hits=None if bounds is not None else self._normal_hits,
        )
