"""The fault-tolerant thread fleet: ranks pull leases off one ledger.

:func:`spmd_best_combo` is the one entry point for an arg-max on rank
threads.  It runs a ready :class:`repro.cluster.leases.LeaseLedger` —
``from_schedule`` for the paper's static schedule (one lease per
partition, pinned to the owning rank), ``build`` for unpinned equi-area
leases — on :class:`ElasticSPMDRunner`, the second driver of the ledger
next to the in-process loop of :class:`repro.core.distributed.
DistributedEngine`; both share ``search_lease``, ``run_lease`` (the one
recovery rule) and ``apply_churn`` from that module.

The fleet never aborts.  Ranks *pull* leases, renew them implicitly
through the :class:`SimComm` heartbeat channel (no other message is sent
during an arg-max), and can join or leave mid-solve: a **joining** rank
registers against the pre-sized world and starts pulling; a **leaving**
rank finishes the lease it holds, then retires; a **crashed** rank
retries in place under the policy, then is retired and forfeits its
leases, held and pinned; a **hung** rank really goes silent, so its
lease expires off its stale heartbeat.  Either way a survivor steals
the range and the winner is unchanged (see the determinism argument in
:mod:`repro.cluster.leases`).  The plain message-passing body,
:func:`repro.cluster.mpi_program.rank_program`, survives as the paper's
failure-free reference.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial

from repro.bitmatrix.matrix import BitMatrix
from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.comm import SimComm, SimCommWorld
from repro.cluster.leases import LeaseLedger
from repro.cluster.runtime import export_heartbeat_staleness
from repro.core.bounds import BoundTable
from repro.core.combination import MultiHitCombination
from repro.core.distributed import apply_churn, run_lease, search_lease
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.faults.report import FaultReport
from repro.scheduling.schemes import Scheme
from repro.telemetry.session import get_telemetry, set_thread_telemetry

__all__ = ["ElasticSPMDRunner", "spmd_best_combo"]

#: Supervisor / idle-rank poll period.
_POLL_S = 0.01
#: How long :meth:`ElasticSPMDRunner.run` waits for rank threads to
#: unwind once the ledger is done before abandoning them (daemonic).
_DRAIN_GRACE_S = 2.0


@dataclass
class ElasticSPMDRunner:
    """Drive a lease ledger to completion on an elastic thread fleet.

    ``n_ranks`` threads start immediately; up to ``max_ranks`` total can
    exist over the run (the SimComm world's heartbeat fabric is
    pre-sized, like an MPI session opened with room to grow).  Faults
    and membership churn come from ``fault_plan``: ``rank``-site specs
    fire on a granted lease and are recovered by
    :func:`repro.core.distributed.run_lease` under ``retry_policy``,
    ``membership``-site specs fire in the supervisor once the solve
    reaches their progress-fraction trigger.

    The runner is deadlock-free by construction: every lease either
    completes, expires (``ledger.ttl_s`` off a stale heartbeat), or is
    forfeited — and once no rank is left that answers (every thread
    gone, or silent past the TTL), the supervisor itself drains the
    pool inline (holder ``-1``), so :meth:`run` returns a
    fully-completed ledger within ``max_wall_s`` unless a silent rank
    sits on a lease that cannot expire.
    """

    n_ranks: int
    max_ranks: "int | None" = None
    max_wall_s: float = 120.0
    fault_plan: "FaultPlan | None" = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    report: FaultReport = field(default_factory=FaultReport, repr=False)
    autoscale: "AutoscalePolicy | None" = None

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("need at least one rank")
        if self.max_ranks is None:
            self.max_ranks = 2 * self.n_ranks + 2
        if self.max_ranks < self.n_ranks:
            raise ValueError("max_ranks must be >= n_ranks")

    def run(self, ledger: LeaseLedger, search, call: int = 0) -> None:
        """Pull every lease through ``search`` to completion.

        ``search(lease, rank, stall_s=)`` returns ``(winner, counters)``
        for the lease's λ-range and must be thread-safe across distinct
        leases.  On return the ledger is fully completed and the moved
        leases are in ``report``; merge/counters are the caller's.
        """
        tel = get_telemetry()
        tel.clear_gauges("spmd.heartbeat_stale_s.")
        world = SimCommWorld(self.max_ranks, fault_plan=self.fault_plan)
        stop = threading.Event()
        threads: "dict[int, threading.Thread]" = {}
        leave_events: "dict[int, threading.Event]" = {}

        def worker(rank: int) -> None:
            # Inherit the spawner's (possibly thread-scoped, per-job)
            # telemetry session so rank-side spans/counters stay on it.
            set_thread_telemetry(tel)
            comm = SimComm(world, rank)
            try:
                with tel.span("spmd.rank", cat="spmd", rank=rank, elastic=True):
                    self._rank_body(
                        comm, rank, ledger, search, stop,
                        leave_events[rank], call, first_round.get(rank),
                    )
            except BaseException as exc:  # noqa: BLE001 - survivable by design
                ledger.retire(rank)
                self.report.record(
                    "crash", "rank", rank, call, "lease-forfeit",
                    detail=f"{type(exc).__name__}: {exc}",
                )

        def spawn(rank: int) -> bool:
            if rank >= self.max_ranks:
                return False
            leave_events[rank] = threading.Event()
            t = threading.Thread(
                target=worker, args=(rank,), name=f"elastic-rank-{rank}",
                daemon=True,
            )
            threads[rank] = t
            world.heartbeats[rank] = time.monotonic()
            t.start()
            return True

        def leave(rank: int) -> bool:
            ev = leave_events.get(rank)
            if ev is None or ev.is_set():
                return False
            ev.set()
            return True

        def observe(live: list, now: float) -> None:
            export_heartbeat_staleness(tel, world.heartbeats, live, now)
            if self.autoscale is not None:
                self.autoscale.recommend(
                    len(live),
                    eta_s=(
                        tel.metrics.gauges.get("progress.eta_s")
                        if tel.enabled else None
                    ),
                    heartbeat_stale_s={
                        r: now - world.heartbeats[r] for r in live
                    },
                )

        if tel.flight is not None:
            tel.flight.set_assignments("lease", ledger.assignment_rows(call))
        with tel.span(
            "spmd.world", cat="spmd", n_ranks=self.n_ranks, elastic=True
        ):
            # An SPMD launch has every rank alive at t=0: the first
            # round is granted here, in rank order, so each initial rank
            # holds a lease (and a fault planned on it fires) however
            # fast its peers' threads drain the rest, and the launch is
            # the supervisor's first sample of the fleet, so an attached
            # policy sees it however soon the ledger completes.  Joiners
            # start empty.
            first_round = {r: ledger.acquire(r) for r in range(self.n_ranks)}
            for r in range(self.n_ranks):
                spawn(r)
            observe(list(range(self.n_ranks)), time.monotonic())
            next_rank = self.n_ranks
            deadline = time.monotonic() + self.max_wall_s
            try:
                while not ledger.done:
                    now = time.monotonic()
                    if now > deadline:
                        raise RuntimeError(
                            f"elastic world exceeded max_wall_s={self.max_wall_s}s"
                            f" with {ledger.n_leases - ledger.n_completed}"
                            " leases outstanding"
                        )
                    # Heartbeat traffic is the renewal protocol: re-arm
                    # lease deadlines off the beats, then reclaim the
                    # stale ones for survivors to steal.
                    ledger.sync_heartbeats(world.heartbeats, now)
                    for lease in ledger.expire(now):
                        holder = lease.previous_holders[-1]
                        self.report.record(
                            "hang", "rank", holder, call, "lease-expired",
                            detail=(
                                f"lease {lease.lease_id} "
                                f"[{lease.lam_start}, {lease.lam_end})"
                            ),
                        )
                    next_rank = apply_churn(
                        ledger, self.fault_plan, self.report, call, next_rank,
                        spawn, leave,
                    )
                    live = [r for r, t in threads.items() if t.is_alive()]
                    observe(live, now)
                    ttl = ledger.ttl_s
                    if not any(
                        ttl is None or now - world.heartbeats[r] <= ttl
                        for r in live
                    ):
                        # Nobody left who answers — every rank is gone,
                        # or silent past the TTL: the driver drains the
                        # pool itself (holder -1), the guaranteed
                        # fallback.
                        self._drain_inline(ledger, search, call)
                        if ledger.done:
                            break
                    time.sleep(_POLL_S)
            finally:
                stop.set()
                t_end = time.monotonic() + _DRAIN_GRACE_S
                for t in threads.values():
                    t.join(timeout=max(0.0, t_end - time.monotonic()))
        for moved in ledger.moved():
            self.report.record_reschedule(*moved, call=call)
        # Stragglers resurfacing after a steal leave duplicates behind;
        # the run-level dump shows the full churn trail — whose leases
        # moved to whom — when anything was stolen or forfeited.
        if tel.flight is not None:
            tel.flight.set_assignments("lease", ledger.assignment_rows(call))
            if ledger.n_steals or ledger.n_forfeited:
                tel.flight.dump(
                    "lease-churn", telemetry=tel, fault_report=self.report
                )

    def _rank_body(
        self, comm, rank, ledger, search, stop, leave, call, lease=None
    ) -> None:
        tel = get_telemetry()

        def run(held) -> bool:
            return run_lease(
                ledger, held, rank, search, self.fault_plan,
                self.retry_policy, self.report, call, sleep_through_hang=True,
            )

        if lease is not None:  # granted by the driver before the launch
            ledger.take_up(lease, rank)
            comm.heartbeat()
            if not run(lease):
                return
        while not (stop.is_set() or ledger.done):
            comm.heartbeat()
            if leave.is_set():
                # Graceful departure: nothing held here (between leases),
                # so retiring forfeits nothing — the drain semantics.
                ledger.retire(rank)
                return
            lease = ledger.acquire(rank)
            if lease is None:
                if not ledger.n_available:
                    # Pool drained.  What is still granted is its
                    # holder's to finish; if that holder goes silent the
                    # expired lease falls to whoever is still pulling,
                    # or to the driver.
                    return
                # What is left is reserved for live peers: wait for it
                # to be unpinned.  One lease.wait span per waiting
                # stretch, not per poll tick.
                with tel.span("lease.wait", cat="spmd", rank=rank):
                    while ledger.n_available and not (
                        stop.is_set() or leave.is_set()
                        or ledger.has_work_for(rank)
                    ):
                        time.sleep(_POLL_S)
                        comm.heartbeat()
                continue
            if not run(lease):
                return  # retired: its leases are the survivors' now

    def _drain_inline(self, ledger, search, call) -> None:
        # Dead ranks hold nothing (every exit path retires) and a silent
        # rank's reservations lapsed with its lease, so whatever nobody
        # holds is in the shared pool.
        while (lease := ledger.acquire(-1)) is not None:
            run_lease(
                ledger, lease, -1, search, None, self.retry_policy,
                self.report, call,
            )
            self.report.record(
                "crash", "rank", -1, call, "inline-drain",
                detail=f"lease {lease.lease_id} recovered by driver",
            )


def spmd_best_combo(
    ledger: LeaseLedger,
    scheme: Scheme,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    n_ranks: int,
    fault_plan: "FaultPlan | None" = None,
    retry_policy: "RetryPolicy | None" = None,
    report: "FaultReport | None" = None,
    counters: "KernelCounters | None" = None,
    bounds: "BoundTable | None" = None,
    iteration: int = 0,
    sparse: bool = False,
    autoscale: "AutoscalePolicy | None" = None,
    max_wall_s: float = 120.0,
    call: int = 0,
) -> "MultiHitCombination | None":
    """One arg-max on a thread fleet of ``n_ranks`` over ``ledger``.

    The ledger decides the schedule: ``LeaseLedger.from_schedule(...)``
    is the paper's static one (each rank searches its own partitions
    unless it fails), ``LeaseLedger.build(...)`` an elastic pool, cut
    finer than one-per-rank so stealing has grain.  Give it a ``ttl_s``
    for hung ranks to be stolen from.  Whatever happens to the ranks,
    the per-lease winners fold in lease-id order: the result is
    bit-identical to any fixed-world run over the same grid.

    ``bounds`` keeps CELF pruning on when the table merged
    ``ledger.boundaries``: each lease prunes against its slice (see
    :func:`repro.core.distributed.search_lease`) and folds its refreshed
    bounds back under a lock.
    """
    search = partial(
        search_lease, scheme, tumor=tumor, normal=normal, params=params,
        bounds=bounds, iteration=iteration, sparse=sparse,
        call=call, fold_lock=threading.Lock(),
    )
    ElasticSPMDRunner(
        n_ranks=n_ranks,
        max_wall_s=max_wall_s,
        fault_plan=fault_plan,
        retry_policy=retry_policy or RetryPolicy(),
        report=report or FaultReport(),
        autoscale=autoscale,
    ).run(ledger, search, call=call)
    if counters is not None:
        ledger.merge_counters(counters)
    with get_telemetry().span(
        "reduce", cat="spmd", leases=ledger.n_leases, call=call
    ) as sp:
        # The merge causally depends on every lease completion; these
        # edges are what let the critical path thread through the
        # slowest lease chain instead of dead-ending at the reduce.
        for ctx in ledger.completion_contexts():
            sp.link(ctx, kind="complete")
        return ledger.merge()
