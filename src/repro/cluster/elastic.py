"""The thread fleet: ranks pull leases off one ledger.

:func:`spmd_best_combo` runs an arg-max over a ready
:class:`repro.cluster.leases.LeaseLedger` — ``from_schedule`` for the
paper's static schedule (one lease per partition, pinned to the owning
rank), ``build`` for unpinned equi-area leases — on
:class:`ElasticSPMDRunner`, the one driver of a ledger.
``backend="distributed"`` (:class:`repro.core.distributed.
DistributedEngine`) calls it once per greedy iteration; its ranks search
with ``search_lease`` and recover with ``run_lease`` (the one recovery
rule) from that module.

The fleet never aborts.  Ranks *pull* leases, renew them with a
heartbeat between leases (no message is sent during an arg-max), and
can join or leave mid-solve: a **joining** rank starts pulling; a
**leaving** rank finishes the lease it holds, then retires; a
**crashed** rank retries in place under the policy, then is retired and
forfeits its leases, held and pinned; a **hung** rank really goes
silent, so its lease expires off its stale heartbeat once the ledger's
TTL passes.  Either way a survivor steals the range and the winner is
unchanged (see the determinism argument in :mod:`repro.cluster.leases`).
Joins and leaves come only from the fault plan's ``membership`` specs:
as on an allocation, nothing resizes the fleet at run time.  This is
the only rank runner: the paper's Section III-E reduce of one candidate
per rank is :meth:`LeaseLedger.merge`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial

from repro.bitmatrix.matrix import BitMatrix
from repro.cluster.leases import LeaseLedger
from repro.core.bounds import BoundTable
from repro.core.combination import MultiHitCombination
from repro.core.distributed import run_lease, search_lease
from repro.core.engine import NormalHitStore
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.reduction import ReductionStats
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


def export_heartbeat_staleness(telemetry, heartbeats, live_ranks, now) -> None:
    """Publish ``spmd.heartbeat_stale_s.max``, the stalest live rank's
    silence, re-written on each call (a rank that finished or left no
    longer counts).  The progress monitor reads it to flag a world whose
    ranks have gone quiet before any deadline actually trips."""
    if not telemetry.enabled:
        return
    telemetry.set_gauge(
        "spmd.heartbeat_stale_s.max",
        max((now - heartbeats[r] for r in live_ranks), default=0.0),
    )


@dataclass
class ElasticSPMDRunner:
    """Drive a lease ledger to completion on an elastic thread fleet.

    ``n_ranks`` threads start immediately; up to ``max_ranks`` total can
    exist over the run (the heartbeat table is pre-sized, like an MPI
    session opened with room to grow).  Faults and membership churn
    come from ``fault_plan``: ``rank``-site specs fire on a granted
    lease and are recovered by :func:`repro.core.distributed.run_lease`
    under ``retry_policy``; ``membership``-site specs fire in the
    supervisor once the solve reaches their progress-fraction trigger —
    at the latest on the pass that sees the ledger done, so a plan's
    churn lands in the call it is due however fast the ranks drain it.

    The runner is deadlock-free by construction: every lease either
    completes, expires (``ledger.ttl_s`` off a stale heartbeat), or is
    forfeited — and once no rank is left that answers (every thread
    gone, or silent past the TTL), the supervisor itself drains the
    pool inline (holder ``-1``), so :meth:`run` returns a
    fully-completed ledger unless a silent rank sits on a lease that
    cannot expire.  ``max_wall_s`` bounds that case (``None``: no cap).
    """

    n_ranks: int
    max_ranks: "int | None" = None
    max_wall_s: "float | None" = 120.0
    fault_plan: "FaultPlan | None" = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    report: FaultReport = field(default_factory=FaultReport, repr=False)

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
        fleet = _Fleet(self, ledger, search, call)
        if tel.flight is not None:
            tel.flight.set_assignments("lease", ledger.assignment_rows(call))
        with tel.span(
            "spmd.world", cat="spmd", n_ranks=self.n_ranks, elastic=True
        ):
            # An SPMD launch has every rank alive at t=0: the first
            # round is granted here, in rank order, so each initial rank
            # holds a lease (and a fault planned on it fires) however
            # fast its peers' threads drain the rest, and the launch is
            # the supervisor's first heartbeat sample, so the staleness
            # gauge is published however soon the ledger completes.
            # Joiners start empty.
            first_round = [ledger.acquire(r) for r in range(self.n_ranks)]
            for rank, lease in enumerate(first_round):
                fleet.spawn(rank, lease)
            fleet.observe(time.monotonic())
            try:
                self._supervise(fleet)
            finally:
                fleet.stop()
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

    def _supervise(self, fleet: "_Fleet") -> None:
        """Renew, expire, churn and fall back until the ledger is done;
        woken by every completion, and at least every ``_POLL_S``."""
        ledger = fleet.ledger
        started = time.monotonic()
        while True:
            fleet.progress.clear()
            now = time.monotonic()
            # Heartbeats are the renewal protocol: re-arm lease deadlines
            # off the beats, then reclaim the stale ones for survivors
            # to steal.
            ledger.sync_heartbeats(fleet.heartbeats, now)
            for lease in ledger.expire(now):
                self.report.record(
                    "hang", "rank", lease.previous_holders[-1], fleet.call,
                    "lease-expired",
                    detail=(
                        f"lease {lease.lease_id} "
                        f"[{lease.lam_start}, {lease.lam_end})"
                    ),
                )
            fleet.apply_churn()
            if ledger.done:
                return
            if self.max_wall_s is not None and now - started > self.max_wall_s:
                raise RuntimeError(
                    f"elastic world exceeded max_wall_s={self.max_wall_s}s"
                    f" with {ledger.n_leases - ledger.n_completed}"
                    " leases outstanding"
                )
            live = fleet.observe(now)
            ttl = ledger.ttl_s
            if not any(
                ttl is None or now - fleet.heartbeats[r] <= ttl for r in live
            ):
                # Nobody left who answers — every rank is gone, or
                # silent past the TTL: the driver drains the pool itself
                # (holder -1), the guaranteed fallback.
                fleet.drain_inline()
                if ledger.done:
                    continue
            fleet.progress.wait(_POLL_S)


class _Fleet:
    """One run's rank threads: their heartbeats, joins and departures."""

    def __init__(
        self, runner: ElasticSPMDRunner, ledger: LeaseLedger, search, call: int
    ) -> None:
        self.runner = runner
        self.ledger = ledger
        self.search = search
        self.call = call
        self.tel = get_telemetry()
        #: Last-beat monotonic time per rank id (a plain list: ranks
        #: never message each other during an arg-max).
        self.heartbeats = [0.0] * runner.max_ranks
        self.threads: "dict[int, threading.Thread]" = {}
        self.leaving: "dict[int, threading.Event]" = {}
        self.next_rank = runner.n_ranks
        self.stopping = threading.Event()
        #: Set on every completed lease and rank exit: wakes the supervisor.
        self.progress = threading.Event()

    def spawn(self, rank: int, lease=None) -> bool:
        """Start rank ``rank`` (on ``lease`` if the launch granted it one);
        ``False`` when the world has no room left."""
        if rank >= self.runner.max_ranks:
            return False
        self.leaving[rank] = threading.Event()
        self.heartbeats[rank] = time.monotonic()
        thread = threading.Thread(
            target=self._worker, args=(rank, lease),
            name=f"elastic-rank-{rank}", daemon=True,
        )
        self.threads[rank] = thread
        thread.start()
        return True

    def stop(self) -> None:
        self.stopping.set()
        t_end = time.monotonic() + _DRAIN_GRACE_S
        for thread in self.threads.values():
            thread.join(timeout=max(0.0, t_end - time.monotonic()))

    def observe(self, now: float) -> "list[int]":
        """Export heartbeat staleness; returns the ranks whose threads
        are alive."""
        live = [r for r, t in self.threads.items() if t.is_alive()]
        export_heartbeat_staleness(self.tel, self.heartbeats, live, now)
        return live

    def apply_churn(self) -> None:
        """Consume the membership specs that are due: a join starts fresh
        ranks, a leave asks a rank to drain."""
        plan, report = self.runner.fault_plan, self.runner.report
        if plan is None:
            return
        frac = self.ledger.completed_fraction()
        at = f"at {frac:.2f} done"
        for spec in plan.take_churn(self.call, frac):
            if spec.kind == "join":
                for _ in range(max(1, spec.target)):
                    if not self.spawn(self.next_rank):
                        break
                    report.record(
                        "join", "membership", self.next_rank, self.call,
                        "joined", detail=at,
                    )
                    self.next_rank += 1
                continue
            leaving = self.leaving.get(spec.target)
            if leaving is not None and not leaving.is_set():
                leaving.set()
                report.record(
                    "leave", "membership", spec.target, self.call, "drained",
                    detail=at,
                )

    def _worker(self, rank: int, lease) -> None:
        # Inherit the spawner's (possibly thread-scoped, per-job)
        # telemetry session so rank-side spans/counters stay on it.
        set_thread_telemetry(self.tel)
        try:
            with self.tel.span("spmd.rank", cat="spmd", rank=rank, elastic=True):
                self._rank_body(rank, lease)
        except BaseException as exc:  # noqa: BLE001 - survivable by design
            self.ledger.retire(rank)
            self.runner.report.record(
                "crash", "rank", rank, self.call, "lease-forfeit",
                detail=f"{type(exc).__name__}: {exc}",
            )
        finally:
            self.progress.set()

    def _run(self, rank: int, lease) -> bool:
        runner = self.runner
        kept = run_lease(
            self.ledger, lease, rank, self.search, runner.fault_plan,
            runner.retry_policy, runner.report, self.call,
        )
        self.progress.set()
        return kept

    def _rank_body(self, rank: int, lease) -> None:
        ledger, leaving, beats = self.ledger, self.leaving[rank], self.heartbeats
        if lease is not None:  # granted by the driver before the launch
            ledger.take_up(lease, rank)
            beats[rank] = time.monotonic()
            if not self._run(rank, lease):
                return
        while not (self.stopping.is_set() or ledger.done):
            beats[rank] = time.monotonic()
            if leaving.is_set():
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
                with self.tel.span("lease.wait", cat="spmd", rank=rank):
                    while ledger.n_available and not (
                        self.stopping.is_set() or leaving.is_set()
                        or ledger.has_work_for(rank)
                    ):
                        time.sleep(_POLL_S)
                        beats[rank] = time.monotonic()
                continue
            if not self._run(rank, lease):
                return  # retired: its leases are the survivors' now

    def drain_inline(self) -> None:
        # Dead ranks hold nothing (every exit path retires) and a silent
        # rank's reservations lapsed with its lease, so whatever nobody
        # holds is in the shared pool.
        runner = self.runner
        while (lease := self.ledger.acquire(-1)) is not None:
            run_lease(
                self.ledger, lease, -1, self.search, None,
                runner.retry_policy, runner.report, self.call,
            )
            runner.report.record(
                "crash", "rank", -1, self.call, "inline-drain",
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
    reduction_stats: "ReductionStats | None" = None,
    bounds: "BoundTable | None" = None,
    sparse: bool = False,
    max_wall_s: "float | None" = 120.0,
    call: int = 0,
    normal_hits: "NormalHitStore | None" = None,
) -> "MultiHitCombination | None":
    """One arg-max on a thread fleet of ``n_ranks`` over ``ledger``.

    The ledger decides the schedule: ``LeaseLedger.from_schedule(...)``
    is the paper's static one (each rank searches its own partitions
    unless it fails), ``LeaseLedger.build(...)`` an elastic pool, cut
    finer than one-per-rank so stealing has grain.  Give it a ``ttl_s``
    for hung ranks to be stolen from.  Whatever happens to the ranks,
    the winners fold through :meth:`LeaseLedger.merge` in lease-id
    order (``reduction_stats`` records its stages): the result is
    bit-identical to any fixed-world run over the same grid.

    ``bounds`` (a table covering the ledger's range) turns pruning on:
    each lease prunes against a copy of its slice (see
    :func:`repro.core.distributed.search_lease`), and the refreshed
    slices are written back in lease-id order once the ledger is done.
    ``normal_hits`` (a :class:`repro.core.engine.NormalHitStore`) is
    shared by every rank's unpruned scans.
    """
    refreshed: dict = {}
    search = partial(
        search_lease, scheme, tumor=tumor, normal=normal, params=params,
        bounds=bounds, refreshed=refreshed, sparse=sparse, call=call,
        normal_hits=normal_hits,
    )
    ElasticSPMDRunner(
        n_ranks=n_ranks,
        max_wall_s=max_wall_s,
        fault_plan=fault_plan,
        retry_policy=retry_policy or RetryPolicy(),
        report=report or FaultReport(),
    ).run(ledger, search, call=call)
    if counters is not None:
        ledger.merge_counters(counters)
    for lease_id in sorted(refreshed):
        bounds.write_back(refreshed[lease_id])
    with get_telemetry().span(
        "reduce", cat="spmd", leases=ledger.n_leases, call=call
    ) as sp:
        # The merge causally depends on every lease completion; these
        # edges are what let the critical path thread through the
        # slowest lease chain instead of dead-ending at the reduce.
        for ctx in ledger.completion_contexts():
            sp.link(ctx, kind="complete")
        return ledger.merge(stats=reduction_stats)
