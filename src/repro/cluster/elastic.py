"""Elastic SPMD: dynamic rank churn over a lease-based work-stealing pool.

The static :class:`repro.cluster.runtime.SPMDRunner` launches a fixed
world and, on failure, aborts and restarts it on the survivors.  The
elastic runner never aborts: ranks are threads that *pull* λ-range
leases from a shared :class:`repro.cluster.leases.LeaseLedger`, renew
them implicitly through the :class:`SimComm` heartbeat channel, and can
join or leave mid-solve:

* a **joining** rank (``FaultSpec(kind="join", site="membership")`` or a
  direct :meth:`ElasticSPMDRunner.spawn` call) registers against the
  pre-sized world and immediately starts pulling leases;
* a **leaving** rank (``kind="leave"``) drains: it finishes the lease it
  holds, then retires from the ledger;
* a **crashed** rank's leases are forfeited back to the pool and a
  **hung** rank's leases expire off its stale heartbeat — either way a
  survivor steals the range and the winner is unchanged (see the
  determinism argument in :mod:`repro.cluster.leases`).

The supervisor also exports the same ``spmd.heartbeat_stale_s.*``
gauges as the static runner (cleared at world start, and re-keyed as
membership changes) and, when an :class:`AutoscalePolicy` is attached,
publishes its grow/shrink recommendation every poll.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.bitmatrix.matrix import BitMatrix
from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.comm import SimComm, SimCommWorld
from repro.cluster.leases import LeaseLedger
from repro.core.bounds import BoundTable
from repro.core.combination import MultiHitCombination
from repro.core.distributed import search_lease
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.faults.plan import FaultInjected, FaultPlan
from repro.faults.report import FaultReport
from repro.telemetry.session import get_telemetry, set_thread_telemetry

__all__ = ["ElasticSPMDRunner", "elastic_spmd_best_combo"]


@dataclass
class ElasticSPMDRunner:
    """Drive a lease ledger to completion on an elastic thread fleet.

    ``n_ranks`` threads start immediately; up to ``max_ranks`` total can
    exist over the run (the SimComm world's mailbox/heartbeat fabric is
    pre-sized, like an MPI session opened with room to grow).  Faults
    and membership churn come from ``fault_plan``: ``rank``-site specs
    fire in the rank bodies (crash/hang/straggler), ``membership``-site
    specs fire in the supervisor once the solve reaches their
    progress-fraction trigger.

    The runner is deadlock-free by construction: every lease either
    completes, expires (TTL off a stale heartbeat), or is forfeited —
    and if the whole fleet dies, the supervisor itself drains the
    remaining leases inline (holder ``-1``), so :meth:`run` always
    returns a fully-completed ledger within ``max_wall_s``.
    """

    n_ranks: int
    max_ranks: "int | None" = None
    lease_ttl_s: float = 0.5
    recv_timeout_s: float = 60.0
    poll_s: float = 0.01
    drain_grace_s: float = 2.0
    max_wall_s: float = 120.0
    fault_plan: "FaultPlan | None" = None
    report: FaultReport = field(default_factory=FaultReport, repr=False)
    autoscale: "AutoscalePolicy | None" = None
    # Optional cooperative stop: polled by the supervisor loop alongside
    # the max_wall_s deadline (same mechanism as MultiHitSolver.solve's
    # should_stop).  When it fires, the run aborts with the leases still
    # outstanding reported — the gateway uses this to bound runaway jobs.
    should_stop: "object | None" = None

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("need at least one rank")
        if self.max_ranks is None:
            self.max_ranks = 2 * self.n_ranks + 2
        if self.max_ranks < self.n_ranks:
            raise ValueError("max_ranks must be >= n_ranks")

    def run(self, ledger: LeaseLedger, search, call: int = 0) -> None:
        """Pull every lease through ``search(lease, rank)`` to completion.

        ``search`` returns ``(winner, counters)`` for the lease's λ-range
        and must be thread-safe across distinct leases.  On return the
        ledger is fully completed; merge/counters are the caller's.
        """
        tel = get_telemetry()
        tel.clear_gauges("spmd.heartbeat_stale_s.")
        world = SimCommWorld(
            self.max_ranks,
            recv_timeout_s=self.recv_timeout_s,
            fault_plan=self.fault_plan,
        )
        stop = threading.Event()
        threads: "dict[int, threading.Thread]" = {}
        leave_events: "dict[int, threading.Event]" = {}
        crashed: "set[int]" = set()
        lock = threading.Lock()

        def worker(rank: int) -> None:
            # Inherit the spawner's (possibly thread-scoped, per-job)
            # telemetry session so rank-side spans/counters stay on it.
            set_thread_telemetry(tel)
            comm = SimComm(world, rank)
            comm.heartbeat()
            try:
                with tel.span("spmd.rank", cat="spmd", rank=rank, elastic=True):
                    self._rank_body(
                        comm, rank, ledger, search, stop,
                        leave_events[rank], call,
                    )
            except BaseException as exc:  # noqa: BLE001 - survivable by design
                with lock:
                    crashed.add(rank)
                ledger.retire(rank)
                self.report.record(
                    "crash", "rank", rank, call, "lease-forfeit",
                    detail=f"{type(exc).__name__}: {exc}",
                )
                if tel.flight is not None:
                    tel.flight.note(
                        "lease", event="rank-crashed", rank=rank, call=call
                    )

        def spawn(rank: int) -> None:
            leave_events[rank] = threading.Event()
            t = threading.Thread(
                target=worker, args=(rank,), name=f"elastic-rank-{rank}",
                daemon=True,
            )
            threads[rank] = t
            world.heartbeats[rank] = time.monotonic()
            t.start()

        if tel.flight is not None:
            tel.flight.set_assignments("lease", ledger.assignment_rows(call))
        with tel.span(
            "spmd.world", cat="spmd", n_ranks=self.n_ranks, elastic=True
        ):
            for r in range(self.n_ranks):
                spawn(r)
            next_rank = self.n_ranks
            deadline = time.monotonic() + self.max_wall_s
            try:
                while not ledger.done:
                    now = time.monotonic()
                    stopped = (
                        self.should_stop is not None and self.should_stop()
                    )
                    if now > deadline or stopped:
                        reason = (
                            "should_stop fired" if stopped else
                            f"exceeded max_wall_s={self.max_wall_s}s"
                        )
                        raise RuntimeError(
                            f"elastic world {reason} with "
                            f"{ledger.n_available + ledger.n_granted} "
                            "leases outstanding"
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
                    self._export_liveness(tel, world, threads, now)
                    next_rank = self._apply_churn(
                        ledger, threads, leave_events, spawn, next_rank, call,
                        tel,
                    )
                    if self.autoscale is not None:
                        self._sample_autoscale(tel, world, threads, now)
                    if not any(t.is_alive() for t in threads.values()):
                        # Whole fleet gone: the driver drains the pool
                        # itself (holder -1), the guaranteed fallback.
                        self._drain_inline(ledger, search, call)
                        break
                    time.sleep(self.poll_s)
            finally:
                stop.set()
                for ev in leave_events.values():
                    ev.set()
                t_end = time.monotonic() + self.drain_grace_s
                for t in threads.values():
                    t.join(timeout=max(0.0, t_end - time.monotonic()))
        # Stragglers resurfacing after a steal leave duplicates behind;
        # the run-level dump shows the full churn trail when anything
        # was stolen or forfeited.
        if tel.flight is not None:
            tel.flight.set_assignments("lease", ledger.assignment_rows(call))
            if ledger.n_steals or ledger.n_forfeited or crashed:
                tel.flight.dump(
                    "lease-churn", telemetry=tel, fault_report=self.report
                )

    # -- rank body -----------------------------------------------------

    def _rank_body(
        self, comm, rank, ledger, search, stop, leave, call
    ) -> None:
        tel = get_telemetry()
        while not stop.is_set():
            comm.heartbeat()
            if leave.is_set():
                # Graceful departure: nothing held here (between leases),
                # so retiring forfeits nothing — the drain semantics.
                ledger.retire(rank)
                return
            lease = ledger.acquire(rank)
            if lease is None:
                if ledger.done or rank not in self._live_holders(ledger, rank):
                    return
                # Idle until work reappears (an expiry puts a stolen
                # lease back in the pool): one lease.wait span per
                # waiting stretch, not per poll tick.
                with tel.span("lease.wait", cat="spmd", rank=rank):
                    while True:
                        time.sleep(self.poll_s)
                        if ledger.done or stop.is_set() or leave.is_set():
                            break
                        comm.heartbeat()
                        if (
                            ledger.n_available
                            or rank not in self._live_holders(ledger, rank)
                        ):
                            break
                continue
            spec = (
                self.fault_plan.take("rank", rank, call)
                if self.fault_plan is not None
                else None
            )
            if spec is not None and spec.kind == "crash":
                raise FaultInjected(f"injected crash on elastic rank {rank}")
            if spec is not None and spec.kind in ("hang", "straggler"):
                # A hang outlives the lease TTL (no heartbeats while
                # sleeping), so the lease expires and is stolen; the
                # rank eventually resurfaces and its completion is
                # dropped as a duplicate.  A straggler finishes late
                # but inside the TTL.  The stall is spanned as comm
                # time: a real straggler manifests as a rank gone
                # silent on the wire, and attribution needs the wait
                # on *somebody's* timeline to explain the lost time.
                with tel.span(
                    "comm.stall", cat="comm", rank=rank,
                    kind=spec.kind, delay_s=spec.delay_s,
                ):
                    time.sleep(spec.delay_s)
                if spec.kind == "straggler":
                    self.report.record(
                        "straggler", "rank", rank, call, "observed",
                        detail=f"{spec.delay_s:.3f}s",
                    )
            comm.heartbeat()
            winner, counters = search(lease, rank)
            comm.heartbeat()
            ledger.complete(lease.lease_id, rank, winner, counters=counters)

    @staticmethod
    def _live_holders(ledger, rank) -> "set[int]":
        # A rank with nothing to acquire only lingers while grants are
        # still outstanding (one may expire back to the pool); once the
        # pool is drained and no lease is granted, it can exit.
        holders = ledger.holders()
        if ledger.n_available:
            holders.add(rank)
        return holders

    # -- supervisor pieces ---------------------------------------------

    def _apply_churn(
        self, ledger, threads, leave_events, spawn, next_rank, call, tel
    ) -> int:
        if self.fault_plan is None:
            return next_rank
        frac = ledger.completed_fraction()
        for spec in self.fault_plan.take_churn(call, frac):
            if spec.kind == "join":
                n = max(1, spec.target)
                for _ in range(n):
                    if next_rank >= self.max_ranks:
                        break
                    spawn(next_rank)
                    self.report.record(
                        "join", "membership", next_rank, call, "joined",
                        detail=f"at {frac:.2f} done",
                    )
                    if tel.flight is not None:
                        tel.flight.note(
                            "lease", event="rank-joined", rank=next_rank,
                            fraction=round(frac, 3), call=call,
                        )
                    next_rank += 1
            else:  # leave
                ev = leave_events.get(spec.target)
                if ev is not None and not ev.is_set():
                    ev.set()
                    self.report.record(
                        "leave", "membership", spec.target, call, "drained",
                        detail=f"at {frac:.2f} done",
                    )
                    if tel.flight is not None:
                        tel.flight.note(
                            "lease", event="rank-left", rank=spec.target,
                            fraction=round(frac, 3), call=call,
                        )
        return next_rank

    def _export_liveness(self, tel, world, threads, now) -> None:
        if not tel.enabled:
            return
        tel.clear_gauges("spmd.heartbeat_stale_s.")
        stalest = 0.0
        for r, t in threads.items():
            if not t.is_alive():
                continue
            stale = now - world.heartbeats[r]
            stalest = max(stalest, stale)
            tel.set_gauge(f"spmd.heartbeat_stale_s.rank{r}", stale)
        tel.set_gauge("spmd.heartbeat_stale_s.max", stalest)

    def _sample_autoscale(self, tel, world, threads, now) -> None:
        live = [r for r, t in threads.items() if t.is_alive()]
        stale = {r: now - world.heartbeats[r] for r in live}
        eta = tel.metrics.gauges.get("progress.eta_s") if tel.enabled else None
        self.autoscale.recommend(
            len(live), eta_s=eta, heartbeat_stale_s=stale
        )

    def _drain_inline(self, ledger, search, call) -> None:
        while True:
            ledger.expire(time.monotonic() + 2 * (self.lease_ttl_s or 0.0) + 1.0)
            lease = ledger.acquire(-1)
            if lease is None:
                if ledger.done:
                    return
                continue
            winner, counters = search(lease, -1)
            ledger.complete(lease.lease_id, -1, winner, counters=counters)
            self.report.record(
                "crash", "rank", -1, call, "inline-drain",
                detail=f"lease {lease.lease_id} recovered by driver",
            )


def elastic_spmd_best_combo(
    scheme,
    g: int,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    n_ranks: int,
    n_leases: "int | None" = None,
    fault_plan: "FaultPlan | None" = None,
    report: "FaultReport | None" = None,
    counters: "KernelCounters | None" = None,
    bounds: "BoundTable | None" = None,
    iteration: int = 0,
    memory=None,
    lease_ttl_s: float = 0.5,
    max_wall_s: float = 120.0,
    autoscale: "AutoscalePolicy | None" = None,
    call: int = 0,
) -> "MultiHitCombination | None":
    """One arg-max on an elastic thread fleet with work stealing.

    Builds a ledger of ``n_leases`` equi-area λ-range leases (default
    ``4 * n_ranks`` — finer than one-per-rank so stealing has grain),
    runs it to completion under churn, and merges in lease order: the
    winner is bit-identical to any fixed-world run over the same grid.

    ``bounds`` keeps CELF pruning on: each lease prunes against its
    slice of the table (see :func:`repro.core.distributed.search_lease`)
    and folds its refreshed bounds back under a lock.
    """
    if n_leases is None:
        n_leases = 4 * n_ranks
    ledger = LeaseLedger.build(scheme, g, n_leases, ttl_s=lease_ttl_s)
    fold_lock = threading.Lock()

    def search(lease, rank):
        return search_lease(
            scheme, lease, rank, tumor, normal, params,
            bounds=bounds, iteration=iteration, memory=memory, call=call,
            fold_lock=fold_lock,
        )

    runner = ElasticSPMDRunner(
        n_ranks=n_ranks,
        lease_ttl_s=lease_ttl_s,
        max_wall_s=max_wall_s,
        fault_plan=fault_plan,
        autoscale=autoscale,
    )
    if report is not None:
        runner.report = report
    runner.run(ledger, search, call=call)
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
