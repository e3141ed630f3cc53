"""The rank fleet: ranks pull leases off one ledger.

:func:`spmd_best_combo` runs an arg-max over a ready
:class:`repro.cluster.leases.LeaseLedger` — cut at a schedule's
partition boundaries for the paper's static schedule, or ``build`` for
finer equi-area leases — on :class:`ElasticSPMDRunner`, the one driver
of a ledger.  The one fan-out engine,
:class:`repro.core.distributed.DistributedEngine`, calls it once per
greedy iteration with the paper's static schedule or elastic leases:
over ``n_nodes`` ranks for ``backend="distributed"``, and over
``n_workers`` ranks of one partition each for ``backend="pool"``.
Every rank is a thread that pulls the lowest free lease, scans it
in-thread with ``search_lease`` and recovers with ``run_lease`` (the
one recovery rule) from :mod:`repro.core.distributed`; a rank that
finds the pool empty exits.

The fleet never aborts.  Ranks *pull* leases (no message is sent
during an arg-max) and can join or leave mid-solve: a **joining** rank
starts pulling; a **leaving** rank finishes the lease it holds, then
retires; a **crashed** rank retries in place under the policy, then is
retired and forfeits the lease it holds; a **hung** rank really goes
silent, so its lease expires once the ledger's TTL, armed when the rank
took it, passes.  Either way a survivor still pulling, or the driver,
steals the range and the winner is unchanged (see the determinism
argument in :mod:`repro.cluster.leases`).  A rank's heartbeat, beaten
between leases, only feeds the staleness gauge and the supervisor's
test of whether anybody still answers.
Joins and leaves come only from the fault plan's ``membership`` specs:
as on an allocation, nothing resizes the fleet at run time.  This is
the only rank runner: the paper's Section III-E reduce of the ranks'
candidates is :meth:`LeaseLedger.merge`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial

from repro.bitmatrix.matrix import BitMatrix
from repro.cluster.leases import LeaseLedger
from repro.core.combination import MultiHitCombination
from repro.core.distributed import run_lease, search_lease
from repro.core.engine import NormalHitStore
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.faults.report import FaultReport
from repro.scheduling.schemes import Scheme
from repro.telemetry.session import get_telemetry, set_thread_telemetry

__all__ = ["ElasticSPMDRunner", "spmd_best_combo"]

#: Supervisor poll period.
_POLL_S = 0.01
#: How long :meth:`ElasticSPMDRunner.run` waits for rank threads to
#: unwind once the ledger is done before abandoning them (daemonic).
_DRAIN_GRACE_S = 2.0


@dataclass
class ElasticSPMDRunner:
    """Drive a lease ledger to completion on an elastic thread fleet.

    ``n_ranks`` threads start immediately; up to :attr:`max_ranks`
    (``2 * n_ranks + 2``) total can exist over the run (the heartbeat
    table is pre-sized, like an MPI session opened with room to grow).
    Faults and membership churn come from ``fault_plan``: ``rank``-site
    specs fire on a granted lease and are recovered by
    :func:`repro.core.distributed.run_lease` under ``retry_policy``;
    ``membership``-site specs fire in the supervisor once the solve
    reaches their progress-fraction trigger —
    at the latest on the pass that sees the ledger done, so a plan's
    churn lands in the call it is due however fast the ranks drain it.

    The runner is deadlock-free by construction: every lease either
    completes, expires (``ledger.ttl_s`` after its holder took it), or
    is forfeited — and once no rank is left that answers (every thread
    gone, or silent past the TTL), the supervisor itself drains the
    pool inline (holder ``-1``), so :meth:`run` returns a
    fully-completed ledger unless a silent rank sits on a lease that
    cannot expire.  ``max_wall_s`` bounds that case (``None``: no cap).
    A run's threads and heartbeats live on the runner: one ledger at a
    time.
    """

    n_ranks: int
    max_wall_s: "float | None" = 120.0
    fault_plan: "FaultPlan | None" = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    report: FaultReport = field(default_factory=FaultReport, repr=False)

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("need at least one rank")

    @property
    def max_ranks(self) -> int:
        """Ranks the world has room for: launch plus joiners."""
        return 2 * self.n_ranks + 2

    def run(self, ledger: LeaseLedger, search, call: int = 0) -> None:
        """Pull every lease through ``search`` to completion.

        ``search(lease, rank, stall_s=)`` returns ``(winner, counters)``
        for the lease's λ-range and must be thread-safe across distinct
        leases.  On return the ledger is fully completed and the moved
        leases are in ``report``; merge/counters are the caller's.
        """
        tel = self.tel = get_telemetry()
        self.ledger, self.search, self.call = ledger, search, call
        #: Last-beat monotonic time per rank id (a plain list: ranks
        #: never message each other during an arg-max).
        self.heartbeats = [0.0] * self.max_ranks
        self.threads: "dict[int, threading.Thread]" = {}
        self.leaving: "dict[int, threading.Event]" = {}
        self.stopping = threading.Event()
        #: Set on every completed lease and rank exit: wakes the supervisor.
        self.progress = threading.Event()
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
                self._spawn(rank, lease)
            self._observe(time.monotonic())
            try:
                self._supervise()
            finally:
                self.stopping.set()
                t_end = time.monotonic() + _DRAIN_GRACE_S
                for thread in self.threads.values():
                    thread.join(timeout=max(0.0, t_end - time.monotonic()))
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

    def _supervise(self) -> None:
        """Expire, churn and fall back until the ledger is done; woken
        by every completion, and at least every ``_POLL_S``."""
        ledger = self.ledger
        started = time.monotonic()
        while True:
            self.progress.clear()
            now = time.monotonic()
            # Reclaim leases held past their TTL for survivors to steal.
            for lease in ledger.expire(now):
                self.report.record(
                    "hang", "rank", lease.previous_holders[-1], self.call,
                    "lease-expired",
                    detail=(
                        f"lease {lease.lease_id} "
                        f"[{lease.lam_start}, {lease.lam_end})"
                    ),
                )
            self._apply_churn()
            if ledger.done:
                return
            if self.max_wall_s is not None and now - started > self.max_wall_s:
                raise RuntimeError(
                    f"elastic world exceeded max_wall_s={self.max_wall_s}s"
                    f" with {ledger.n_leases - ledger.n_completed}"
                    " leases outstanding"
                )
            live = self._observe(now)
            ttl = ledger.ttl_s
            if not any(
                ttl is None or now - self.heartbeats[r] <= ttl for r in live
            ):
                # Nobody left who answers — every rank is gone, or
                # silent past the TTL: the driver drains the pool itself
                # (holder -1), the guaranteed fallback.
                self._drain_inline()
                if ledger.done:
                    continue
            self.progress.wait(_POLL_S)

    def _observe(self, now: float) -> "list[int]":
        """Publish ``spmd.heartbeat_stale_s.max``, the stalest live
        rank's silence (a rank that finished or left no longer counts),
        which the progress monitor reads to flag a world gone quiet
        before any deadline trips; returns the live ranks."""
        live = [r for r, t in self.threads.items() if t.is_alive()]
        self.tel.set_gauge(
            "spmd.heartbeat_stale_s.max",
            max((now - self.heartbeats[r] for r in live), default=0.0),
        )
        return live

    def _spawn(self, rank: int, lease=None) -> bool:
        """Start rank ``rank`` (on ``lease`` if the launch granted it one);
        ``False`` when the world has no room left."""
        if rank >= self.max_ranks:
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

    def _apply_churn(self) -> None:
        """Consume the membership specs that are due: a join starts fresh
        ranks, a leave asks a rank to drain."""
        plan, report = self.fault_plan, self.report
        if plan is None:
            return
        frac = self.ledger.completed_fraction()
        at = f"at {frac:.2f} done"
        for spec in plan.take_churn(self.call, frac):
            if spec.kind == "join":
                for _ in range(max(1, spec.target)):
                    rank = len(self.threads)  # ranks are numbered in order
                    if not self._spawn(rank):
                        break
                    report.record(
                        "join", "membership", rank, self.call, "joined",
                        detail=at,
                    )
                continue
            leaving = self.leaving.get(spec.target)
            if leaving is not None and not leaving.is_set():
                leaving.set()
                report.record(
                    "leave", "membership", spec.target, self.call, "drained",
                    detail=at,
                )

    def _drain_inline(self) -> None:
        # Dead ranks hold nothing (every exit path retires), so whatever
        # nobody holds is in the pool.  No fault is injected on the
        # driver (``run_lease`` takes none for holder -1).
        while (lease := self.ledger.acquire(-1)) is not None:
            self._run_lease(-1, lease)
            self.report.record(
                "crash", "rank", -1, self.call, "inline-drain",
                detail=f"lease {lease.lease_id} recovered by driver",
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
            self.report.record(
                "crash", "rank", rank, self.call, "lease-forfeit",
                detail=f"{type(exc).__name__}: {exc}",
            )
        finally:
            self.progress.set()

    def _run_lease(self, rank: int, lease) -> bool:
        kept = run_lease(
            self.ledger, lease, rank, self.search, self.fault_plan,
            self.retry_policy, self.report, self.call,
        )
        self.progress.set()
        return kept

    def _rank_body(self, rank: int, lease) -> None:
        ledger, leaving, beats = self.ledger, self.leaving[rank], self.heartbeats
        if lease is not None:  # granted by the driver before the launch
            ledger.take_up(lease, rank)
            if not self._run_lease(rank, lease):
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
                # Pool drained.  What is still granted is its holder's to
                # finish; if that holder goes silent the expired lease
                # falls to whoever is still pulling, or to the driver.
                return
            if not self._run_lease(rank, lease):
                return  # retired: its lease is the survivors' now


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
    max_wall_s: "float | None" = 120.0,
    call: int = 0,
    normal_hits: "NormalHitStore | None" = None,
) -> "MultiHitCombination | None":
    """One arg-max on a thread fleet of ``n_ranks`` over ``ledger``.

    The ledger decides the schedule (a static schedule's partitions or
    finer ``build`` cuts; a ``ttl_s`` lets survivors steal from hung
    ranks).  Whatever happens to the ranks, the winners fold through
    :meth:`LeaseLedger.merge` in lease-id order: the result is
    bit-identical to any fixed-world run over the same grid.

    ``normal_hits`` (a :class:`repro.core.engine.NormalHitStore`) is
    shared by every rank's scans.
    """
    search = partial(
        search_lease, scheme, tumor=tumor, normal=normal, params=params,
        call=call, normal_hits=normal_hits,
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
    with get_telemetry().span(
        "reduce", cat="spmd", leases=ledger.n_leases, call=call
    ) as sp:
        # The merge causally depends on every lease completion; these
        # edges are what let the critical path thread through the
        # slowest lease chain instead of dead-ending at the reduce.
        for ctx in ledger.completion_contexts():
            sp.link(ctx, kind="complete")
        return ledger.merge()
