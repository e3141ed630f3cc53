"""The MPI rank program: the paper's per-node code path under SimComm.

Each rank searches its six GPU partitions (kernel + on-rank reduction),
then participates in a deterministic reduce of the single 20-byte
candidate to rank 0, which broadcasts the winner back — exactly the
communication structure of Section III-E.  Runs under the thread-backed
:class:`SimComm`; swapping in mpi4py's communicator would port it to a
real cluster unchanged.

Fault tolerance (:func:`spmd_best_combo`): a failed run surfaces as
:class:`RankFailedError` naming the dead ranks; the driver hands each
dead rank's partitions whole, round-robin, to the survivors — the move
the lease ledger makes when it unpins a retired rank's leases — and
relaunches the SPMD world on the survivors only, each now searching its
original partitions **plus** the ones it inherited.  Because every
candidate flows through the same total-order reduction, the recovered
winner is bit-identical to the failure-free one.  A
:class:`repro.faults.FaultPlan` injects rank crashes / hangs /
stragglers and recv drops/delays deterministically.
"""

from __future__ import annotations

import time

from repro.bitmatrix.matrix import BitMatrix
from repro.cluster.comm import SimComm
from repro.cluster.runtime import RankFailedError, SPMDRunner
from repro.core.combination import MultiHitCombination, better
from repro.core.engine import best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.reduction import multi_stage_reduce
from repro.faults.plan import FaultInjected, FaultPlan
from repro.faults.policy import RetryPolicy
from repro.faults.report import FaultReport
from repro.scheduling.schedule import Schedule
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.session import get_telemetry

__all__ = ["rank_best_combo", "rank_program", "spmd_best_combo"]

# Tag reserved for the telemetry gather so it can never collide with the
# reduce/bcast tags of the winner protocol (0 and 1).
_TELEMETRY_TAG = 7771


def _merge_rank_telemetry(comm: SimComm, registry: MetricsRegistry) -> None:
    """Gather every rank's metrics registry to rank 0 and merge there.

    Runs only when telemetry is enabled; all ranks reach it (the enabled
    flag is process-global, so the collective cannot half-fire).  Rank 0
    folds the per-rank registries into the session registry in rank
    order — deterministic, like every other collective here.
    """
    telemetry = get_telemetry()
    states = comm.gather(registry.to_dict(), root=0, tag=_TELEMETRY_TAG)
    if states is not None:
        for state in states:
            telemetry.metrics.merge_dict(state)


def rank_best_combo(
    schedule: Schedule,
    parts: "list[int]",
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    counters: "KernelCounters | None" = None,
) -> "MultiHitCombination | None":
    """Search partitions ``parts`` of the schedule, one after the other.

    Each partition is one local GPU's thread range; the per-GPU winners
    are reduced on-rank, so only one candidate leaves the rank.
    """
    return multi_stage_reduce(
        [
            best_in_thread_range(
                schedule.scheme, schedule.g, tumor, normal, params,
                *schedule.thread_range(part), counters=counters,
            )
            for part in parts
        ]
    )


def rank_program(
    comm: SimComm,
    schedule: Schedule,
    gpus_per_rank: int,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
) -> "MultiHitCombination | None":
    """One MPI rank's greedy-iteration body; every rank returns the winner.

    The failure-free case of :func:`_ft_rank_program`: every rank live,
    nothing inherited, nothing injected.
    """
    return _ft_rank_program(
        comm, schedule, gpus_per_rank, list(range(comm.Get_size())), {},
        tumor, normal, params, None, 0,
    )


def _ft_rank_program(
    comm: SimComm,
    schedule: Schedule,
    gpus_per_rank: int,
    live_ranks: "list[int]",
    extra: "dict[int, list[int]]",
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    fault_plan: "FaultPlan | None",
    call: int,
) -> "MultiHitCombination | None":
    """Recovery-aware rank body: original partitions + inherited ones.

    ``live_ranks[comm.Get_rank()]`` is the rank's identity in the
    *original* schedule; ``extra[orig]`` holds the partitions inherited
    from dead ranks.
    """
    telemetry = get_telemetry()
    orig = live_ranks[comm.Get_rank()]
    if fault_plan is not None:
        spec = fault_plan.take("rank", orig, call)
        if spec is not None:
            if spec.kind == "crash":
                raise FaultInjected(f"injected crash on rank {orig}")
            if spec.kind in ("hang", "straggler"):
                # A hang trips the heartbeat/recv deadline; a straggler
                # merely finishes late.
                time.sleep(spec.delay_s)
    rank_counters = KernelCounters() if telemetry.enabled else None
    inherited = extra.get(orig, [])
    with telemetry.span("rank.search", cat="spmd", rank=orig, call=call):
        local = rank_best_combo(
            schedule, schedule.rank_partitions(orig, gpus_per_rank) + inherited,
            tumor, normal, params, counters=rank_counters,
        )
    winner = comm.reduce(local, op=better, root=0)
    winner = comm.bcast(winner, root=0)
    if telemetry.enabled:
        registry = MetricsRegistry()
        registry.inc("spmd.rank_searches")
        registry.inc("spmd.extra_ranges", len(inherited))
        registry.absorb_kernel_counters(rank_counters, prefix="kernel")
        _merge_rank_telemetry(comm, registry)
    return winner


def _check_agreement(results: "list") -> "MultiHitCombination | None":
    first = results[0]
    for r in results[1:]:
        if (r is None) != (first is None) or (
            r is not None and (r.genes != first.genes or r.f != first.f)
        ):
            raise AssertionError(f"ranks disagree on the winner: {first} vs {r}")
    return first


def spmd_best_combo(
    n_ranks: int,
    schedule: Schedule,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
    gpus_per_rank: int = 6,
    fault_plan: "FaultPlan | None" = None,
    retry_policy: "RetryPolicy | None" = None,
    report: "FaultReport | None" = None,
    recv_timeout_s: float = 60.0,
    heartbeat_timeout_s: "float | None" = None,
    call: int = 0,
) -> "MultiHitCombination | None":
    """Run one distributed arg-max as a real SPMD program on ``n_ranks``.

    All ranks must agree on the winner (asserted); returns it.

    If ranks fail, the run is restarted on the survivors with the dead
    ranks' partitions dealt round-robin among them; up to
    ``1 + retry_policy.resubmits`` recovery restarts are attempted
    (with the policy's backoff) before the last failure propagates.
    ``heartbeat_timeout_s`` should be set below ``recv_timeout_s`` so a
    hung rank is named by the detector before its peers time out.
    """
    policy = retry_policy or RetryPolicy()
    if report is None:
        report = FaultReport()
    live = list(range(n_ranks))
    extra: "dict[int, list[int]]" = {r: [] for r in live}
    restarts = 0
    while True:
        runner = SPMDRunner(
            len(live),
            recv_timeout_s=recv_timeout_s,
            heartbeat_timeout_s=heartbeat_timeout_s,
            fault_plan=fault_plan,
        )
        try:
            results = runner.run(
                _ft_rank_program,
                schedule,
                gpus_per_rank,
                live,
                extra,
                tumor,
                normal,
                params,
                fault_plan,
                call,
            )
            return _check_agreement(results)
        except RankFailedError as err:
            dead_local = set(err.failed_ranks)
            dead = sorted(live[i] for i in dead_local)
            survivors = [r for i, r in enumerate(live) if i not in dead_local]
            for i, exc in err.failures:
                report.record(
                    "hang" if isinstance(exc, TimeoutError) else "crash",
                    "rank",
                    live[i],
                    call,
                    "detected",
                    attempt=restarts + 1,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            if not survivors or restarts >= 1 + policy.resubmits:
                raise
            restarts += 1
            policy.sleep_before(restarts)
            # Dead ranks' partitions — their own and any they had already
            # inherited — move whole, round-robin, to the survivors.
            new_extra = {r: list(extra[r]) for r in survivors}
            moved = 0
            for r in dead:
                for part in schedule.rank_partitions(r, gpus_per_rank) + extra[r]:
                    lo, hi = schedule.thread_range(part)
                    if hi <= lo:  # tiny grids leave empty partitions
                        continue
                    survivor = survivors[moved % len(survivors)]
                    moved += 1
                    new_extra[survivor].append(part)
                    report.record_reschedule(
                        dead_rank=part // gpus_per_rank,
                        survivor=survivor,
                        lam_start=lo,
                        lam_end=hi,
                        call=call,
                    )
            report.record(
                "crash", "rank", dead[0], call, "restarted",
                attempt=restarts,
                detail=f"world restarted on {len(survivors)} survivors",
            )
            telemetry = get_telemetry()
            if telemetry.flight is not None:
                # Post-reschedule black box: the assignments section now
                # names each survivor's inherited λ-ranges, so the dump
                # answers "who picked up the dead ranks' work".
                telemetry.flight.set_assignments(
                    "spmd",
                    [
                        {
                            "survivor": r,
                            "extra_ranges": [
                                {"lam_start": lo, "lam_end": hi}
                                for lo, hi in map(
                                    schedule.thread_range, new_extra[r]
                                )
                            ],
                            "call": call,
                        }
                        for r in survivors
                    ],
                )
                telemetry.flight.dump(
                    "rank-restart", exc=err, telemetry=telemetry,
                    fault_report=report,
                )
            live = survivors
            extra = new_extra
