"""The MPI rank program: the paper's per-node code path under SimComm.

Each rank searches its six GPU partitions (kernel + on-rank reduction),
then participates in a deterministic reduce of the single 20-byte
candidate to rank 0, which broadcasts the winner back — exactly the
communication structure of Section III-E.  Runs under the thread-backed
:class:`SimComm` (``SPMDRunner(n).run(rank_program, ...)``); swapping in
mpi4py's communicator would port it to a real cluster unchanged.

This is the failure-free **reference** body, kept the way
``sequential_best_combo`` is: it has no recovery story (the paper has
none), so a dead rank or a dropped message fails the world fast with
:class:`repro.cluster.runtime.RankFailedError`.  The fault-tolerant
fleet — :func:`repro.cluster.elastic.spmd_best_combo`, ranks pulling
pinned leases off a ledger — is tested against it.
"""

from __future__ import annotations

from repro.bitmatrix.matrix import BitMatrix
from repro.cluster.comm import SimComm
from repro.core.combination import MultiHitCombination, better
from repro.core.engine import best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.reduction import multi_stage_reduce
from repro.scheduling.schedule import Schedule
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.session import get_telemetry

__all__ = ["rank_program"]

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


def rank_program(
    comm: SimComm,
    schedule: Schedule,
    gpus_per_rank: int,
    tumor: BitMatrix,
    normal: BitMatrix,
    params: FScoreParams,
) -> "MultiHitCombination | None":
    """One MPI rank's greedy-iteration body; every rank returns the winner.

    Each of the rank's partitions is one local GPU's thread range; the
    per-GPU winners are reduced on-rank, so only one candidate leaves
    the rank.
    """
    telemetry = get_telemetry()
    rank = comm.Get_rank()
    rank_counters = KernelCounters() if telemetry.enabled else None
    with telemetry.span("rank.search", cat="spmd", rank=rank):
        local = multi_stage_reduce(
            [
                best_in_thread_range(
                    schedule.scheme, schedule.g, tumor, normal, params,
                    *schedule.thread_range(part), counters=rank_counters,
                )
                for part in schedule.rank_partitions(rank, gpus_per_rank)
            ]
        )
    winner = comm.reduce(local, op=better, root=0)
    winner = comm.bcast(winner, root=0)
    if telemetry.enabled:
        registry = MetricsRegistry()
        registry.inc("spmd.rank_searches")
        registry.absorb_kernel_counters(rank_counters, prefix="kernel")
        _merge_rank_telemetry(comm, registry)
    return winner
