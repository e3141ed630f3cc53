"""The SPMD rank program (the paper's reference body) and the fleet agree.

``rank_program`` under ``SPMDRunner`` is Section III-E as written: each
rank searches its own partitions, one candidate per rank is reduced to
the root and broadcast back.  The fault-tolerant fleet runs the same
static schedule as pinned leases; both must return the winner of the
single-GPU engine.
"""

import pytest

from repro.bitmatrix.matrix import BitMatrix
from repro.cluster import LeaseLedger, SPMDRunner, rank_program, spmd_best_combo
from repro.core.engine import SingleGpuEngine
from repro.core.fscore import FScoreParams
from repro.scheduling.equiarea import equiarea_schedule
from repro.scheduling.equidistance import equidistance_schedule
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1


@pytest.fixture
def instance(rng):
    t = rng.random((16, 40)) < 0.35
    n = rng.random((16, 30)) < 0.15
    return (
        BitMatrix.from_dense(t),
        BitMatrix.from_dense(n),
        FScoreParams(n_tumor=40, n_normal=30),
    )


def _three_ways(instance, schedule, n_ranks, gpus_per_rank):
    """(every rank's reference result, the fleet's, the single engine's)."""
    tumor, normal, params = instance
    per_rank = SPMDRunner(n_ranks, recv_timeout_s=10.0).run(
        rank_program, schedule, gpus_per_rank, tumor, normal, params
    )
    fleet = spmd_best_combo(
        LeaseLedger.from_schedule(schedule, gpus_per_rank),
        schedule.scheme, tumor, normal, params, n_ranks,
    )
    single = SingleGpuEngine(scheme=schedule.scheme).best_combo(
        tumor, normal, params
    )
    return per_rank, fleet, single


class TestSpmdSolve:
    @pytest.mark.parametrize("n_ranks,gpr", [(1, 6), (2, 3), (4, 2)])
    def test_matches_single_engine(self, instance, n_ranks, gpr):
        schedule = equiarea_schedule(SCHEME_3X1, 16, n_ranks * gpr)
        per_rank, fleet, single = _three_ways(instance, schedule, n_ranks, gpr)
        assert per_rank[0] == fleet == single

    def test_equidistance_schedule_same_winner(self, instance):
        schedule = equidistance_schedule(SCHEME_2X2, 16, 6)
        per_rank, fleet, single = _three_ways(instance, schedule, 3, 2)
        assert per_rank[0] == fleet == single

    def test_all_ranks_agree(self, instance):
        # More partitions than the grid has threads: empty partitions
        # contribute ``None`` to the on-rank reduce and make no lease.
        schedule = equiarea_schedule(SCHEME_3X1, 16, 800)
        assert any(lo == hi for lo, hi in map(schedule.thread_range, range(800)))
        per_rank, fleet, single = _three_ways(instance, schedule, 8, 100)
        assert all(result == single for result in per_rank)
        assert fleet == single
