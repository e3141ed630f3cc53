"""The rank fleet runs the paper's static schedule and finds the oracle's winner.

Section III-E: each rank searches its own partitions and one candidate
per rank is reduced to the root.  The fleet runs that schedule as pinned
leases (:func:`spmd_best_combo` over ``LeaseLedger.from_schedule``);
its winner must equal the single-GPU engine's and the exhaustive
``sequential_best_combo``'s.
"""

import pytest

from repro.bitmatrix.matrix import BitMatrix
from repro.cluster import LeaseLedger, spmd_best_combo
from repro.core.engine import SingleGpuEngine
from repro.core.fscore import FScoreParams
from repro.core.sequential import sequential_best_combo
from repro.scheduling.equiarea import equiarea_schedule
from repro.scheduling.equidistance import equidistance_schedule
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1


@pytest.fixture
def instance(rng):
    t = rng.random((16, 40)) < 0.35
    n = rng.random((16, 30)) < 0.15
    return t, n, FScoreParams(n_tumor=40, n_normal=30)


def _three_ways(instance, schedule, n_ranks, gpus_per_rank):
    """(the fleet's winner, the single engine's, the exhaustive oracle's)."""
    t, n, params = instance
    tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
    fleet = spmd_best_combo(
        LeaseLedger.from_schedule(schedule, gpus_per_rank),
        schedule.scheme, tumor, normal, params, n_ranks,
    )
    single = SingleGpuEngine(scheme=schedule.scheme).best_combo(
        tumor, normal, params
    )
    oracle = sequential_best_combo(t, n, schedule.scheme.hits, params)
    return fleet, single, oracle


class TestSpmdSolve:
    @pytest.mark.parametrize("n_ranks,gpr", [(1, 6), (2, 3), (4, 2)])
    def test_matches_single_engine(self, instance, n_ranks, gpr):
        schedule = equiarea_schedule(SCHEME_3X1, 16, n_ranks * gpr)
        fleet, single, oracle = _three_ways(instance, schedule, n_ranks, gpr)
        assert fleet == single == oracle

    def test_equidistance_schedule_same_winner(self, instance):
        schedule = equidistance_schedule(SCHEME_2X2, 16, 6)
        fleet, single, oracle = _three_ways(instance, schedule, 3, 2)
        assert fleet == single == oracle

    def test_all_ranks_agree(self, instance):
        # More partitions than the grid has threads: empty partitions
        # make no lease, and a rank left with none only helps steal.
        schedule = equiarea_schedule(SCHEME_3X1, 16, 800)
        assert any(lo == hi for lo, hi in map(schedule.thread_range, range(800)))
        fleet, single, oracle = _three_ways(instance, schedule, 8, 100)
        assert fleet == single == oracle
