"""Tests for ``backend="pool"``: the distributed engine, one partition
per rank.

The contract under test: ``MultiHitSolver(backend="pool",
n_workers=k)`` runs :class:`DistributedEngine` with ``n_nodes=k`` and
``gpus_per_node=1`` — counter for counter and record for record the
``backend="distributed"`` run of that shape — and is bit-exact with
``backend="single"``: same combinations, same F-scores, same
tie-breaks, same merged counters, for every rank count and lease cut.
Recovery from injected rank faults is the fleet's
(``tests/test_faults.py::TestPoolInjection``).
"""

import dataclasses
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bitmatrix.matrix import BitMatrix
from repro.core import solver as solver_module
from repro.core.distributed import DistributedEngine
from repro.core.engine import SingleGpuEngine
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.sequential import sequential_solve
from repro.core.solver import MultiHitSolver
from repro.scheduling.equiarea import equiarea_range_boundaries, equiarea_schedule
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1, Scheme, scheme_for
from repro.scheduling.workload import total_threads, total_work


def signature(combos):
    return [(c.genes, round(c.f, 12), c.tp, c.tn) for c in combos]


def _work_tuple(c):
    """The partition-independent part: each lease gathers the inner
    tables it builds, so ``word_reads`` depends on the cut
    (tests/test_meter_closure.py closes it against a tally of the
    gathers)."""
    return (c.combos_scored, c.word_ops)


def _pool_engine(scheme, n_workers, **solver):
    """The engine ``backend="pool"`` builds for ``n_workers`` ranks."""
    return solver_module._ENGINES["pool"](
        MultiHitSolver(
            hits=scheme.hits, scheme=scheme, backend="pool",
            n_workers=n_workers, **solver,
        )
    )


@pytest.fixture
def instance(rng):
    t = rng.random((12, 28)) < 0.4
    n = rng.random((12, 20)) < 0.2
    return (
        BitMatrix.from_dense(t),
        BitMatrix.from_dense(n),
        FScoreParams(n_tumor=28, n_normal=20),
    )


# -- range partitioning --------------------------------------------------


class TestRangeBoundaries:
    @pytest.mark.parametrize("scheme", [Scheme(1, 1), SCHEME_2X2, SCHEME_3X1])
    @pytest.mark.parametrize("n_parts", [1, 2, 5, 13])
    def test_full_range_matches_schedule(self, scheme, n_parts):
        g = 20
        bounds = equiarea_range_boundaries(scheme, g, n_parts)
        assert bounds == equiarea_schedule(scheme, g, n_parts).boundaries

    def test_clamps_and_degenerate_ranges(self):
        scheme, g = SCHEME_3X1, 10
        total = total_threads(scheme, g)
        assert equiarea_range_boundaries(scheme, g, 2)[0] == 0
        assert equiarea_range_boundaries(scheme, g, 2)[-1] == total
        with pytest.raises(ValueError):
            equiarea_range_boundaries(scheme, g, 0)


# -- bit-exactness -------------------------------------------------------


class TestPoolBitExactness:
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
    def test_engine_matches_single(self, instance, n_workers):
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        ref_counters = KernelCounters()
        ref = SingleGpuEngine(scheme=scheme).best_combo(
            tumor, normal, params, counters=ref_counters
        )
        pool_counters = KernelCounters()
        got = _pool_engine(scheme, n_workers).best_combo(
            tumor, normal, params, counters=pool_counters
        )
        assert got == ref
        assert _work_tuple(pool_counters) == _work_tuple(ref_counters)

    def test_solver_trajectory_matches_single(self, rng):
        """Winners and every iteration's scored/pruned counts equal the
        single engine's, for static and elastic leases, with ``prune``
        (read by nothing) on or off, on one to three workers: every cut
        scores the whole grid each iteration."""
        t = rng.random((11, 48)) < 0.35
        n = rng.random((11, 40)) < 0.15

        def trajectory(result):
            return signature(result.combinations), [
                (r.combos_scored, r.combos_pruned) for r in result.iterations
            ]

        ref = MultiHitSolver(hits=3).solve(t, n)
        for prune in (False, True):
            for elastic in (False, True):
                for n_workers in (1, 2, 3):
                    got = MultiHitSolver(
                        hits=3, backend="pool", n_workers=n_workers,
                        elastic=elastic, prune=prune,
                    ).solve(t, n)
                    assert trajectory(got) == trajectory(ref), (
                        prune, elastic, n_workers,
                    )

    def test_tie_straddling_worker_boundary(self):
        # All-ones tumor: every combination ties at the maximal F, so
        # each rank's lease returns its own lex-smallest candidate and
        # the cross-lease reduction must still pick the global
        # lex-smallest — exactly the single-engine tie rule.
        t = BitMatrix.from_dense(np.ones((10, 20), dtype=bool))
        n = BitMatrix.from_dense(np.zeros((10, 20), dtype=bool))
        params = FScoreParams(n_tumor=20, n_normal=20)
        for n_workers in (2, 3, 4):
            got = _pool_engine(SCHEME_3X1, n_workers).best_combo(t, n, params)
            assert got.genes == (0, 1, 2, 3)

    def test_empty_range_and_validation(self, instance):
        tumor, normal, params = instance
        eng = _pool_engine(scheme_for(2, 1), 2)
        bad = BitMatrix.from_dense(np.zeros((9, 4), dtype=bool))
        with pytest.raises(ValueError):
            eng.best_combo(tumor, bad, params)
        with pytest.raises(ValueError):
            _pool_engine(SCHEME_3X1, 0)


class TestSolverBackendEquivalence:
    @settings(
        max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=4),
    )
    def test_pool_single_sequential_agree(self, seed, hits):
        rng = np.random.default_rng(seed)
        g = int(rng.integers(hits + 2, 12))
        t = rng.random((g, int(rng.integers(3, 25)))) < rng.uniform(0.1, 0.7)
        n = rng.random((g, int(rng.integers(1, 25)))) < rng.uniform(0.0, 0.4)
        ref = MultiHitSolver(hits=hits, backend="single").solve(t, n)
        assert signature(ref.combinations) == signature(sequential_solve(t, n, hits))
        for n_workers in (1, 2, 4):
            got = MultiHitSolver(
                hits=hits, backend="pool", n_workers=n_workers
            ).solve(t, n)
            assert signature(got.combinations) == signature(ref.combinations)
            assert got.uncovered == ref.uncovered
            # word_ops is partition-invariant; what a cut gathers is not.
            assert _work_tuple(got.counters) == _work_tuple(ref.counters)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            MultiHitSolver(backend="pool", n_workers=0)


# -- the spelling -----------------------------------------------------------


class TestPoolSpelling:
    """``backend="pool"`` is a spelling of ``backend="distributed"``."""

    @pytest.mark.parametrize("elastic", [False, True], ids=["static", "elastic"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_is_the_distributed_engine_with_one_partition_per_rank(
        self, rng, k, elastic
    ):
        t = rng.random((16, 90)) < 0.3
        n = rng.random((16, 70)) < 0.15
        built, build = [], solver_module._ENGINES["pool"]

        def spy(solver):
            built.append(build(solver))
            return built[-1]

        with patch.dict(solver_module._ENGINES, pool=spy):
            pool = MultiHitSolver(
                hits=3, backend="pool", n_workers=k, elastic=elastic,
                max_iterations=4,
            ).solve(t, n)
        (engine,) = built
        assert type(engine) is DistributedEngine
        assert (engine.n_nodes, engine.gpus_per_node) == (k, 1)
        assert engine.elastic is elastic

        dist = MultiHitSolver(
            hits=3, backend="distributed", n_nodes=k, gpus_per_node=1,
            elastic=elastic, max_iterations=4,
        ).solve(t, n)
        assert dataclasses.asdict(pool.counters) == dataclasses.asdict(dist.counters)
        assert pool.counters.threads_bounded > 0

        def records(result):
            return [
                dataclasses.replace(r, wall_seconds=0.0) for r in result.iterations
            ]

        assert len(pool.iterations) == 4
        assert records(pool) == records(dist)
        assert pool.uncovered == dist.uncovered

    @pytest.mark.parametrize("elastic", [False, True], ids=["static", "elastic"])
    def test_ledger_leases_tile_the_grid(self, instance, elastic):
        """The last call's ledger holds one row per lease: its range,
        its completer and its counters, which add up to the grid."""
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        eng = _pool_engine(scheme, 3, elastic=elastic)
        eng.best_combo(tumor, normal, params)
        leases = eng.ledger.leases
        edges = [(lease.lam_start, lease.lam_end) for lease in leases]
        assert edges[0][0] == 0
        assert edges[-1][1] == total_threads(scheme, tumor.n_genes)
        assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
        assert [lease.lease_id for lease in leases] == list(range(len(edges)))
        assert {lease.completed_by for lease in leases} <= {0, 1, 2}
        assert all(lease.wall_seconds > 0 for lease in leases)
        assert sum(lease.counters.combos_scored for lease in leases) == total_work(
            scheme, tumor.n_genes
        )
        if not elastic:  # one partition per rank; the launch grants lease r to rank r
            assert [lease.completed_by for lease in leases] == [0, 1, 2]
