"""Tests for the pruned best-first arg-max.

Covers the per-thread :class:`repro.core.bounds.BoundTable` itself, the
soundness contract (pruned results bit-identical to unpruned and to the
sequential oracle on every backend, including under injected faults and
on tie-heavy cohorts), the strict stop rule and the tie-break under
scrambled visiting order, pruning effectiveness, the gathered-traffic
meter, and checkpoint interaction (the table is never persisted; older
checkpoints carrying a block table still resume).
"""

import itertools
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.bitmatrix.matrix import BitMatrix
from repro.combinatorics.decode import combos_from_linear
from repro.core.bounds import BoundTable
from repro.core.checkpoint import load_state, save_state
from repro.core.engine import best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters, score_combos_reference
from repro.core.sequential import sequential_best_combo, sequential_solve
from repro.core.solver import MultiHitSolver
from repro.data.synthesis import CohortConfig, generate_cohort
from repro.faults.plan import FaultPlan, FaultSpec
from repro.scheduling.schemes import scheme_for
from repro.scheduling.workload import total_threads
from tests.test_meter_closure import tally_gathers


def signature(result):
    return [(c.genes, c.f, c.tp, c.tn) for c in result.combinations]


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(
        CohortConfig(n_genes=28, n_tumor=70, n_normal=70, hits=3, seed=7)
    )


@pytest.fixture(scope="module")
def matrices(cohort):
    return cohort.tumor.values, cohort.normal.values


def _packed(t, n):
    tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
    return tumor, normal, FScoreParams(n_tumor=t.shape[1], n_normal=n.shape[1])


def _thread_maxima(scheme, g, t, n, params) -> np.ndarray:
    """Exact best F of every thread (``-inf`` for one owning nothing), by
    the reference scorer."""
    tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
    tuples = combos_from_linear(
        np.arange(total_threads(scheme, g)), scheme.flattened
    )
    out = np.full(len(tuples), -np.inf)
    for lam, tup in enumerate(tuples.tolist()):
        combos = [
            (*tup, *rest)
            for rest in itertools.combinations(range(tup[-1] + 1, g), scheme.inner)
        ]
        if combos:
            f, _, _ = score_combos_reference(tumor, normal, np.asarray(combos), params)
            out[lam] = f.max()
    return out


# -- BoundTable unit tests ------------------------------------------------


class TestBoundTable:
    def test_build_partitions_grid(self):
        scheme = scheme_for(3, 2)
        table = BoundTable.build(scheme, 20)
        # One never-scored entry per λ thread of the whole grid.
        assert (table.lam_start, table.lam_end) == (0, total_threads(scheme, 20))
        assert table.values.dtype == np.float64
        assert np.isinf(table.values).all()

    def test_backend_cuts_merged(self):
        """Any λ cut works: slices at a backend's cuts, refreshed and
        written back in partition order, rebuild the whole table."""
        scheme = scheme_for(3, 2)
        total = total_threads(scheme, 20)
        cuts = (0, 17, 171, total)
        table = BoundTable.build(scheme, 20)
        for lo, hi in zip(cuts, cuts[1:]):
            part = table.slice(lo, hi)
            part.refresh(np.arange(hi - lo), np.arange(lo, hi) / total)
            table.write_back(part)
        assert (table.values == np.arange(total) / total).all()

    def test_unaligned_range_rejected(self):
        scheme = scheme_for(3, 2)
        table = BoundTable.build(scheme, 20)
        with pytest.raises(ValueError, match="outside"):
            table.slice(1, table.lam_end + 1)
        t = np.ones((20, 8), dtype=bool)
        tumor, normal, params = _packed(t, t)
        # The scan's range must be exactly the table's.
        with pytest.raises(ValueError, match="bound table covers"):
            best_in_thread_range(
                scheme, 20, tumor, normal, params, 5, 50,
                bounds=table.slice(0, 50),
            )

    def test_visit_order_descending_with_id_ties(self):
        table = BoundTable(np.array([0.5, 0.9, np.inf, 0.5, 0.5]))
        ceiling = np.array([0.7, 0.7, 0.6, 0.8, 0.5])
        order, keys = table.visit_order(ceiling)
        # min(stored, ceiling) = [.5, .7, .6, .5, .5]; equal bounds visit
        # in ascending λ.
        assert order.tolist() == [1, 2, 0, 3, 4]
        assert keys.tolist() == [0.7, 0.6, 0.5, 0.5, 0.5]
        # A shorter ceiling orders only the threads it covers.
        assert table.visit_order(ceiling[:2])[0].tolist() == [1, 0]

    def test_can_skip_requires_stamp_and_strict_bound(self):
        """Exact bounds equal to the winner's F are scored (they may hide
        a lexicographically smaller tie); everything strictly below is
        left unvisited."""
        rng = np.random.default_rng(3)
        base_t = rng.random((5, 40)) < 0.5
        base_n = rng.random((5, 40)) < 0.2
        t, n = np.vstack([base_t, base_t]), np.vstack([base_n, base_n])
        scheme, g = scheme_for(3, 2), 10
        tumor, normal, params = _packed(t, n)
        exact = _thread_maxima(scheme, g, t, n, params)
        expected = sequential_best_combo(t, n, 3, params)
        table = BoundTable(np.where(np.isfinite(exact), exact, np.inf))
        counters = KernelCounters()
        got = best_in_thread_range(
            scheme, g, tumor, normal, params, 0, total_threads(scheme, g),
            counters=counters, bounds=table,
        )
        assert got == expected
        ties = int((exact == expected.f).sum())
        assert ties > 1
        assert counters.threads_scanned == ties
        # Threads owning no combination are never visited nor counted.
        owning = np.isfinite(exact)
        assert counters.threads_skipped == int((exact[owning] < expected.f).sum())

    def test_deltas_address_parent_blocks(self):
        table = BoundTable.build(scheme_for(3, 2), 20)
        child = table.slice(40, 60)
        assert child.lam_start == 40
        child.refresh(np.array([1]), np.array([0.7]))  # local 1 == global 41
        assert np.isinf(table.values[41])  # a copy until written back
        table.write_back(child)
        assert table.values[41] == 0.7
        assert np.isinf(np.delete(table.values, 41)).all()

    def test_payload_round_trip(self):
        # What a pool lease ships: the slice survives pickling, +inf too.
        table = BoundTable.build(scheme_for(3, 2), 20)
        table.values[3] = 0.25
        clone = pickle.loads(pickle.dumps(table.slice(2, 6)))
        assert clone.lam_start == 2
        assert clone.values[1] == 0.25
        assert np.isinf(clone.values[0])


# -- tie-break regression -------------------------------------------------


class TestTieBreak:
    """Out-of-order visitation must not change tie resolution."""

    @pytest.fixture
    def tied_instance(self, rng):
        # Duplicated gene rows manufacture many exactly-tied combinations.
        base_t = rng.random((6, 40)) < 0.45
        base_n = rng.random((6, 40)) < 0.15
        t = np.vstack([base_t, base_t[:4]])  # genes 6..9 clone genes 0..3
        n = np.vstack([base_n, base_n[:4]])
        return t, n

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_priorities_match_sequential(self, tied_instance, seed):
        t, n = tied_instance
        tumor, normal, params = _packed(t, n)
        scheme = scheme_for(3, 2)
        g = t.shape[0]
        expected = sequential_best_combo(t, n, 3, params)
        # Valid bounds with arbitrary slack scramble the visiting order.
        exact = _thread_maxima(scheme, g, t, n, params)
        slack = np.random.default_rng(seed).random(len(exact))
        table = BoundTable(np.where(np.isfinite(exact), exact + slack, np.inf))
        got = best_in_thread_range(
            scheme, g, tumor, normal, params, 0, total_threads(scheme, g),
            bounds=table,
        )
        assert got == expected

    def test_pruned_iterations_keep_tie_rule(self, tied_instance):
        t, n = tied_instance
        ref = MultiHitSolver(hits=3, backend="sequential").solve(t, n)
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        assert signature(pruned) == signature(ref)


# -- property: every backend against the oracle ---------------------------


_BACKENDS = {
    "single": {},
    "pool": {"backend": "pool", "n_workers": 2},
    "pool-elastic": {"backend": "pool", "n_workers": 2, "elastic": True},
    "distributed": {"backend": "distributed", "n_nodes": 2, "gpus_per_node": 2},
    "distributed-elastic": {
        "backend": "distributed", "n_nodes": 2, "gpus_per_node": 2,
        "elastic": True,
    },
}


@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    g=st.integers(min_value=5, max_value=14),
    hits=st.integers(min_value=2, max_value=4),
)
def test_pruned_backends_match_sequential_solve(seed, g, hits):
    """Small tie-heavy cohorts — duplicated and all-zero rows — solve to
    the sequential oracle's exact trajectory on every backend, and every
    iteration's scored + pruned covers the grid."""
    rng = np.random.default_rng(seed)
    n_samples = int(rng.integers(20, 90))
    t = rng.random((g, n_samples)) < rng.uniform(0.2, 0.6)
    n = rng.random((g, n_samples)) < rng.uniform(0.05, 0.3)
    t[g // 2] = t[0]  # a duplicated gene forces exact ties
    n[g // 2] = n[0]
    t[g - 1] = False  # an all-zero gene
    expected = [
        (c.genes, c.f, c.tp, c.tn) for c in sequential_solve(t, n, hits)
    ]
    for knobs in _BACKENDS.values():
        result = MultiHitSolver(hits=hits, prune=True, **knobs).solve(t, n)
        assert signature(result) == expected, knobs
        for record in result.iterations:
            assert (
                record.combos_scored + record.combos_pruned == math.comb(g, hits)
            ), knobs


# -- cross-backend equivalence -------------------------------------------


class TestEquivalence:
    def test_single_pruned_bit_identical(self, matrices):
        t, n = matrices
        base = MultiHitSolver(hits=3).solve(t, n)
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        assert signature(pruned) == signature(base)
        assert pruned.uncovered == base.uncovered

    @pytest.mark.parametrize("tile", [1, 5, 160])
    def test_block_granularity_irrelevant_to_results(
        self, matrices, tile, monkeypatch
    ):
        """The tile budget caps the batch size; no cap moves a winner."""
        t, n = matrices
        base = MultiHitSolver(hits=3).solve(t, n)
        monkeypatch.setattr(engine_mod, "_TILE_ELEMENTS", tile)
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        assert signature(pruned) == signature(base)

    def test_pool_pruned_bit_identical(self, matrices):
        t, n = matrices
        base = MultiHitSolver(hits=3).solve(t, n)
        pruned = MultiHitSolver(
            hits=3, backend="pool", n_workers=2, prune=True
        ).solve(t, n)
        assert signature(pruned) == signature(base)
        # Workers actually pruned (slices round-tripped, counters merged).
        assert pruned.counters.threads_skipped > 0
        assert pruned.counters.combos_pruned > 0

    def test_distributed_pruned_bit_identical(self, matrices):
        t, n = matrices
        base = MultiHitSolver(hits=3).solve(t, n)
        pruned = MultiHitSolver(
            hits=3, backend="distributed", n_nodes=2, prune=True
        ).solve(t, n)
        assert signature(pruned) == signature(base)
        assert pruned.counters.combos_pruned > 0

    def test_pool_pruned_under_injected_crash(self, matrices):
        t, n = matrices
        base = MultiHitSolver(hits=3).solve(t, n)
        plan = FaultPlan(
            (FaultSpec(kind="crash", site="rank", target=1, at_call=1),)
        )
        pruned = MultiHitSolver(
            hits=3, backend="pool", n_workers=2, prune=True, fault_plan=plan
        ).solve(t, n)
        assert signature(pruned) == signature(base)
        assert pruned.fault_report is not None
        assert pruned.fault_report.events

    def test_distributed_dead_rank_pruned(self, matrices):
        t, n = matrices
        base = MultiHitSolver(hits=3).solve(t, n)
        plan = FaultPlan(
            (FaultSpec(kind="crash", site="rank", target=1, count=-1),)
        )
        pruned = MultiHitSolver(
            hits=3, backend="distributed", n_nodes=2, prune=True, fault_plan=plan
        ).solve(t, n)
        assert signature(pruned) == signature(base)


# -- pruning effectiveness ------------------------------------------------


class TestEffectiveness:
    def test_prunes_at_least_2x_from_iteration_2(self, matrices):
        t, n = matrices
        base = MultiHitSolver(hits=3).solve(t, n)
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        base_tail = sum(r.combos_scored for r in base.iterations[1:])
        pruned_tail = sum(r.combos_scored for r in pruned.iterations[1:])
        assert len(base.iterations) >= 3
        assert pruned_tail * 2 <= base_tail
        # Iteration 1 has no stored bounds, but the prefix ceiling
        # already prunes it.
        assert pruned.iterations[0].combos_pruned > 0
        assert (
            pruned.iterations[0].combos_scored < base.iterations[0].combos_scored
        )
        # Accounting closes: every combination is scored or pruned.
        for rb, rp in zip(base.iterations, pruned.iterations):
            assert rp.combos_scored + rp.combos_pruned == rb.combos_scored

    def test_pinned_trajectory_on_the_40_gene_cohort(self):
        """Exact pruned-vs-unpruned totals on one fixed cohort: any change
        to the bounds, the visiting order or the traffic charge moves
        them."""
        cohort = generate_cohort(
            CohortConfig(n_genes=40, n_tumor=120, n_normal=120, hits=3, seed=0)
        )
        t, n = cohort.tumor.values, cohort.normal.values
        base = MultiHitSolver(hits=3).solve(t, n)
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        assert signature(pruned) == signature(base)
        assert len(base.iterations) == len(pruned.iterations) == 18

        def tail(result, field):
            return sum(getattr(r, field) for r in result.iterations[1:])

        assert (tail(base, "combos_scored"), tail(pruned, "combos_scored")) == (
            167_960, 7_084,
        )
        # From iteration 2 the unpruned scan reads its normal hits from
        # the store and gathers tumor rows only.
        assert (tail(base, "word_reads"), tail(pruned, "word_reads")) == (
            28_880, 33_260,
        )
        # Run totals include the final probe iteration, which ends the
        # loop without a record.
        assert (pruned.counters.combos_scored, pruned.counters.combos_pruned) == (
            17_132, 170_588,
        )

    def test_compaction_shrinks_scoring_matrix(self, matrices):
        t, n = matrices
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        widths = [r.tumor_words for r in pruned.iterations]
        assert widths[-1] <= widths[0]

    def test_prune_counters_reach_telemetry(self, matrices):
        from repro.telemetry import telemetry_session

        t, n = matrices
        with telemetry_session() as tel:
            MultiHitSolver(hits=3, prune=True, max_iterations=3).solve(t, n)
            counters = tel.metrics.to_dict()["counters"]
        assert counters["prune.threads_scanned"] > 0
        assert counters["prune.threads_skipped"] > 0
        assert counters["prune.combos_pruned"] > 0


# -- gathered traffic accounting -------------------------------------------


class TestFusedTrafficIdentity:
    """``word_reads`` on the pruned path is what it gathers: the ceiling
    pass's tumor rows, each batch's base rows and the call's one inner
    table.  The identity must close against a tally of the actual row
    gathers, across iterations and column compaction, on the 2x1 and
    the paper's 3x1 scheme."""

    @pytest.fixture
    def gathered(self, monkeypatch):
        return tally_gathers(monkeypatch)

    @pytest.mark.parametrize("flattened", [2, 3])
    def test_identity_closes_across_iterations_and_compaction(
        self, matrices, flattened, gathered
    ):
        from repro.bitmatrix.splicing import splice_columns

        t, n = matrices
        tumor, normal, params = _packed(t, n)
        scheme = scheme_for(flattened + 1, flattened)
        g = t.shape[0]
        table = BoundTable.build(scheme, g)
        keep = np.ones(tumor.n_samples, dtype=bool)
        for iteration in range(3):
            # Splice out columns between iterations (TP only shrinks, so
            # reusing the table is sound): the identity must hold at the
            # compacted width.
            tumor_now = splice_columns(tumor, keep)
            gathered.value = 0
            c = KernelCounters()
            best_in_thread_range(
                scheme, g, tumor_now, normal, params,
                0, total_threads(scheme, g), counters=c, bounds=table,
            )
            assert c.word_reads == gathered.value > 0
            assert c.decode_strides > 0 and c.threads_skipped > 0
            # Accounting closes combination-for-combination.
            assert c.combos_scored + c.combos_pruned == math.comb(g, scheme.hits)
            keep[: tumor.n_samples // (4 - iteration)] = False

    def test_supers_skipped_surface_in_solver_counters(self, matrices):
        t, n = matrices
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        # The harness-only name reads the thread skip count.
        assert pruned.counters.supers_skipped == pruned.counters.threads_skipped
        assert pruned.counters.threads_skipped > 0
        assert pruned.counters.decode_strides > 0


# -- checkpoint interaction -----------------------------------------------


def _block_table_checkpoint(state, path) -> None:
    """``state`` in the block-table engine's checkpoint format: the same
    fields plus the full bound table it persisted."""
    save_state(state, path)
    raw = json.loads(path.read_text())
    raw["bound_table"] = {
        "scheme_key": [3, 2, 1],
        "g": 28,
        "offset": 0,
        "boundaries": [0, 120, 378],
        "bounds": [0.31, None],
        "stamps": [1, -1],
        "works": [2_104, 1_172],
        "super_size": 8,
    }
    path.write_text(json.dumps(raw) + "\n")


class TestCheckpointResume:
    def test_resume_with_and_without_table(self, matrices):
        """A resume rescans under the prefix ceiling alone and still
        prunes its first iteration."""
        t, n = matrices
        full = MultiHitSolver(hits=3, prune=True).solve(t, n)

        states = []
        MultiHitSolver(hits=3, prune=True, max_iterations=2).solve(
            t, n, on_iteration=states.append
        )
        resumed = MultiHitSolver(hits=3, prune=True).solve(t, n, resume=states[-1])

        assert signature(resumed) == signature(full)
        assert len(resumed.iterations) == len(full.iterations) - 2
        assert resumed.iterations[0].combos_pruned > 0

    def test_mismatched_table_geometry_dropped(self, matrices, tmp_path):
        """A checkpoint written in the block-table format loads, its table
        is ignored, and the run resumes to the same winners."""
        t, n = matrices
        states = []
        MultiHitSolver(hits=3, prune=True, max_iterations=2).solve(
            t, n, on_iteration=states.append
        )
        path = tmp_path / "ck.json"
        _block_table_checkpoint(states[-1], path)
        loaded = load_state(path)
        assert loaded.combinations == states[-1].combinations
        full = MultiHitSolver(hits=3, prune=True).solve(t, n)
        resumed = MultiHitSolver(hits=3, prune=True).solve(t, n, resume=loaded)
        assert signature(resumed) == signature(full)

    def test_unpruned_runs_checkpoint_without_table(self, matrices, tmp_path):
        t, n = matrices
        for prune in (False, True):
            states = []
            MultiHitSolver(hits=3, prune=prune, max_iterations=1).solve(
                t, n, on_iteration=states.append
            )
            save_state(states[-1], tmp_path / "ck.json")
            assert "bound_table" not in json.loads(
                (tmp_path / "ck.json").read_text()
            )
