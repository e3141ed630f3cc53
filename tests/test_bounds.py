"""The scan's bounds, and ``prune``, which the harness still passes.

Every arg-max is the one native scan, which bounds each thread by its
tumor-prefix ceiling ``fscore(TP_prefix, Nn)`` and, once its normal hits
are stored, its normal-hit floor, before the tumor product.  ``prune``
is read by nothing; these tests keep its old soundness contract on the
one path: results bit-identical to ``prune=False`` and to the sequential
oracle on every backend, under injected faults and on tie-heavy
cohorts; every combination scored; a store capped inside the grid
moving nothing; the gathered-traffic meter closing across iterations and
column compaction; and checkpoints (older ones carrying a block table
still resume).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.bitmatrix.matrix import BitMatrix
from repro.core.checkpoint import load_state, save_state
from repro.core.engine import NormalHitStore, best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.sequential import sequential_solve
from repro.core.solver import MultiHitSolver
from repro.data.synthesis import CohortConfig, generate_cohort
from repro.faults.plan import FaultPlan, FaultSpec
from repro.scheduling.schemes import scheme_for
from repro.scheduling.workload import cumulative_work_before, total_threads
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


class TestTieBreak:
    """Bounded threads must not change tie resolution."""

    @pytest.fixture
    def tied_instance(self, rng):
        # Duplicated gene rows manufacture many exactly-tied combinations.
        base_t = rng.random((6, 40)) < 0.45
        base_n = rng.random((6, 40)) < 0.15
        t = np.vstack([base_t, base_t[:4]])  # genes 6..9 clone genes 0..3
        n = np.vstack([base_n, base_n[:4]])
        return t, n

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
    iteration scores the whole grid."""
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
            assert record.combos_scored == math.comb(g, hits), knobs
            assert record.combos_pruned == 0, knobs


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
        """The store's cap decides which threads the normal-hit floor
        bounds and which only their tumor prefix: capped at thread
        ``tile``, no cap moves a winner or the bounded count."""
        t, n = matrices
        base = MultiHitSolver(hits=3).solve(t, n)
        scheme, g = scheme_for(3, 2), t.shape[0]
        itemsize = np.min_scalar_type(n.shape[1]).itemsize
        budget = itemsize * cumulative_work_before(scheme, g, tile) + 4 * tile
        monkeypatch.setattr(engine_mod, "NORMAL_HIT_BUDGET", budget)
        assert NormalHitStore(scheme, g, BitMatrix.from_dense(n)).lam_cap == tile
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        assert signature(pruned) == signature(base)
        assert pruned.counters.combos_scored == base.counters.combos_scored
        assert pruned.counters.threads_bounded == base.counters.threads_bounded

    def test_pool_pruned_bit_identical(self, matrices):
        t, n = matrices
        base = MultiHitSolver(hits=3).solve(t, n)
        pruned = MultiHitSolver(
            hits=3, backend="pool", n_workers=2, prune=True
        ).solve(t, n)
        assert signature(pruned) == signature(base)
        # The rank threads bounded threads (counters merged).
        assert pruned.counters.threads_bounded > 0
        assert pruned.counters.combos_pruned == 0

    def test_distributed_pruned_bit_identical(self, matrices):
        t, n = matrices
        base = MultiHitSolver(hits=3).solve(t, n)
        pruned = MultiHitSolver(
            hits=3, backend="distributed", n_nodes=2, prune=True
        ).solve(t, n)
        assert signature(pruned) == signature(base)
        assert pruned.counters.threads_bounded > 0

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


# -- what the bounds save -------------------------------------------------


class TestEffectiveness:
    def test_compaction_shrinks_scoring_matrix(self, matrices):
        t, n = matrices
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        widths = [r.tumor_words for r in pruned.iterations]
        assert widths[-1] <= widths[0]

    def test_prune_counters_reach_telemetry(self, matrices):
        """The bounds' one counter reaches telemetry; the pruned path's
        ``prune.*`` counters are gone with it."""
        from repro.telemetry import telemetry_session

        t, n = matrices
        with telemetry_session() as tel:
            result = MultiHitSolver(hits=3, prune=True, max_iterations=3).solve(t, n)
            counters = tel.metrics.to_dict()["counters"]
        assert counters["kernel.threads_bounded"] == result.counters.threads_bounded > 0
        assert not [k for k in counters if k.startswith("prune.")]


# -- gathered traffic accounting -------------------------------------------


class TestFusedTrafficIdentity:
    """``word_reads`` is what the scan gathers: each call's inner tables
    and the fixed rows the kernel reports — tumor rows for every thread,
    normal rows for each one that gets past its prefix ceiling without
    stored hits.  The identity must close against a tally of the actual
    row gathers, across iterations and column compaction, through one
    store, on the 2x1 and the paper's 3x1 scheme."""

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
        store = NormalHitStore(scheme, g, normal)
        keep = np.ones(tumor.n_samples, dtype=bool)
        for iteration in range(3):
            # Splice out columns between iterations (the normal side is
            # untouched, so the store stays bound): the identity must
            # hold at the compacted width.
            tumor_now = splice_columns(tumor, keep)
            gathered.value = 0
            c = KernelCounters()
            best_in_thread_range(
                scheme, g, tumor_now, normal, params,
                0, total_threads(scheme, g), counters=c, normal_hits=store,
            )
            assert c.word_reads == gathered.value > 0
            assert c.decode_strides > 0 and c.threads_bounded > 0
            assert c.combos_scored == math.comb(g, scheme.hits)
            keep[: tumor.n_samples // (4 - iteration)] = False

    def test_supers_skipped_surface_in_solver_counters(self, matrices):
        t, n = matrices
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        # The harness-only name of the retired block table's skip count
        # reads 0; what the bounds skip is ``threads_bounded``.
        assert pruned.counters.supers_skipped == 0
        assert pruned.counters.threads_bounded > 0
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
        """A resume starts from an empty store, and its first iteration
        is bounded by the tumor prefix alone until threads fill."""
        t, n = matrices
        full = MultiHitSolver(hits=3, prune=True).solve(t, n)

        states = []
        MultiHitSolver(hits=3, prune=True, max_iterations=2).solve(
            t, n, on_iteration=states.append
        )
        resumed = MultiHitSolver(hits=3, prune=True).solve(t, n, resume=states[-1])

        assert signature(resumed) == signature(full)
        assert len(resumed.iterations) == len(full.iterations) - 2
        assert resumed.counters.threads_bounded > 0

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
