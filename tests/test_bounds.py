"""Tests for the lazy-greedy pruned iteration engine.

Covers the :class:`repro.core.bounds.BoundTable` itself, the soundness
contract (pruned results bit-identical to unpruned on every backend,
including under injected faults), the tie-break regression (out-of-order
block visitation still resolves ties to the lexicographically smallest
tuple), pruning effectiveness, and checkpoint interaction (resume with
and without the persisted table).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.bounds import BoundTable
from repro.core.checkpoint import load_state, save_state
from repro.core.engine import best_in_thread_range
from repro.core.kernels import KernelCounters
from repro.core.sequential import sequential_best_combo
from repro.core.solver import MultiHitSolver
from repro.data.synthesis import CohortConfig, generate_cohort
from repro.faults.plan import FaultPlan, FaultSpec
from repro.scheduling.schemes import scheme_for
from repro.scheduling.workload import (
    cumulative_work_before,
    total_threads,
)


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


@pytest.fixture
def block_count(monkeypatch):
    """``block_count(n)``: solves from here on build their bound table
    with ``n`` target blocks.  The solver always builds at
    :meth:`BoundTable.build`'s default; the geometry tests reach the
    ``n_blocks`` seam underneath it."""
    build = BoundTable.build.__func__

    def use(n_blocks):
        monkeypatch.setattr(
            BoundTable, "build",
            classmethod(
                lambda cls, scheme, g, cuts=None: build(
                    cls, scheme, g, cuts=cuts, n_blocks=n_blocks
                )
            ),
        )

    return use


# -- BoundTable unit tests ------------------------------------------------


class TestBoundTable:
    def test_build_partitions_grid(self):
        scheme = scheme_for(3, 2)
        g = 20
        table = BoundTable.build(scheme, g, n_blocks=8)
        total = total_threads(scheme, g)
        assert table.boundaries[0] == 0
        assert table.boundaries[-1] == total
        assert (np.diff(table.boundaries) > 0).all()
        # Per-block works sum to the whole grid's work.
        assert table.works.sum() == cumulative_work_before(scheme, g, total)
        assert (table.stamps == -1).all()
        assert np.isinf(table.bounds).all()

    def test_backend_cuts_merged(self):
        scheme = scheme_for(3, 2)
        g = 20
        total = total_threads(scheme, g)
        cuts = (0, 17, 171, total)
        table = BoundTable.build(scheme, g, cuts=cuts, n_blocks=4)
        for c in cuts:
            assert c in table.boundaries
        # Every cut range is aligned, i.e. a whole number of blocks.
        assert table.aligned(17, 171)
        i0, i1 = table.block_slice(17, 171)
        assert table.boundaries[i0] == 17 and table.boundaries[i1] == 171

    def test_unaligned_range_rejected(self):
        table = BoundTable.build(scheme_for(3, 2), 20, n_blocks=4)
        assert not table.aligned(1, 5)
        with pytest.raises(ValueError, match="not aligned"):
            table.block_slice(1, 5)

    def test_visit_order_descending_with_id_ties(self):
        table = BoundTable.build(scheme_for(3, 2), 20, n_blocks=6)
        n = table.n_blocks
        table.bounds[:] = 0.5
        table.bounds[n - 1] = 0.9
        order = table.visit_order(0, n)
        assert order[0] == n - 1
        # Equal bounds resolve to ascending block id.
        assert list(order[1:]) == list(range(n - 1))

    def test_can_skip_requires_stamp_and_strict_bound(self):
        table = BoundTable.build(scheme_for(3, 2), 20, n_blocks=4)
        # Never-scored blocks are never skippable.
        assert not table.can_skip(0, 0.1)
        table.refresh(0, 0.5, iteration=0)
        assert table.can_skip(0, 0.6)
        # An equal bound may hide an equal-F lexicographic tie: no skip.
        assert not table.can_skip(0, 0.5)
        assert not table.can_skip(0, 0.4)

    def test_payload_round_trip(self):
        table = BoundTable.build(scheme_for(3, 2), 20, n_blocks=6)
        table.refresh(1, 0.25, iteration=3)
        lo, hi = table.block_range(0)[0], table.block_range(2)[1]
        payload = table.slice_payload(lo, hi)
        import json

        clone = BoundTable.from_payload(json.loads(json.dumps(payload)))
        assert clone.offset == 0
        assert clone.n_blocks == 3
        assert clone.stamps[1] == 3
        assert clone.bounds[1] == 0.25
        assert np.isinf(clone.bounds[0])  # None -> +inf survives JSON

    def test_deltas_address_parent_blocks(self):
        table = BoundTable.build(scheme_for(3, 2), 20, n_blocks=6)
        lo = table.block_range(2)[0]
        hi = table.block_range(4)[1]
        child = BoundTable.from_payload(table.slice_payload(lo, hi))
        assert child.offset == 2
        child.refresh(1, 0.7, iteration=5)  # local block 1 == global 3
        deltas = child.deltas(5)
        assert deltas == [(3, 0.7)]
        table.apply_deltas(deltas, iteration=5)
        assert table.bounds[3] == 0.7
        assert table.stamps[3] == 5
        # Stale (earlier-iteration) entries don't leak into deltas.
        assert child.deltas(4) == []

    def test_matches_and_reset(self):
        scheme = scheme_for(3, 2)
        a = BoundTable.build(scheme, 20, n_blocks=6)
        b = BoundTable.build(scheme, 20, n_blocks=6)
        assert a.matches(b)
        assert not a.matches(BoundTable.build(scheme, 21, n_blocks=6))
        assert not a.matches(BoundTable.build(scheme, 20, n_blocks=3))
        a.refresh(0, 0.3, iteration=1)
        a.reset()
        assert (a.stamps == -1).all() and np.isinf(a.bounds).all()


# -- hierarchical (super-block) layer --------------------------------------


class TestSuperBlocks:
    def _table(self, super_size=3):
        return BoundTable.build(
            scheme_for(3, 2), 20, n_blocks=8, super_size=super_size
        )

    def test_geometry_and_derived_aggregates(self):
        table = self._table(super_size=3)
        k = table.super_size
        assert table.n_supers == -(-table.n_blocks // k)
        covered = []
        for s in range(table.n_supers):
            a, b = table.super_block_range(s)
            covered.extend(range(a, b))
            assert table.super_work(s) == int(table.works[a:b].sum())
            assert table.super_of(a) == s
        assert covered == list(range(table.n_blocks))

    def test_skip_requires_all_members_stamped_and_strict_bound(self):
        table = self._table(super_size=3)
        a, b = table.super_block_range(0)
        # Fresh table: nothing skippable.
        assert not table.can_skip_super(0, 1.0)
        for blk in range(a, b - 1):
            table.refresh(blk, 0.2, iteration=0)
        # One member still unstamped: no super skip.
        assert not table.can_skip_super(0, 1.0)
        table.refresh(b - 1, 0.5, iteration=0)
        assert table.can_skip_super(0, 0.6)
        # Aggregate is the member max, and the inequality is strict.
        assert not table.can_skip_super(0, 0.5)
        assert not table.can_skip_super(0, 0.3)

    def test_visit_order_descending_with_id_ties(self):
        table = self._table(super_size=2)
        for blk in range(table.n_blocks):
            table.refresh(blk, 0.5, iteration=0)
        a, _ = table.super_block_range(table.n_supers - 1)
        table.refresh(a, 0.9, iteration=0)
        order = table.super_visit_order(0, table.n_blocks)
        assert order[0] == table.n_supers - 1
        assert list(order[1:]) == list(range(table.n_supers - 1))

    def test_refresh_reset_and_deltas_update_aggregates(self):
        table = self._table(super_size=3)
        table.refresh(0, 0.4, iteration=0)
        assert not table.can_skip_super(0, 1.0)  # siblings unstamped
        a, b = table.super_block_range(0)
        for blk in range(a, b):
            table.refresh(blk, 0.4, iteration=0)
        assert table.can_skip_super(0, 0.5)
        table.reset()
        assert not table.can_skip_super(0, 0.5)
        # Delta fold-back (the pool path) refreshes aggregates too.
        table.apply_deltas([(blk, 0.1) for blk in range(a, b)], iteration=1)
        assert table.can_skip_super(0, 0.2)

    def test_payload_round_trip_preserves_super_size(self):
        import json

        table = self._table(super_size=5)
        clone = BoundTable.from_payload(
            json.loads(json.dumps(table.to_payload()))
        )
        assert clone.super_size == 5
        # Older payloads without the field still load (default fan-out).
        legacy = table.to_payload()
        del legacy["super_size"]
        assert BoundTable.from_payload(legacy).super_size == 8

    def test_super_size_one_degenerates_to_blocks(self):
        table = self._table(super_size=1)
        assert table.n_supers == table.n_blocks
        table.refresh(2, 0.3, iteration=0)
        assert table.can_skip_super(2, 0.4) == table.can_skip(2, 0.4)


# -- tie-break regression -------------------------------------------------


class TestTieBreak:
    """Out-of-order block visitation must not change tie resolution."""

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
        from repro.bitmatrix.matrix import BitMatrix
        from repro.core.fscore import FScoreParams

        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        params = FScoreParams(n_tumor=t.shape[1], n_normal=n.shape[1])
        scheme = scheme_for(3, 2)
        g = t.shape[0]
        expected = sequential_best_combo(t, n, 3, params)

        table = BoundTable.build(scheme, g, n_blocks=7)
        # Arbitrary priorities scramble the visitation order; stamps stay
        # -1 so nothing is skippable — this isolates order-independence.
        table.bounds[:] = np.random.default_rng(seed).random(table.n_blocks)
        got = best_in_thread_range(
            scheme, g, tumor, normal, params, 0, total_threads(scheme, g),
            bounds=table, iteration=0,
        )
        assert got == expected

    def test_pruned_iterations_keep_tie_rule(self, tied_instance, block_count):
        t, n = tied_instance
        ref = MultiHitSolver(hits=3, backend="sequential").solve(t, n)
        block_count(9)
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        assert signature(pruned) == signature(ref)


# -- cross-backend equivalence -------------------------------------------


class TestEquivalence:
    def test_single_pruned_bit_identical(self, matrices):
        t, n = matrices
        base = MultiHitSolver(hits=3).solve(t, n)
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        assert signature(pruned) == signature(base)
        assert pruned.uncovered == base.uncovered

    @pytest.mark.parametrize("blocks", [1, 5, 160])
    def test_block_granularity_irrelevant_to_results(
        self, matrices, blocks, block_count
    ):
        t, n = matrices
        base = MultiHitSolver(hits=3).solve(t, n)
        block_count(blocks)
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        assert signature(pruned) == signature(base)

    def test_pool_pruned_bit_identical(self, matrices):
        t, n = matrices
        base = MultiHitSolver(hits=3).solve(t, n)
        pruned = MultiHitSolver(
            hits=3, backend="pool", n_workers=2, prune=True
        ).solve(t, n)
        assert signature(pruned) == signature(base)
        # Workers actually pruned (deltas round-tripped, counters merged).
        assert pruned.counters.blocks_skipped > 0
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
            (FaultSpec(kind="crash", site="pool", target=1, at_call=1),)
        )
        with pytest.warns(Warning):
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
        # Iteration 1 has no bounds yet: full scan, nothing pruned.
        assert pruned.iterations[0].combos_pruned == 0
        assert (
            pruned.iterations[0].combos_scored == base.iterations[0].combos_scored
        )
        # Accounting closes: every combination is scored or pruned.
        for rb, rp in zip(base.iterations, pruned.iterations):
            assert rp.combos_scored + rp.combos_pruned == rb.combos_scored

    def test_pinned_trajectory_on_the_40_gene_cohort(self):
        """Exact pruned-vs-unpruned totals on one fixed cohort: any change
        to block bounds, visiting order or the traffic charge moves them."""
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
            167_960, 67_944,
        )
        assert (tail(base, "word_reads"), tail(pruned, "word_reads")) == (
            117_819, 47_343,
        )
        # Run totals include the final probe iteration, which ends the
        # loop without a record.
        assert (pruned.counters.combos_scored, pruned.counters.combos_pruned) == (
            87_704, 100_016,
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
            gauges = tel.metrics.to_dict()["gauges"]
        assert counters["prune.blocks_scanned"] > 0
        assert counters["prune.blocks_skipped"] > 0
        assert counters["prune.combos_pruned"] > 0
        assert 0.0 < gauges["prune.hit_rate"] < 1.0


# -- fused traffic accounting ----------------------------------------------


class TestFusedTrafficIdentity:
    """``word_reads`` on the pruned path follow the fused traffic model:
    every scanned thread's ``f`` base rows are gathered once, and each
    workload level's inner AND-table is built once per engine call.  The
    identity must close against an independent per-block summation
    regardless of run batching, super-block skipping, or column
    compaction (the fused-kernel analogue of keeping compacted-matrix
    reads and :func:`global_word_reads` apples-to-apples)."""

    def _expected_reads(self, scheme, g, w, table, iteration):
        from repro.combinatorics.decode import top_index
        from repro.scheduling.workload import level_range, level_work

        f, d = scheme.flattened, scheme.inner
        total = 0
        touched = set()
        for blk in np.flatnonzero(table.stamps == iteration):
            lo, hi = table.block_range(int(blk))
            lo_top, hi_top = top_index(lo, f), top_index(hi - 1, f)
            for m in range(lo_top, hi_top + 1):
                a, b = level_range(scheme, m)
                n_threads = min(b, hi) - max(a, lo)
                if n_threads <= 0:
                    continue
                if d > 0 and level_work(scheme, g, m) == 0:
                    continue
                total += n_threads * f
                if d > 0:
                    touched.add(m)
        total += sum(level_work(scheme, g, m) * d for m in touched)
        return total * w

    def _pruned_scan(self, tumor, normal, params, scheme, g, table, iteration):
        counters = KernelCounters()
        best_in_thread_range(
            scheme, g, tumor, normal, params,
            0, total_threads(scheme, g),
            counters=counters, bounds=table, iteration=iteration,
        )
        return counters

    @pytest.mark.parametrize("flattened", [2, 3])
    def test_identity_closes_across_iterations_and_compaction(
        self, matrices, flattened
    ):
        from repro.bitmatrix.matrix import BitMatrix
        from repro.bitmatrix.splicing import splice_columns
        from repro.core.fscore import FScoreParams

        t, n = matrices
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        params = FScoreParams(n_tumor=t.shape[1], n_normal=n.shape[1])
        scheme = scheme_for(3, flattened)
        g = t.shape[0]
        table = BoundTable.build(scheme, g, n_blocks=24, super_size=4)
        w = tumor.n_words + normal.n_words

        c0 = self._pruned_scan(tumor, normal, params, scheme, g, table, 0)
        assert c0.word_reads == self._expected_reads(scheme, g, w, table, 0)
        assert c0.decode_strides > 0

        # "Iteration 1": splice out half the tumor columns (TP only
        # shrinks, so reusing the table is sound) and verify the identity
        # still closes with the *compacted* word width while pruning and
        # run batching are actually engaged.
        keep = np.zeros(tumor.n_samples, dtype=bool)
        keep[: tumor.n_samples // 2] = True
        tumor2 = splice_columns(tumor, keep)
        assert tumor2.n_words < tumor.n_words
        w2 = tumor2.n_words + normal.n_words
        c1 = self._pruned_scan(tumor2, normal, params, scheme, g, table, 1)
        assert c1.blocks_skipped > 0
        assert c1.word_reads == self._expected_reads(scheme, g, w2, table, 1)
        # Accounting still closes combination-for-combination.
        assert c1.combos_scored + c1.combos_pruned == int(table.works.sum())

    def test_supers_skipped_surface_in_solver_counters(self, matrices):
        t, n = matrices
        pruned = MultiHitSolver(hits=3, prune=True).solve(t, n)
        assert pruned.counters.supers_skipped > 0
        assert pruned.counters.decode_strides > 0


# -- checkpoint interaction -----------------------------------------------


class TestCheckpointResume:
    def test_resume_with_and_without_table(self, matrices, tmp_path):
        t, n = matrices
        full = MultiHitSolver(hits=3, prune=True).solve(t, n)

        states = []
        MultiHitSolver(hits=3, prune=True, max_iterations=2).solve(
            t, n, on_iteration=states.append
        )
        state = states[-1]
        assert state.bound_table is not None

        # Resume adopting the persisted bound table.
        with_table = MultiHitSolver(hits=3, prune=True).solve(t, n, resume=state)
        # Resume after dropping it (older checkpoint / unknown provenance).
        stripped = dataclasses.replace(state, bound_table=None)
        without_table = MultiHitSolver(hits=3, prune=True).solve(
            t, n, resume=stripped
        )

        assert signature(with_table) == signature(full)
        assert signature(without_table) == signature(full)
        assert len(with_table.iterations) == len(full.iterations) - 2
        # The adopted table prunes the resumed run's first iteration too.
        assert with_table.iterations[0].combos_pruned > 0
        assert without_table.iterations[0].combos_pruned == 0

    def test_table_survives_json_round_trip(self, matrices, tmp_path):
        t, n = matrices
        states = []
        MultiHitSolver(hits=3, prune=True, max_iterations=2).solve(
            t, n, on_iteration=states.append
        )
        path = tmp_path / "ck.json"
        save_state(states[-1], path)
        loaded = load_state(path)
        assert loaded.bound_table == states[-1].bound_table
        full = MultiHitSolver(hits=3, prune=True).solve(t, n)
        resumed = MultiHitSolver(hits=3, prune=True).solve(t, n, resume=loaded)
        assert signature(resumed) == signature(full)

    def test_mismatched_table_geometry_dropped(self, matrices, block_count):
        t, n = matrices
        states = []
        MultiHitSolver(hits=3, prune=True, max_iterations=2).solve(
            t, n, on_iteration=states.append
        )
        block_count(16)
        full = MultiHitSolver(hits=3, prune=True).solve(t, n)
        # Different block geometry: the persisted table can't be adopted,
        # but the resumed run must still be bit-identical.
        resumed = MultiHitSolver(hits=3, prune=True).solve(
            t, n, resume=states[-1]
        )
        assert signature(resumed) == signature(full)
        assert resumed.iterations[0].combos_pruned == 0

    def test_unpruned_runs_checkpoint_without_table(self, matrices):
        t, n = matrices
        states = []
        MultiHitSolver(hits=3, max_iterations=1).solve(
            t, n, on_iteration=states.append
        )
        assert states[-1].bound_table is None
