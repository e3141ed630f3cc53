"""Sparsity-driven scoring path: index units, exactness, counter closure.

The contract under test: ``sparse=True`` is a *traffic* optimization —
``(f, tp, tn)``, winners, and ``combos_scored`` are bit-identical to the
dense path on every backend, and the metered traffic closes exactly
(``word_reads + word_reads_skipped`` reproduces the dense charge).  Only
the flat scheme's ``score_combos`` has a sparse body; on nested schemes
the switch selects nothing, which the engine-level checks pin too.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bitmatrix.matrix import BitMatrix
from repro.bitmatrix.sparsity import SparsityIndex, stride_any_mask
from repro.bitmatrix.splicing import splice_columns
from repro.core.bounds import BoundTable
from repro.core.engine import SingleGpuEngine, best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.kernels import (
    KernelCounters,
    best_of,
    score_combos,
    score_combos_reference,
    tp_zero_ceiling,
)
from repro.core.solver import MultiHitSolver
from repro.scheduling.schemes import scheme_for
from repro.scheduling.workload import total_threads


def _all_combos(g, h):
    return np.array(list(itertools.combinations(range(g), h)), dtype=np.int64)


def _signature(combos):
    return [(c.genes, c.f, c.tp, c.tn) for c in combos]


# -- the index ------------------------------------------------------------


class TestSparsityIndex:
    def test_stride_any_mask_basics(self):
        words = np.zeros((3, 10), dtype=np.uint64)
        words[0, 0] = 1
        words[1, 9] = 1
        mask = stride_any_mask(words, 4)  # strides [0:4) [4:8) [8:10)
        np.testing.assert_array_equal(
            mask,
            [[True, False, False], [False, False, True], [False, False, False]],
        )

    def test_single_row_and_empty_width(self):
        row = np.array([0, 0, 7], dtype=np.uint64)
        np.testing.assert_array_equal(stride_any_mask(row, 2), [False, True])
        assert stride_any_mask(np.zeros((2, 0), np.uint64), 4).shape == (2, 0)
        with pytest.raises(ValueError):
            stride_any_mask(row, 0)

    def test_build_and_caching(self):
        rng = np.random.default_rng(0)
        m = BitMatrix.from_dense(rng.random((6, 200)) < 0.05)
        idx = m.sparsity(2)
        assert isinstance(idx, SparsityIndex)
        assert m.sparsity(2) is idx  # cached per stride
        assert m.sparsity(4) is not idx
        np.testing.assert_array_equal(idx.row_popcounts, m.popcount_rows())
        assert idx.n_strides == (m.n_words + 1) // 2
        assert 0.0 <= idx.nonzero_fraction <= 1.0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            SparsityIndex.build(np.zeros(4, np.uint64), 2)

    def test_nonzero_fraction_extremes(self):
        dense = BitMatrix.from_dense(np.ones((3, 130), dtype=bool))
        assert dense.sparsity(1).nonzero_fraction == 1.0
        empty = BitMatrix.from_dense(np.zeros((3, 130), dtype=bool))
        assert empty.sparsity(1).nonzero_fraction == 0.0


# -- kernel exactness and closure -----------------------------------------


def _adversarial_matrix(rng, g, n_samples, kind):
    """Matrices engineered to stress each sparse mechanism."""
    if kind == "zero_rows":
        dense = rng.random((g, n_samples)) < 0.2
        dense[:: max(2, g // 3)] = False  # several all-zero rows
    elif kind == "single_bit":
        dense = np.zeros((g, n_samples), dtype=bool)
        dense[np.arange(g), rng.integers(0, n_samples, g)] = True
    elif kind == "dense":
        dense = rng.random((g, n_samples)) < 0.9
    else:  # sparse
        dense = rng.random((g, n_samples)) < 0.03
    return BitMatrix.from_dense(dense)


KINDS = ["zero_rows", "single_bit", "dense", "sparse"]


class TestSparseScoreCombos:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=4),
        st.sampled_from(KINDS),
        st.sampled_from(KINDS),
        st.sampled_from([1, 3, 8, 64]),
    )
    def test_matches_reference_adversarial(self, seed, h, tk, nk, stride):
        rng = np.random.default_rng(seed)
        g = int(rng.integers(h + 1, 10))
        ns = int(rng.integers(1, 500))
        tumor = _adversarial_matrix(rng, g, ns, tk)
        normal = _adversarial_matrix(rng, g, ns, nk)
        params = FScoreParams(n_tumor=ns, n_normal=ns)
        combos = _all_combos(g, h)
        f, tp, tn = score_combos(
            tumor, normal, combos, params, sparse=True, word_stride=stride
        )
        rf, rtp, rtn = score_combos_reference(tumor, normal, combos, params)
        np.testing.assert_array_equal(tp, rtp)
        np.testing.assert_array_equal(tn, rtn)
        np.testing.assert_array_equal(f, rf)

    def test_post_splice_widths(self):
        # BitSplicing makes ragged widths (and wider zero tails); the
        # sparse path must stay exact on the compacted matrices.
        rng = np.random.default_rng(5)
        dense_t = rng.random((8, 300)) < 0.1
        dense_n = rng.random((8, 300)) < 0.05
        tumor = BitMatrix.from_dense(dense_t)
        normal = BitMatrix.from_dense(dense_n)
        keep = rng.random(300) < 0.3
        tumor_s = splice_columns(tumor, keep)
        params = FScoreParams(n_tumor=tumor_s.n_samples, n_normal=300)
        combos = _all_combos(8, 3)
        for stride in (1, 2, 64):
            f, tp, tn = score_combos(
                tumor_s, normal, combos, params, sparse=True, word_stride=stride
            )
            rf, rtp, rtn = score_combos_reference(tumor_s, normal, combos, params)
            np.testing.assert_array_equal(tp, rtp)
            np.testing.assert_array_equal(tn, rtn)

    @pytest.mark.parametrize("kind", KINDS)
    def test_counter_closure(self, kind):
        rng = np.random.default_rng(9)
        tumor = _adversarial_matrix(rng, 9, 400, kind)
        normal = _adversarial_matrix(rng, 9, 400, "sparse")
        params = FScoreParams(n_tumor=400, n_normal=400)
        combos = _all_combos(9, 3)
        dense_c = KernelCounters()
        score_combos(tumor, normal, combos, params, dense_c, word_stride=2)
        sparse_c = KernelCounters()
        score_combos(
            tumor, normal, combos, params, sparse_c, word_stride=2, sparse=True
        )
        # Identical work accounting; traffic closes against the dense charge.
        assert sparse_c.combos_scored == dense_c.combos_scored == len(combos)
        assert (
            sparse_c.word_reads + sparse_c.word_reads_skipped
            == dense_c.word_reads
            == len(combos) * 3 * (tumor.n_words + normal.n_words)
        )
        assert sparse_c.word_reads >= 0
        # Prefix caching always engages for h > 1 on the full combo grid.
        assert sparse_c.prefix_and_hits > 0

    def test_zero_prefix_skip_is_gated_and_sound(self):
        # A tumor matrix with an all-zero gene makes every run through it
        # zero-prefix.  Without skip_below the values stay exact; with a
        # strictly-better incumbent the skipped rows report the ceiling.
        rng = np.random.default_rng(2)
        dense_t = rng.random((6, 100)) < 0.3
        dense_t[5] = False  # gene 5 kills any combo containing it
        tumor = BitMatrix.from_dense(dense_t)
        normal = BitMatrix.from_dense(rng.random((6, 100)) < 0.1)
        params = FScoreParams(n_tumor=100, n_normal=100)
        combos = _all_combos(6, 3)
        rf, rtp, rtn = score_combos_reference(tumor, normal, combos, params)
        # Exact without skip_below.
        f, tp, tn = score_combos(tumor, normal, combos, params, sparse=True)
        np.testing.assert_array_equal(tn, rtn)
        ceiling = tp_zero_ceiling(params)
        c = KernelCounters()
        f2, tp2, tn2 = score_combos(
            tumor, normal, combos, params, c, sparse=True,
            skip_below=ceiling + 0.1,
        )
        assert c.zero_prefix_runs_skipped > 0
        np.testing.assert_array_equal(tp2, rtp)  # tp is exact either way
        skipped = tp2 == 0
        # Skipped rows sit exactly at the ceiling — a sound upper bound
        # that can never beat or tie a strictly-better incumbent.
        assert np.all(f2 <= np.maximum(rf, ceiling))
        assert np.all(f2[~skipped] == rf[~skipped])
        # With skip_below at/below the ceiling nothing is skipped.
        c2 = KernelCounters()
        f3, _, tn3 = score_combos(
            tumor, normal, combos, params, c2, sparse=True, skip_below=ceiling
        )
        assert c2.zero_prefix_runs_skipped == 0
        np.testing.assert_array_equal(tn3, rtn)


# -- engine / backend equivalence -----------------------------------------


class TestEngineSparseEquivalence:
    def _instance(self, seed=0, g=12, ns=180):
        rng = np.random.default_rng(seed)
        tumor = BitMatrix.from_dense(rng.random((g, ns)) < 0.08)
        normal = BitMatrix.from_dense(rng.random((g, ns)) < 0.04)
        return tumor, normal, FScoreParams(n_tumor=ns, n_normal=ns)

    @pytest.mark.parametrize("scheme", [scheme_for(3, 3), scheme_for(3, 2)])
    @pytest.mark.parametrize("stride", [1, 2, 64])
    def test_winner_bit_identical(self, scheme, stride):
        # The engine scans at the kernel's default stride; the sparse
        # kernel at any stride picks the engine's dense winner.
        tumor, normal, params = self._instance()
        dense = SingleGpuEngine(scheme=scheme).best_combo(tumor, normal, params)
        combos = _all_combos(tumor.n_genes, scheme.hits)
        got = best_of(combos, *score_combos(
            tumor, normal, combos, params, sparse=True, word_stride=stride,
        ))
        assert got == dense

    @pytest.mark.parametrize("scheme", [scheme_for(3, 3), scheme_for(3, 2)])
    def test_pruned_sparse_matches_dense(self, scheme):
        tumor, normal, params = self._instance(seed=3)
        g = tumor.n_genes
        dense = SingleGpuEngine(scheme=scheme).best_combo(tumor, normal, params)
        table = BoundTable.build(scheme, g)
        c = KernelCounters()
        eng = SingleGpuEngine(scheme=scheme, sparse=True)
        first = eng.best_combo(tumor, normal, params, counters=c, bounds=table)
        again = eng.best_combo(tumor, normal, params, counters=c, bounds=table)
        assert first == dense
        assert again == dense

    def test_engine_counter_closure_unpruned(self):
        # Same scan, sparse vs dense: identical combos_scored, and the
        # traffic plus its skipped complement reproduces the dense model
        # charge exactly (the nested scan has one body, so skipped is 0).
        tumor, normal, params = self._instance(seed=7)
        scheme = scheme_for(3, 2)
        end = total_threads(scheme, tumor.n_genes)
        dense_c, sparse_c = KernelCounters(), KernelCounters()
        a = best_in_thread_range(
            scheme, tumor.n_genes, tumor, normal, params, 0, end,
            counters=dense_c,
        )
        b = best_in_thread_range(
            scheme, tumor.n_genes, tumor, normal, params, 0, end,
            counters=sparse_c, sparse=True,
        )
        assert a == b
        assert sparse_c.combos_scored == dense_c.combos_scored
        assert (
            sparse_c.word_reads + sparse_c.word_reads_skipped
            == dense_c.word_reads
        )

    def test_counters_merge_new_fields(self):
        a = KernelCounters(
            strides_skipped_sparse=1, prefix_and_hits=2,
            zero_prefix_runs_skipped=3, word_reads_skipped=4,
        )
        a.merge(
            KernelCounters(
                strides_skipped_sparse=10, prefix_and_hits=20,
                zero_prefix_runs_skipped=30, word_reads_skipped=40,
            )
        )
        assert (
            a.strides_skipped_sparse, a.prefix_and_hits,
            a.zero_prefix_runs_skipped, a.word_reads_skipped,
        ) == (11, 22, 33, 44)


class TestSolverBackendsSparse:
    def _cohort(self, seed=1):
        rng = np.random.default_rng(seed)
        t = rng.random((10, 40)) < 0.25
        n = rng.random((10, 40)) < 0.1
        return t, n

    def test_serial_pool_distributed_elastic_agree(self):
        t, n = self._cohort()
        ref = MultiHitSolver(hits=3, sparse=False).solve(t, n)
        configs = [
            dict(),
            dict(prune=True),
            dict(backend="pool", n_workers=2),
            dict(backend="pool", n_workers=2, prune=True),
            dict(backend="distributed", n_nodes=2),
            dict(backend="distributed", n_nodes=2, elastic=True),
        ]
        for kw in configs:
            got = MultiHitSolver(hits=3, sparse=True, **kw).solve(t, n)
            assert _signature(got.combinations) == _signature(ref.combinations)
            assert got.uncovered == ref.uncovered
            assert (
                got.counters.combos_scored + got.counters.combos_pruned
                == ref.counters.combos_scored
            )

    def test_solver_closure_and_savings(self):
        t, n = self._cohort(seed=6)
        dense = MultiHitSolver(hits=3, sparse=False).solve(t, n)
        sparse = MultiHitSolver(hits=3, sparse=True).solve(t, n)
        sc, dc = sparse.counters, dense.counters
        assert sc.combos_scored == dc.combos_scored
        assert sc.word_reads + sc.word_reads_skipped == dc.word_reads
        assert sc.word_reads <= dc.word_reads
