"""Adversarial inputs on the native scan, and the sparsity index.

Every scan runs in the native kernel (``_tile.c``), which skips each
zero word of a thread's AND-reduced fixed rows.  The engineered matrices
below (all-zero rows, one bit per row, dense, sparse), the post-splice
widths and an all-ties block stress that skip, the word tail and the tie
rule.  On each, :func:`best_in_thread_range`, with the normal-hit store
off and filling, must equal the arg-max of a
:func:`score_combos_reference` grid, ties going to the smallest gene
tuple (:func:`best_of`), and the meter must close on the words the scan
gathers.  :class:`SparsityIndex` is read by
no scan; the benchmark harness reports its ``nonzero_fraction``.
"""

import dataclasses
import itertools
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.bitmatrix.matrix import BitMatrix
from repro.bitmatrix.sparsity import SparsityIndex, stride_any_mask
from repro.bitmatrix.splicing import splice_columns
from repro.combinatorics.enumeration import combinations_array
from repro.core.engine import NormalHitStore, SingleGpuEngine, best_in_thread_range
from repro.core.fscore import FScoreParams, fscore
from repro.core.kernels import (
    KernelCounters,
    best_of,
    score_combos,
    score_combos_reference,
)
from repro.core.solver import MultiHitSolver
from repro.scheduling.schemes import scheme_for
from repro.scheduling.workload import total_threads


def _all_combos(g, h):
    return np.array(list(itertools.combinations(range(g), h)), dtype=np.int64)


def _key(c):
    return (c.genes, c.f, c.tp, c.tn)


def _signature(combos):
    return [_key(c) for c in combos]


def _grid_argmax(tumor, normal, params, h):
    """The reference grid's winner under the tie rule."""
    combos = _all_combos(tumor.n_genes, h)
    return best_of(combos, *score_combos_reference(tumor, normal, combos, params))


def _scan(scheme, tumor, normal, params, store=None, **kw):
    """One native scan of the whole grid, through ``store`` (a
    :class:`NormalHitStore`) or none."""
    g = tumor.n_genes
    return best_in_thread_range(
        scheme, g, tumor, normal, params, 0, total_threads(scheme, g),
        normal_hits=store, **kw,
    )


def _assert_scans_match_reference(scheme, tumor, normal, params):
    ref = _key(_grid_argmax(tumor, normal, params, scheme.hits))
    for store in (None, NormalHitStore(scheme, tumor.n_genes, normal)):
        assert _key(_scan(scheme, tumor, normal, params, store)) == ref, store


def _closed_form_reads(scheme, g, row_words):
    """Words one unpruned scan of the whole grid gathers: ``f`` rows per
    thread with an inner loop, and its one inner table, that of the
    first thread's level, ``C(g-f, d)`` combinations of ``d`` rows."""
    f, d = scheme.flattened, scheme.inner
    return row_words * (f * math.comb(g - d, f) + d * math.comb(g - f, d))


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
        np.testing.assert_array_equal(
            idx.row_popcounts, m.to_dense().sum(axis=1)
        )
        assert idx.stride_any.shape[1] == (m.n_words + 1) // 2
        assert 0.0 <= idx.nonzero_fraction <= 1.0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            SparsityIndex.build(np.zeros(4, np.uint64), 2)

    def test_nonzero_fraction_extremes(self):
        dense = BitMatrix.from_dense(np.ones((3, 130), dtype=bool))
        assert dense.sparsity(1).nonzero_fraction == 1.0
        empty = BitMatrix.from_dense(np.zeros((3, 130), dtype=bool))
        assert empty.sparsity(1).nonzero_fraction == 0.0


# -- adversarial matrices on the native scan -----------------------------


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
    """Engineered sparse and dense inputs, scored by the native scan."""

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=4),
        st.sampled_from(KINDS),
        st.sampled_from(KINDS),
        st.integers(min_value=1, max_value=3),
    )
    def test_matches_reference_adversarial(self, seed, h, tk, nk, flattened):
        rng = np.random.default_rng(seed)
        g = int(rng.integers(h + 1, 10))
        ns = int(rng.integers(1, 500))
        tumor = _adversarial_matrix(rng, g, ns, tk)
        normal = _adversarial_matrix(rng, g, ns, nk)
        params = FScoreParams(n_tumor=ns, n_normal=ns)
        scheme = scheme_for(h, min(flattened, h - 1))
        _assert_scans_match_reference(scheme, tumor, normal, params)

    def test_post_splice_widths(self):
        # BitSplicing makes ragged widths (and wider zero tails); the
        # scan must stay exact on the compacted matrices.
        rng = np.random.default_rng(5)
        dense_t = rng.random((8, 300)) < 0.1
        dense_n = rng.random((8, 300)) < 0.05
        tumor = BitMatrix.from_dense(dense_t)
        normal = BitMatrix.from_dense(dense_n)
        for keep_fraction in (0.3, 0.7):
            keep = rng.random(300) < keep_fraction
            tumor_s = splice_columns(tumor, keep)
            assert tumor_s.n_words < tumor.n_words
            params = FScoreParams(n_tumor=tumor_s.n_samples, n_normal=300)
            for scheme in (scheme_for(3, 2), scheme_for(3, 1)):
                _assert_scans_match_reference(scheme, tumor_s, normal, params)

    def test_all_ties_block(self):
        # Every combination scores the same F: the winner is the
        # smallest gene tuple on either scan, as on the reference grid.
        ones = BitMatrix.from_dense(np.ones((9, 130), dtype=bool))
        zeros = BitMatrix.from_dense(np.zeros((9, 70), dtype=bool))
        params = FScoreParams(n_tumor=130, n_normal=70)
        for scheme in (scheme_for(3, 2), scheme_for(4, 2), scheme_for(4, 3)):
            assert _grid_argmax(ones, zeros, params, scheme.hits).genes == tuple(
                range(scheme.hits)
            )
            _assert_scans_match_reference(scheme, ones, zeros, params)

    @pytest.mark.parametrize("kind", KINDS)
    def test_counter_closure(self, kind):
        # The meter is what the scan gathers, whatever the words hold:
        # skipping zero words changes no count.  Without a store, a
        # thread its tumor prefix bounds gathers no normal row.
        rng = np.random.default_rng(9)
        tumor = _adversarial_matrix(rng, 9, 400, kind)
        normal = _adversarial_matrix(rng, 9, 400, "sparse")
        params = FScoreParams(n_tumor=400, n_normal=400)
        scheme = scheme_for(3, 2)
        c = KernelCounters()
        _scan(scheme, tumor, normal, params, counters=c)
        w = tumor.n_words + normal.n_words
        assert c.combos_scored == math.comb(9, 3)
        assert c.word_ops == math.comb(9, 3) * 2 * w
        assert c.word_reads == _closed_form_reads(scheme, 9, w) - (
            scheme.flattened * normal.n_words * c.threads_bounded
        )
        assert (c.decode_strides, c.inner_tables_built) == (1, 1)

    def test_zero_prefix_skip_is_gated_and_sound(self):
        # Gene 1's tumor row is all zero, so every thread whose fixed
        # genes include it has an all-zero prefix: each of its words is
        # skipped, and its combinations score TP = 0 exactly.  The prefix
        # ceiling fscore(0, Nn) gates those threads: once the lead is
        # above it, or at it behind a smaller leader, they are bounded
        # before any normal work, so never filled (sound: none of them
        # can win or tie), and the winner is unchanged.
        rng = np.random.default_rng(2)
        dense_t = rng.random((6, 100)) < 0.3
        dense_t[1] = False
        tumor = BitMatrix.from_dense(dense_t)
        normal = BitMatrix.from_dense(rng.random((6, 100)) < 0.1)
        params = FScoreParams(n_tumor=100, n_normal=100)
        scheme = scheme_for(3, 2)
        ref = _grid_argmax(tumor, normal, params, 3)
        ceiling = fscore(0, params.n_normal, params)
        assert ref.f > ceiling
        assert _key(_scan(scheme, tumor, normal, params)) == _key(ref)
        store = NormalHitStore(scheme, 6, normal)
        c = KernelCounters()
        got = _scan(scheme, tumor, normal, params, store, counters=c)
        assert _key(got) == _key(ref)
        n = math.comb(6 - scheme.inner, scheme.flattened)  # with inner loops
        tuples = combinations_array(scheme.flattened, 0, n)
        through_1 = np.flatnonzero((tuples == 1).any(axis=1))
        assert len(through_1) == 4
        # The first, thread 0, is scanned from no lead; the rest are
        # bounded by their prefix and never filled.
        assert through_1[0] == 0 and store.filled[0]
        assert not store.filled[through_1[1:]].any()
        assert c.threads_bounded >= len(through_1) - 1


# -- engine / backend equivalence -----------------------------------------


class TestEngineSparseEquivalence:
    def _instance(self, seed=0, g=12, ns=180):
        rng = np.random.default_rng(seed)
        tumor = BitMatrix.from_dense(rng.random((g, ns)) < 0.08)
        normal = BitMatrix.from_dense(rng.random((g, ns)) < 0.04)
        return tumor, normal, FScoreParams(n_tumor=ns, n_normal=ns)

    @pytest.mark.parametrize("scheme", [scheme_for(3, 1), scheme_for(3, 2)])
    @pytest.mark.parametrize("stride", [1, 2, 64])
    def test_winner_bit_identical(self, scheme, stride):
        # The native scan picks the winner of score_combos' grid at any
        # word stride.
        tumor, normal, params = self._instance()
        native = SingleGpuEngine(scheme=scheme).best_combo(tumor, normal, params)
        combos = _all_combos(tumor.n_genes, scheme.hits)
        got = best_of(combos, *score_combos(
            tumor, normal, combos, params, word_stride=stride,
        ))
        assert got == native

    @pytest.mark.parametrize("scheme", [scheme_for(3, 1), scheme_for(3, 2)])
    def test_pruned_sparse_matches_dense(self, scheme):
        # On a sparse instance the engine, filling its store and then
        # reading it, picks the winner of the reference grid.
        tumor, normal, params = self._instance(seed=3)
        want = _grid_argmax(tumor, normal, params, scheme.hits)
        c = KernelCounters()
        eng = SingleGpuEngine(scheme=scheme)
        first = eng.best_combo(tumor, normal, params, counters=c)
        again = eng.best_combo(tumor, normal, params, counters=c)
        assert _key(first) == _key(again) == _key(want)

    def test_engine_counter_closure_unpruned(self):
        # The scan that fills the normal-hit store gathers both matrices;
        # the next one reads the stored counts and gathers tumor rows
        # only.  Same winner, same combinations scored.
        tumor, normal, params = self._instance(seed=7)
        scheme = scheme_for(3, 2)
        g = tumor.n_genes
        store = NormalHitStore(scheme, g, normal)
        fill, read = KernelCounters(), KernelCounters()
        a = _scan(scheme, tumor, normal, params, store, counters=fill)
        b = _scan(scheme, tumor, normal, params, store, counters=read)
        assert a == b == _grid_argmax(tumor, normal, params, 3)
        assert read.combos_scored == fill.combos_scored == math.comb(g, 3)
        # A thread its tumor prefix bounds is not filled: the fill skips
        # its normal rows, and the read bounds it again (the lead moves
        # alike) and builds the normal table for it.
        unfilled = int((~store.filled[: math.comb(g - 1, 2)]).sum())
        f, d = scheme.flattened, scheme.inner
        table = d * math.comb(g - f, d)  # the scan's one inner table
        w = tumor.n_words + normal.n_words
        assert fill.word_reads == _closed_form_reads(scheme, g, w) - (
            f * normal.n_words * unfilled
        )
        assert read.word_reads == _closed_form_reads(scheme, g, tumor.n_words) + (
            normal.n_words * table if unfilled else 0
        )

    def test_counters_merge_new_fields(self):
        # merge sums every field; the retired sparse counters are
        # read-only aliases that read 0 (the benchmark harness reads them).
        names = [f.name for f in dataclasses.fields(KernelCounters)]
        a = KernelCounters(**{n: i for i, n in enumerate(names, 1)})
        a.merge(KernelCounters(**{n: 10 * i for i, n in enumerate(names, 1)}))
        assert [getattr(a, n) for n in names] == [
            11 * i for i in range(1, len(names) + 1)
        ]
        retired = (
            "strides_skipped_sparse", "prefix_and_hits",
            "zero_prefix_runs_skipped", "word_reads_skipped",
        )
        for name in retired:
            assert name not in names
            assert getattr(a, name) == 0
            with pytest.raises(AttributeError):
                setattr(a, name, 1)
            with pytest.raises(TypeError):
                KernelCounters(**{name: 1})


class TestSolverBackendsSparse:
    def _cohort(self, seed=1):
        rng = np.random.default_rng(seed)
        t = rng.random((10, 40)) < 0.25
        n = rng.random((10, 40)) < 0.1
        return t, n

    def test_serial_pool_distributed_elastic_agree(self):
        t, n = self._cohort()
        ref = MultiHitSolver(hits=3).solve(t, n)
        configs = [
            dict(prune=True),
            dict(backend="pool", n_workers=2),
            dict(backend="pool", n_workers=2, prune=True),
            dict(backend="distributed", n_nodes=2),
            dict(backend="distributed", n_nodes=2, elastic=True),
        ]
        for kw in configs:
            got = MultiHitSolver(hits=3, **kw).solve(t, n)
            assert _signature(got.combinations) == _signature(ref.combinations)
            assert got.uncovered == ref.uncovered
            assert got.counters.combos_scored == ref.counters.combos_scored

    def test_solver_closure_and_savings(self):
        # The store saves every normal gather after the first iteration
        # and moves nothing else; each solve's iterations (four, then the
        # cap ends the loop) sum to its run total.
        t, n = self._cohort(seed=6)
        stored = MultiHitSolver(hits=3, max_iterations=4).solve(t, n)
        with patch.object(engine_mod, "NORMAL_HIT_BUDGET", 0):
            plain = MultiHitSolver(hits=3, max_iterations=4).solve(t, n)
        assert _signature(stored.combinations) == _signature(plain.combinations)
        assert len(stored.iterations) == 4
        sc, pc = stored.counters, plain.counters
        assert (sc.combos_scored, sc.word_ops) == (pc.combos_scored, pc.word_ops)
        for result in (stored, plain):
            assert sum(r.word_reads for r in result.iterations) == (
                result.counters.word_reads
            )
        assert sc.word_reads < pc.word_reads
