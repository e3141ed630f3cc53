"""Tests for the vectorized scoring kernels."""

import itertools
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest

from repro.bitmatrix.matrix import BitMatrix
from repro.core import tile
from repro.core.fscore import FScoreParams
from repro.core.kernels import (
    DEFAULT_WORD_STRIDE,
    KernelCounters,
    best_of,
    fused_pair_popcount,
    resolve_word_stride,
    score_combos,
    score_combos_reference,
)


#: The two tile bodies, the native kernel and the numpy fallback
#: (``tile.FALLBACK``); each must give the same answers.  Only the
#: fallback calls ``fused_pair_popcount``, which has one body: it must
#: not depend on which path the process is on.
TILE_PATHS = ("native", "fallback")


@contextmanager
def tile_path(path: str):
    """Score tiles on ``path``: the native kernel or the numpy fallback."""
    with patch.object(tile, "FALLBACK", path == "fallback"):
        yield


def _words(rng, shape) -> np.ndarray:
    """Packed words over the whole uint64 range, bit 63 included."""
    return rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)


def _pair_popcount(base, inner) -> np.ndarray:
    """The ``(B, L)`` reference: one ``(B, L, W)`` broadcast."""
    return np.bitwise_count(base[:, None, :] & inner[None, :, :]).sum(axis=2)


class TestScoreCombos:
    def test_matches_dense_reference(self, small_matrices):
        t, n, params = small_matrices
        tumor = BitMatrix.from_dense(t)
        normal = BitMatrix.from_dense(n)
        combos = np.array(list(itertools.combinations(range(8), 3)))
        f, tp, tn = score_combos(tumor, normal, combos, params)
        for row, fv, tpv, tnv in zip(combos, f, tp, tn):
            e_tp = int(np.logical_and.reduce(t[row], axis=0).sum())
            e_tn = params.n_normal - int(np.logical_and.reduce(n[row], axis=0).sum())
            assert tpv == e_tp
            assert tnv == e_tn
            assert fv == pytest.approx((0.1 * e_tp + e_tn) / params.denominator)

    def test_empty_block(self, small_bitmatrices):
        tumor, normal, params = small_bitmatrices
        f, tp, tn = score_combos(tumor, normal, np.empty((0, 3), dtype=int), params)
        assert len(f) == len(tp) == len(tn) == 0

    def test_rejects_1d(self, small_bitmatrices):
        tumor, normal, params = small_bitmatrices
        with pytest.raises(ValueError):
            score_combos(tumor, normal, np.array([1, 2, 3]), params)

    def test_does_not_mutate_matrices(self, small_bitmatrices):
        tumor, normal, params = small_bitmatrices
        before_t = tumor.words.copy()
        before_n = normal.words.copy()
        score_combos(tumor, normal, np.array([[0, 1, 2], [3, 4, 5]]), params)
        np.testing.assert_array_equal(tumor.words, before_t)
        np.testing.assert_array_equal(normal.words, before_n)

    def test_counters_accumulate(self, small_bitmatrices):
        tumor, normal, params = small_bitmatrices
        counters = KernelCounters()
        combos = np.array([[0, 1], [2, 3], [4, 5]])
        score_combos(tumor, normal, combos, params, counters)
        assert counters.combos_scored == 3
        assert counters.word_reads == 3 * 2 * (tumor.n_words + normal.n_words)
        score_combos(tumor, normal, combos, params, counters)
        assert counters.combos_scored == 6

    def test_counters_merge(self):
        a = KernelCounters(combos_scored=1, word_reads=2, word_ops=3)
        b = KernelCounters(combos_scored=10, word_reads=20, word_ops=30)
        a.merge(b)
        assert (a.combos_scored, a.word_reads, a.word_ops) == (11, 22, 33)

    def test_counters_merge_fusion_fields(self):
        a = KernelCounters(threads_skipped=1, decode_strides=2, inner_tables_built=3)
        b = KernelCounters(threads_skipped=10, decode_strides=20, inner_tables_built=30)
        a.merge(b)
        assert (a.threads_skipped, a.decode_strides, a.inner_tables_built) == (
            11,
            22,
            33,
        )


class TestFusedKernels:
    """The fused kernels (word-stride ``score_combos``, the fallback's
    ``fused_pair_popcount``) must be bit-identical to the single-shot reference — popcounts are exact
    integers, so any drift is a bug, not rounding."""

    def _random_matrices(self, rng, n_genes, n_samples):
        t = rng.random((n_genes, n_samples)) < 0.35
        n = rng.random((n_genes, n_samples)) < 0.15
        tumor = BitMatrix.from_dense(t)
        normal = BitMatrix.from_dense(n)
        params = FScoreParams(n_tumor=n_samples, n_normal=n_samples, alpha=0.1)
        return tumor, normal, params

    @pytest.mark.parametrize("n_samples", [70, 64 * DEFAULT_WORD_STRIDE + 130])
    def test_score_combos_matches_reference(self, n_samples):
        # The wide case spans multiple word strides (n_words > DEFAULT_WORD_STRIDE),
        # so the fused accumulator actually folds across stride slices.
        rng = np.random.default_rng(42)
        tumor, normal, params = self._random_matrices(rng, 30, n_samples)
        for h in (2, 3, 4):
            combos = np.sort(
                rng.choice(30, size=(50, h), replace=True), axis=1
            )
            combos = combos[(np.diff(combos, axis=1) > 0).all(axis=1)]
            f, tp, tn = score_combos(tumor, normal, combos, params)
            rf, rtp, rtn = score_combos_reference(tumor, normal, combos, params)
            np.testing.assert_array_equal(tp, rtp)
            np.testing.assert_array_equal(tn, rtn)
            np.testing.assert_array_equal(f, rf)

    @pytest.mark.parametrize("n_words", [
        1, DEFAULT_WORD_STRIDE - 1, DEFAULT_WORD_STRIDE, DEFAULT_WORD_STRIDE + 3,
    ])
    def test_fused_pair_popcount_matches_broadcast(self, n_words):
        rng = np.random.default_rng(7)
        base = _words(rng, (13, n_words))
        inner = _words(rng, (9, n_words))
        got = fused_pair_popcount(base, np.ascontiguousarray(inner.T))
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, _pair_popcount(base, inner))

    @pytest.mark.parametrize("path", TILE_PATHS)
    @pytest.mark.parametrize("shape", [
        (1, 5, 9), (13, 5, 1), (1, 1, 1), (0, 5, 9),
        (300, 32, 200),  # a dense tile: every word live on the fallback
    ])
    def test_fused_pair_popcount_edge_shapes(self, shape, path):
        n_rows, n_words, n_cols = shape
        rng = np.random.default_rng(11)
        base = _words(rng, (n_rows, n_words))
        inner = _words(rng, (n_cols, n_words))
        with tile_path(path):
            got = fused_pair_popcount(base, np.ascontiguousarray(inner.T))
        np.testing.assert_array_equal(got, _pair_popcount(base, inner))

    @pytest.mark.parametrize("path", TILE_PATHS)
    def test_fused_pair_popcount_skips_zero_words(self, path):
        # Zero base columns, a zero base row, a zero inner row and an
        # all-zero base: a skipped word adds 0 to every count.
        rng = np.random.default_rng(5)
        base = _words(rng, (8, 5))
        base[:, [0, 3]] = 0
        base[6] = 0
        inner = _words(rng, (6, 5))
        inner[2] = 0
        inner_w = np.ascontiguousarray(inner.T)
        with tile_path(path):
            got = fused_pair_popcount(base, inner_w)
            zero = fused_pair_popcount(np.zeros_like(base), inner_w)
        np.testing.assert_array_equal(got, _pair_popcount(base, inner))
        assert not got[6].any() and not got[:, 2].any()
        assert not zero.any()

    @pytest.mark.parametrize("path", TILE_PATHS)
    def test_fused_pair_popcount_rejects_what_it_cannot_read(self, path):
        rng = np.random.default_rng(3)
        base = _words(rng, (4, 6))
        inner_w = _words(rng, (6, 5))
        with tile_path(path):
            for bad in (
                (base[:, ::2], inner_w[:3]),  # a strided base
                (base, np.asfortranarray(inner_w)),
                (base.view(np.int64), inner_w),
            ):
                with pytest.raises(ValueError, match="C-contiguous uint64"):
                    fused_pair_popcount(*bad)
            with pytest.raises(ValueError, match="words"):
                fused_pair_popcount(base, inner_w[:5])


class TestBestOf:
    def test_empty(self):
        assert best_of(np.empty((0, 2)), np.array([]), np.array([]), np.array([])) is None

    def test_picks_max(self):
        combos = np.array([[0, 1], [0, 2], [1, 2]])
        f = np.array([0.1, 0.9, 0.5])
        best = best_of(combos, f, np.array([1, 2, 3]), np.array([4, 5, 6]))
        assert best.genes == (0, 2)
        assert best.f == pytest.approx(0.9)
        assert (best.tp, best.tn) == (2, 5)

    def test_tie_break_lexicographic(self):
        combos = np.array([[1, 3], [0, 9], [0, 5]])
        f = np.array([0.5, 0.5, 0.5])
        best = best_of(combos, f, np.zeros(3, int), np.zeros(3, int))
        assert best.genes == (0, 5)

    def test_many_ties_vectorized_lexmin(self):
        # Regression for the tie-break: thousands of tied rows must
        # resolve to the lexicographically smallest tuple (and recover
        # that row's tp/tn), without a Python min() over the tie set.
        rng = np.random.default_rng(3)
        combos = np.sort(
            rng.integers(0, 50, size=(5000, 3), dtype=np.int64), axis=1
        )
        combos = combos[(np.diff(combos, axis=1) > 0).all(axis=1)]
        f = np.full(len(combos), 0.25)
        f[::7] = 0.75  # a large tied subset at the max
        tied = combos[f == 0.75]
        want = min(map(tuple, tied.tolist()))
        tp = np.arange(len(combos))
        tn = np.arange(len(combos)) + 1000
        best = best_of(combos, f, tp, tn)
        assert best.genes == want
        row = int(np.flatnonzero((combos == np.array(want)).all(axis=1))[0])
        assert (best.tp, best.tn) == (row, row + 1000)

    def test_all_rows_tied(self):
        combos = np.array([[2, 9], [0, 3], [0, 1], [5, 6]])
        f = np.full(4, 0.5)
        best = best_of(combos, f, np.arange(4), np.arange(4))
        assert best.genes == (0, 1)
        assert best.tp == 2


class TestWordStride:
    def test_resolve_default_and_validation(self):
        assert resolve_word_stride(None) == DEFAULT_WORD_STRIDE
        assert resolve_word_stride(3) == 3
        for bad in (0, -8):
            with pytest.raises(ValueError):
                resolve_word_stride(bad)

    @pytest.mark.parametrize("stride", [1, 8, 4096])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_bit_identity_across_strides(self, stride, sparse):
        # The stride is a traffic knob, never a results knob: popcounts
        # are exact at any slice width (1 = word-at-a-time, 4096 >> any
        # matrix width here = single-shot).
        rng = np.random.default_rng(11)
        t = rng.random((20, 300)) < 0.3
        n = rng.random((20, 300)) < 0.1
        tumor = BitMatrix.from_dense(t)
        normal = BitMatrix.from_dense(n)
        params = FScoreParams(n_tumor=300, n_normal=300)
        combos = np.array(list(itertools.combinations(range(20), 3))[:200])
        f, tp, tn = score_combos(
            tumor, normal, combos, params, word_stride=stride, sparse=sparse
        )
        rf, rtp, rtn = score_combos_reference(tumor, normal, combos, params)
        np.testing.assert_array_equal(tp, rtp)
        np.testing.assert_array_equal(tn, rtn)
        np.testing.assert_array_equal(f, rf)
