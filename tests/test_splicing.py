"""Tests for BitSplicing (covered-column removal)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bitmatrix.matrix import BitMatrix
from repro.bitmatrix.splicing import splice_columns


class TestSplice:
    def test_removes_columns(self, rng):
        dense = rng.random((6, 100)) < 0.4
        keep = rng.random(100) < 0.5
        m = splice_columns(BitMatrix.from_dense(dense), keep)
        assert m.n_samples == int(keep.sum())
        np.testing.assert_array_equal(m.to_dense(), dense[:, keep])

    def test_word_width_shrinks(self):
        dense = np.ones((2, 200), dtype=bool)
        keep = np.zeros(200, dtype=bool)
        keep[:64] = True
        m = splice_columns(BitMatrix.from_dense(dense), keep)
        assert m.n_words == 1  # 200 samples (4 words) -> 64 samples (1 word)

    def test_keep_all_returns_same_object(self, rng):
        m = BitMatrix.from_dense(rng.random((3, 50)) < 0.5)
        assert splice_columns(m, np.ones(50, dtype=bool)) is m

    def test_keep_none(self, rng):
        m = BitMatrix.from_dense(rng.random((3, 50)) < 0.5)
        out = splice_columns(m, np.zeros(50, dtype=bool))
        assert out.n_samples == 0
        assert out.n_words == 0

    def test_shape_check(self, rng):
        m = BitMatrix.from_dense(rng.random((3, 50)) < 0.5)
        with pytest.raises(ValueError):
            splice_columns(m, np.ones(51, dtype=bool))

    def test_popcounts_preserved_on_kept_columns(self, rng):
        dense = rng.random((5, 130)) < 0.3
        keep = rng.random(130) < 0.7
        m = splice_columns(BitMatrix.from_dense(dense), keep)
        np.testing.assert_array_equal(
            np.bitwise_count(m.words).sum(axis=1), dense[:, keep].sum(axis=1)
        )

    @given(
        arrays(
            dtype=bool,
            shape=st.tuples(
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=1, max_value=150),
            ),
        ),
        st.data(),
    )
    def test_hypothesis_matches_dense_slice(self, dense, data):
        keep = data.draw(arrays(dtype=bool, shape=dense.shape[1]))
        m = splice_columns(BitMatrix.from_dense(dense), keep)
        np.testing.assert_array_equal(m.to_dense(), dense[:, keep])
