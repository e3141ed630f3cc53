"""Tests for the BitMatrix container and its bitwise kernels."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bitmatrix.matrix import BitMatrix
from repro.bitmatrix.packing import words_for


def random_dense(rng, g=10, s=100, p=0.3):
    return rng.random((g, s)) < p


class TestConstruction:
    def test_from_dense_roundtrip(self, rng):
        dense = random_dense(rng)
        m = BitMatrix.from_dense(dense)
        assert m.n_genes == 10
        assert m.n_samples == 100
        assert m.n_words == words_for(100)
        np.testing.assert_array_equal(m.to_dense(), dense)

    def test_zeros(self):
        m = BitMatrix.zeros(4, 100)
        assert not m.to_dense().any()

    def test_rejects_wrong_word_count(self):
        with pytest.raises(ValueError):
            BitMatrix(np.zeros((2, 3), dtype=np.uint64), 64)

    def test_rejects_dirty_tail_bits(self):
        words = np.zeros((1, 1), dtype=np.uint64)
        words[0, 0] = np.uint64(1) << np.uint64(10)
        with pytest.raises(ValueError):
            BitMatrix(words, 10)  # bit 10 is beyond the 10 valid samples

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            BitMatrix(np.zeros(4, dtype=np.uint64), 10)

    def test_nbytes(self):
        m = BitMatrix.zeros(100, 911)
        assert m.nbytes == 100 * 15 * 8

    def test_equality(self, rng):
        dense = random_dense(rng)
        a = BitMatrix.from_dense(dense)
        b = BitMatrix.from_dense(dense)
        c = BitMatrix.from_dense(~dense)
        assert a == b
        assert a != c
        assert (a == 42) is False or (a == 42) is NotImplemented or True


class TestKernels:
    def test_and_reduce_matches_dense(self, rng):
        dense = random_dense(rng, g=12)
        m = BitMatrix.from_dense(dense)
        for genes in [[0], [1, 5], [2, 3, 7], [0, 4, 8, 11]]:
            expected = np.logical_and.reduce(dense[genes], axis=0)
            got = m.samples_with_all(genes)
            np.testing.assert_array_equal(got, expected)
            assert m.count_samples_with_all(genes) == int(expected.sum())

    def test_and_reduce_requires_genes(self, rng):
        m = BitMatrix.from_dense(random_dense(rng))
        with pytest.raises(ValueError):
            m.and_reduce([])

    def test_row_is_view(self, rng):
        m = BitMatrix.from_dense(random_dense(rng))
        assert m.row(3).base is not None

    def test_and_reduce_does_not_mutate(self, rng):
        dense = random_dense(rng)
        m = BitMatrix.from_dense(dense)
        before = m.words.copy()
        m.and_reduce([0, 1, 2])
        np.testing.assert_array_equal(m.words, before)

    def test_sample_mask_to_words(self, rng):
        m = BitMatrix.from_dense(random_dense(rng, s=70))
        mask = rng.random(70) < 0.5
        words = m.sample_mask_to_words(mask)
        assert words.shape == (m.n_words,)
        assert int(np.bitwise_count(words).sum()) == int(mask.sum())

    def test_sample_mask_shape_check(self, rng):
        m = BitMatrix.from_dense(random_dense(rng, s=70))
        with pytest.raises(ValueError):
            m.sample_mask_to_words(np.ones(71, dtype=bool))

    @given(
        arrays(
            dtype=bool,
            shape=st.tuples(
                st.integers(min_value=2, max_value=6),
                st.integers(min_value=1, max_value=130),
            ),
        ),
        st.data(),
    )
    def test_hypothesis_and_counts(self, dense, data):
        g = dense.shape[0]
        k = data.draw(st.integers(min_value=1, max_value=g))
        genes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=g - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        m = BitMatrix.from_dense(dense)
        expected = int(np.logical_and.reduce(dense[genes], axis=0).sum())
        assert m.count_samples_with_all(genes) == expected
