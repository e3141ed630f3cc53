"""Tests for the labeled GeneSampleMatrix."""

import numpy as np
import pytest

from repro.data.matrices import GeneSampleMatrix


def make(g=4, s=6, seed=0):
    rng = np.random.default_rng(seed)
    return GeneSampleMatrix(
        rng.random((g, s)) < 0.5,
        tuple(f"g{i}" for i in range(g)),
        tuple(f"s{i}" for i in range(s)),
    )


class TestValidation:
    def test_label_lengths_checked(self):
        with pytest.raises(ValueError):
            GeneSampleMatrix(np.zeros((2, 3), dtype=bool), ("a",), ("x", "y", "z"))
        with pytest.raises(ValueError):
            GeneSampleMatrix(np.zeros((2, 3), dtype=bool), ("a", "b"), ("x",))

    def test_must_be_2d(self):
        with pytest.raises(ValueError):
            GeneSampleMatrix(np.zeros(3, dtype=bool), ("a", "b", "c"), ())


class TestOps:
    def test_to_bitmatrix_roundtrip(self):
        m = make()
        np.testing.assert_array_equal(m.to_bitmatrix().to_dense(), m.values)

    def test_select_samples(self):
        m = make(s=6)
        sub = m.select_samples(np.array([0, 3, 5]))
        assert sub.sample_ids == ("s0", "s3", "s5")
        np.testing.assert_array_equal(sub.values, m.values[:, [0, 3, 5]])

