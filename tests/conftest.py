"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitmatrix.matrix import BitMatrix
from repro.core.fscore import FScoreParams
from repro.data.synthesis import CohortConfig, generate_cohort


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_matrices(rng) -> tuple[np.ndarray, np.ndarray, FScoreParams]:
    """A 15-gene random instance: (tumor dense, normal dense, params)."""
    tumor = rng.random((15, 40)) < 0.3
    normal = rng.random((15, 35)) < 0.2
    return tumor, normal, FScoreParams(n_tumor=40, n_normal=35)


@pytest.fixture
def small_bitmatrices(small_matrices) -> tuple[BitMatrix, BitMatrix, FScoreParams]:
    t, n, params = small_matrices
    return BitMatrix.from_dense(t), BitMatrix.from_dense(n), params


@pytest.fixture
def tiny_cohort():
    """A planted 3-hit cohort small enough for exhaustive solving."""
    return generate_cohort(
        CohortConfig(
            n_genes=24, n_tumor=60, n_normal=60, hits=3, n_driver_combos=2, seed=42
        )
    )
