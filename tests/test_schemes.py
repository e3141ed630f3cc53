"""Tests for parallelization scheme descriptors."""

import math

import pytest

from repro.scheduling.schemes import (
    SCHEME_1X3,
    SCHEME_2X2,
    SCHEME_3X1,
    Scheme,
    scheme_for,
)


class TestScheme:
    def test_paper_schemes(self):
        assert SCHEME_1X3.hits == SCHEME_2X2.hits == SCHEME_3X1.hits == 4
        assert SCHEME_1X3.name == "1x3"
        assert SCHEME_2X2.name == "2x2"
        assert SCHEME_3X1.name == "3x1"
        assert Scheme(4, 1).name == "4x1"

    def test_thread_counts_match_paper(self):
        g = 19411
        assert SCHEME_1X3.n_threads(g) == g
        assert SCHEME_2X2.n_threads(g) == math.comb(g, 2)
        assert SCHEME_3X1.n_threads(g) == math.comb(g, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Scheme(0, 3)
        with pytest.raises(ValueError):
            Scheme(2, -1)
        with pytest.raises(ValueError):
            Scheme(1, 0)  # 1-hit is not multi-hit
        # Flattening every loop leaves the kernel no inner loop to scan.
        with pytest.raises(ValueError, match="flat scheme.*2x2 and 3x1"):
            Scheme(4, 0)

    def test_scheme_for(self):
        s = scheme_for(4, 3)
        assert s == SCHEME_3X1
        assert scheme_for(3, 2) == Scheme(2, 1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SCHEME_3X1.inner = 5
