"""Tests for the per-thread / per-level workload model (Fig. 2)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.scheduling.schemes import SCHEME_1X3, SCHEME_2X2, SCHEME_3X1, Scheme
from repro.scheduling.workload import (
    level_range,
    level_work,
    thread_top_index,
    thread_work_array,
    total_threads,
    total_work,
    work_prefix_by_level,
)

ALL_SCHEMES = [Scheme(1, 1), Scheme(2, 1), SCHEME_2X2, SCHEME_3X1, SCHEME_1X3]


def brute_force_work(scheme, g):
    """Per-thread work by explicit enumeration."""
    out = []
    for combo in sorted(
        itertools.combinations(range(g), scheme.flattened),
        key=lambda t: tuple(reversed(t)),
    ):
        out.append(math.comb(g - 1 - combo[-1], scheme.inner))
    return np.array(out, dtype=float)


class TestThreadWork:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_matches_brute_force(self, scheme):
        g = 12
        lam = np.arange(total_threads(scheme, g), dtype=np.uint64)
        np.testing.assert_array_equal(
            thread_work_array(scheme, g, lam), brute_force_work(scheme, g)
        )

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_sums_to_total_work(self, scheme):
        g = 14
        lam = np.arange(total_threads(scheme, g), dtype=np.uint64)
        assert thread_work_array(scheme, g, lam).sum() == total_work(scheme, g)

    def test_fig2_spread(self):
        # Paper Fig. 2: at G=10 the 2x2 spread is C(8,2)=28, the 3x1 spread is 7.
        g = 10
        w2 = thread_work_array(SCHEME_2X2, g, np.arange(45, dtype=np.uint64))
        w3 = thread_work_array(SCHEME_3X1, g, np.arange(120, dtype=np.uint64))
        assert w2.max() == 28 and w2.min() == 0
        assert w3.max() == 7 and w3.min() == 0

    def test_work_decreases_with_level(self):
        g = 30
        works = [level_work(SCHEME_3X1, g, m) for m in range(2, g - 1)]
        assert works == sorted(works, reverse=True)


class TestLevels:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_level_ranges_tile_the_grid(self, scheme):
        g = 15
        covered = 0
        for m in range(g):
            lo, hi = level_range(scheme, m)
            assert lo == covered or hi == lo  # contiguous (empty levels allowed)
            covered = max(covered, hi)
        assert covered == total_threads(scheme, g)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_top_index_consistent_with_ranges(self, scheme):
        g = 13
        lam = np.arange(total_threads(scheme, g), dtype=np.uint64)
        tops = thread_top_index(scheme, lam)
        for m in range(g):
            lo, hi = level_range(scheme, m)
            if hi > lo:
                assert (tops[lo:hi] == m).all()

    def test_top_index_has_no_closed_form_ceiling(self):
        # The float closed forms stop at 2**52 (order 2) and 2**60 (order
        # 3); the workload model's inverse is exact past both.
        for scheme, lam in ((SCHEME_2X2, 1 << 52), (SCHEME_3X1, 1 << 60)):
            f = scheme.flattened
            ids = np.array([lam - 1, lam, lam + 1], dtype=np.uint64)
            for x, m in zip(ids.tolist(), thread_top_index(scheme, ids).tolist()):
                assert math.comb(m, f) <= x < math.comb(m + 1, f)


class TestPrefix:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_prefix_matches_cumsum(self, scheme):
        g = 16
        prefix = work_prefix_by_level(scheme, g)
        lam = np.arange(total_threads(scheme, g), dtype=np.uint64)
        work = thread_work_array(scheme, g, lam)
        for m in range(g):
            lo, _ = level_range(scheme, m)
            assert prefix[m] == int(work[:lo].sum())
        assert prefix[g] == total_work(scheme, g)

    def test_prefix_exact_at_paper_scale(self):
        # Float64 would round C(19411, 4); the prefix must stay exact ints.
        prefix = work_prefix_by_level(SCHEME_3X1, 19411)
        assert prefix[-1] == math.comb(19411, 4)

    @given(st.integers(min_value=4, max_value=60))
    def test_hypothesis_vandermonde(self, g):
        # Sum over levels of count*work telescopes to C(g, hits).
        assert work_prefix_by_level(SCHEME_3X1, g)[-1] == math.comb(g, 4)
