"""Tests for the equi-area scheduler (the paper's O(G) level walk)."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.equiarea import equiarea_schedule, equiarea_schedule_naive
from repro.scheduling.equidistance import equidistance_schedule
from repro.scheduling.schemes import SCHEME_1X3, SCHEME_2X2, SCHEME_3X1, Scheme
from repro.scheduling.workload import level_work, total_threads, total_work

SCHEMES = [Scheme(1, 1), Scheme(2, 1), SCHEME_2X2, SCHEME_3X1, SCHEME_1X3]


class TestLevelWalkCorrectness:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n_parts", [1, 2, 5, 13, 30])
    def test_identical_to_naive(self, scheme, n_parts):
        g = 20
        fast = equiarea_schedule(scheme, g, n_parts)
        naive = equiarea_schedule_naive(scheme, g, n_parts)
        assert fast.boundaries == naive.boundaries

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_covers_all_work(self, scheme):
        for n_parts in (1, 3, 8):
            s = equiarea_schedule(scheme, 18, n_parts)
            assert sum(s.work_per_part()) == total_work(scheme, 18)

    @pytest.mark.parametrize("scheme", [SCHEME_2X2, SCHEME_3X1])
    def test_balance_bound(self, scheme):
        # Each partition exceeds the ideal share by at most one thread's
        # work (the cut granularity).
        g, n_parts = 40, 7
        s = equiarea_schedule(scheme, g, n_parts)
        ideal = total_work(scheme, g) / n_parts
        max_thread = level_work(scheme, g, scheme.flattened - 1)
        for w in s.work_per_part():
            assert w <= ideal + max_thread

    def test_beats_equidistance(self):
        for g, n_parts in [(30, 5), (50, 30), (80, 12)]:
            ea = equiarea_schedule(SCHEME_3X1, g, n_parts)
            ed = equidistance_schedule(SCHEME_3X1, g, n_parts)
            assert ea.imbalance() < ed.imbalance()

    def test_more_parts_than_threads(self):
        s = equiarea_schedule(SCHEME_3X1, 5, 50)
        assert s.n_parts == 50
        assert sum(s.work_per_part()) == math.comb(5, 4)

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            equiarea_schedule(SCHEME_3X1, 10, 0)
        with pytest.raises(ValueError):
            equiarea_schedule_naive(SCHEME_3X1, 10, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=5, max_value=26),
        st.integers(min_value=1, max_value=40),
        st.sampled_from(SCHEMES),
    )
    def test_hypothesis_fast_equals_naive(self, g, n_parts, scheme):
        fast = equiarea_schedule(scheme, g, n_parts)
        naive = equiarea_schedule_naive(scheme, g, n_parts)
        assert fast.boundaries == naive.boundaries

    def test_naive_exact_past_float64(self):
        # Regression: the naive reference accumulated per-thread work in
        # float64, which is exact only up to 2^53 and cannot even
        # evaluate deep inner ranges (binomial_float caps at k = 4), so
        # the "identical boundaries" guarantee silently broke at scale.
        # C(200, 10) combinations of work is well past 2^53; the naive
        # scan must still cut exactly where the O(G) level walk does.
        scheme = Scheme(1, 9)
        g = 200
        assert total_work(scheme, g) > 2**53
        fast = equiarea_schedule(scheme, g, 7)
        naive = equiarea_schedule_naive(scheme, g, 7)
        assert fast.boundaries == naive.boundaries
        assert sum(naive.work_per_part()) == total_work(scheme, g)


class TestPaperScale:
    def test_full_summit_schedule_is_fast_and_balanced(self):
        # Paper: < 1 minute for the full schedule (we expect < 5 s here).
        t0 = time.perf_counter()
        s = equiarea_schedule(SCHEME_3X1, 19411, 6000)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        assert s.n_parts == 6000
        assert s.boundaries[-1] == math.comb(19411, 3)
        work = s.work_per_part()
        assert sum(work) == math.comb(19411, 4)
        assert max(work) / (sum(work) / len(work)) < 1.000001

    def test_2x2_paper_scale(self):
        s = equiarea_schedule(SCHEME_2X2, 19411, 600)
        assert sum(s.work_per_part()) == math.comb(19411, 4)


class TestEquidistance:
    def test_equal_thread_counts(self):
        s = equidistance_schedule(SCHEME_3X1, 30, 7)
        counts = np.diff(s.boundaries)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == total_threads(SCHEME_3X1, 30)

    def test_first_partition_heaviest(self):
        s = equidistance_schedule(SCHEME_3X1, 40, 10)
        work = s.work_per_part()
        assert work[0] == max(work)
        assert work[-1] == min(work)

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            equidistance_schedule(SCHEME_3X1, 10, 0)
