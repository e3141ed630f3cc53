"""Tests for the Schedule container."""

import numpy as np
import pytest

from repro.scheduling.schedule import Schedule
from repro.scheduling.schemes import SCHEME_3X1, Scheme
from repro.scheduling.workload import thread_work_array, total_threads, total_work


def make(boundaries, scheme=SCHEME_3X1, g=12):
    return Schedule(scheme=scheme, g=g, boundaries=tuple(boundaries))


class TestValidation:
    def test_must_span_grid(self):
        t = total_threads(SCHEME_3X1, 12)
        with pytest.raises(ValueError):
            make([0, t - 1])
        with pytest.raises(ValueError):
            make([1, t])

    def test_must_be_monotone(self):
        t = total_threads(SCHEME_3X1, 12)
        with pytest.raises(ValueError):
            make([0, 50, 40, t])

    def test_needs_one_partition(self):
        with pytest.raises(ValueError):
            make([0])

    def test_empty_partitions_allowed(self):
        t = total_threads(SCHEME_3X1, 12)
        s = make([0, 0, t, t])
        assert s.n_parts == 3
        assert s.thread_range(0) == (0, 0)


class TestWorkAccounting:
    @pytest.mark.parametrize("cuts", [[0.5], [0.1, 0.35, 0.8], [0.25, 0.5, 0.75]])
    def test_work_per_part_matches_brute_force(self, cuts):
        g = 14
        scheme = SCHEME_3X1
        t = total_threads(scheme, g)
        boundaries = [0] + [int(t * c) for c in cuts] + [t]
        s = make(boundaries, scheme, g)
        work = thread_work_array(scheme, g, np.arange(t, dtype=np.uint64))
        for p in range(s.n_parts):
            lo, hi = s.thread_range(p)
            assert s.work_per_part()[p] == int(work[lo:hi].sum())

    def test_total_work_conserved(self):
        g = 14
        t = total_threads(SCHEME_3X1, g)
        s = make([0, t // 3, 2 * t // 3, t], g=g)
        assert sum(s.work_per_part()) == total_work(SCHEME_3X1, g)

    def test_thread_counts(self):
        g = 12
        t = total_threads(SCHEME_3X1, g)
        s = make([0, 10, t], g=g)
        np.testing.assert_array_equal(np.diff(s.boundaries), [10, t - 10])

    def test_imbalance_single_part_is_one(self):
        g = 12
        t = total_threads(SCHEME_3X1, g)
        assert make([0, t], g=g).imbalance() == 1.0

    def test_describe_mentions_policy(self):
        g = 12
        t = total_threads(SCHEME_3X1, g)
        s = Schedule(scheme=SCHEME_3X1, g=g, boundaries=(0, t), policy="equiarea")
        assert "equiarea" in s.describe()

    def test_work_for_2x2_scheme(self):
        scheme = Scheme(2, 2)
        g = 12
        t = total_threads(scheme, g)
        s = make([0, t // 2, t], scheme, g)
        work = thread_work_array(scheme, g, np.arange(t, dtype=np.uint64))
        assert s.work_per_part() == [
            int(work[: t // 2].sum()),
            int(work[t // 2 :].sum()),
        ]
