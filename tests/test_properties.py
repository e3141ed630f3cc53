"""Cross-module property tests (hypothesis fuzzing of core invariants)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmatrix.matrix import BitMatrix
from repro.core.engine import SingleGpuEngine
from repro.core.fscore import FScoreParams
from repro.scheduling.schedule import Schedule
from repro.scheduling.schemes import SCHEME_3X1, Scheme
from repro.scheduling.workload import thread_work_array, total_threads


@st.composite
def random_boundaries(draw):
    """A valid random Schedule over a small 3x1 grid."""
    g = draw(st.integers(min_value=5, max_value=18))
    total = total_threads(SCHEME_3X1, g)
    n_cuts = draw(st.integers(min_value=0, max_value=6))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=total),
                min_size=n_cuts,
                max_size=n_cuts,
            )
        )
    )
    return Schedule(
        scheme=SCHEME_3X1, g=g, boundaries=tuple([0] + cuts + [total])
    )


class TestScheduleFuzz:
    @settings(max_examples=40, deadline=None)
    @given(random_boundaries())
    def test_work_accounting_matches_brute_force(self, schedule):
        lam = np.arange(total_threads(SCHEME_3X1, schedule.g), dtype=np.uint64)
        work = thread_work_array(SCHEME_3X1, schedule.g, lam)
        expected = [
            int(work[lo:hi].sum())
            for lo, hi in (
                schedule.thread_range(p) for p in range(schedule.n_parts)
            )
        ]
        assert schedule.work_per_part() == expected

    @settings(max_examples=40, deadline=None)
    @given(random_boundaries())
    def test_total_work_conserved(self, schedule):
        assert sum(schedule.work_per_part()) == math.comb(schedule.g, 4)


@st.composite
def small_instances(draw):
    g = draw(st.integers(min_value=6, max_value=10))
    nt = draw(st.integers(min_value=2, max_value=20))
    nn = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=10**9))
    rng = np.random.default_rng(seed)
    density = draw(st.floats(min_value=0.05, max_value=0.8))
    return (
        BitMatrix.from_dense(rng.random((g, nt)) < density),
        BitMatrix.from_dense(rng.random((g, nn)) < density / 2),
        FScoreParams(n_tumor=nt, n_normal=nn),
        g,
    )


class TestFScoreOrderInvariance:
    @settings(max_examples=30, deadline=None)
    @given(small_instances())
    def test_winner_independent_of_gene_relabeling(self, instance):
        """Reversing gene order must relabel, not change, the winner."""
        tumor, normal, params, g = instance
        if g <= 3:
            return
        scheme = Scheme(2, 1)
        ref = SingleGpuEngine(scheme=scheme).best_combo(tumor, normal, params)

        rev = np.arange(g)[::-1]
        tumor_r = BitMatrix.from_dense(tumor.to_dense()[rev])
        normal_r = BitMatrix.from_dense(normal.to_dense()[rev])
        got = SingleGpuEngine(scheme=scheme).best_combo(tumor_r, normal_r, params)
        assert got.f == pytest.approx(ref.f, abs=1e-15)
        # Same F is guaranteed; the winning set maps back to an equally
        # scoring set under the relabeling.
        back = tuple(sorted(g - 1 - x for x in got.genes))
        from repro.core.kernels import score_combos

        f_back, _, _ = score_combos(tumor, normal, np.array([back]), params)
        assert f_back[0] == pytest.approx(ref.f, abs=1e-12)
