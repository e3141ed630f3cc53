"""Cross-engine equivalence: the library's central correctness property.

Every engine (sequential oracle, vectorized single-GPU with any scheme,
distributed with any schedule on the rank fleet) must return the
identical greedy output — same combinations, same F values, same cover
sets — on arbitrary inputs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.memopt import MemoryConfig
from repro.core.sequential import sequential_solve
from repro.core.solver import MultiHitSolver
from repro.scheduling.schemes import scheme_for


def signature(combos):
    return [(c.genes, round(c.f, 12), c.tp, c.tn) for c in combos]


@st.composite
def instances(draw):
    g = draw(st.integers(min_value=6, max_value=12))
    nt = draw(st.integers(min_value=3, max_value=25))
    nn = draw(st.integers(min_value=1, max_value=25))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    density_t = draw(st.floats(min_value=0.1, max_value=0.7))
    density_n = draw(st.floats(min_value=0.0, max_value=0.4))
    rng = np.random.default_rng(seed)
    return (
        rng.random((g, nt)) < density_t,
        rng.random((g, nn)) < density_n,
    )


class TestGreedyEquivalence:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instances(), st.integers(min_value=2, max_value=4))
    def test_single_engine_equals_oracle(self, instance, hits):
        t, n = instance
        if t.shape[0] <= hits:
            return
        ref = signature(sequential_solve(t, n, hits))
        got = signature(MultiHitSolver(hits=hits).solve(t, n).combinations)
        assert got == ref

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instances())
    def test_distributed_equals_oracle(self, instance):
        t, n = instance
        hits = 3
        if t.shape[0] <= hits:
            return
        ref = signature(sequential_solve(t, n, hits))
        got = signature(
            MultiHitSolver(hits=hits, backend="distributed", n_nodes=3, gpus_per_node=2)
            .solve(t, n)
            .combinations
        )
        assert got == ref

    @pytest.mark.parametrize("flattened", [1, 2, 3, 4])
    def test_every_scheme_same_greedy_output(self, rng, flattened):
        t = rng.random((11, 30)) < 0.4
        n = rng.random((11, 25)) < 0.15
        hits = 4
        if flattened == hits:  # flat: cannot be built, no inner loop
            with pytest.raises(ValueError, match="flat scheme"):
                MultiHitSolver(hits=hits, scheme=scheme_for(hits, flattened))
            return
        ref = signature(MultiHitSolver(hits=hits).solve(t, n).combinations)
        got = signature(
            MultiHitSolver(hits=hits, scheme=scheme_for(hits, flattened))
            .solve(t, n)
            .combinations
        )
        assert got == ref

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instances())
    def test_splice_equals_mask(self, instance):
        t, n = instance
        if t.shape[0] <= 2:
            return
        a = MultiHitSolver(hits=2, memory=MemoryConfig(bitsplice=True)).solve(t, n)
        b = MultiHitSolver(hits=2, memory=MemoryConfig(bitsplice=False)).solve(t, n)
        assert signature(a.combinations) == signature(b.combinations)
        assert a.uncovered == b.uncovered
