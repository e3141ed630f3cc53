"""Tests for the multi-stage parallel max-reduction."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combination import COMBO_RECORD_BYTES, MultiHitCombination, better
from repro.core.reduction import (
    DEFAULT_BLOCK_SIZE,
    block_reduce,
    multi_stage_reduce,
    reduction_plan,
)
from repro.scheduling.schemes import SCHEME_3X1


def combo(i, f):
    return MultiHitCombination(genes=(i, i + 1), f=f)


class TestBlockReduce:
    def test_block_winners(self):
        cands = [combo(0, 0.1), combo(2, 0.9), combo(4, 0.5), combo(6, 0.7)]
        out = block_reduce(cands, block_size=2)
        assert [c.f for c in out] == [0.9, 0.7]

    def test_handles_none(self):
        out = block_reduce([None, combo(0, 0.3), None], block_size=2)
        assert out[0].f == 0.3
        assert out[1] is None

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            block_reduce([], block_size=0)

    def test_shrink_factor(self):
        cands = [combo(i, i / 1000) for i in range(0, 2000, 2)]
        out = block_reduce(cands, DEFAULT_BLOCK_SIZE)
        assert len(out) == math.ceil(len(cands) / DEFAULT_BLOCK_SIZE)


class TestMultiStage:
    def test_equals_global_max(self):
        rng = random.Random(7)
        cands = [combo(2 * i, rng.random()) for i in range(1000)]
        expected = None
        for c in cands:
            expected = better(expected, c)
        got = multi_stage_reduce(cands, block_size=8)
        assert got.genes == expected.genes and got.f == expected.f

    def test_empty(self):
        assert multi_stage_reduce([]) is None

    def test_all_none(self):
        assert multi_stage_reduce([None, None, None], block_size=2) is None

    def test_tie_break_global(self):
        # Two blocks tie on F; the lexicographically smaller tuple wins.
        cands = [combo(10, 0.5), combo(0, 0.5), combo(4, 0.5), combo(2, 0.5)]
        got = multi_stage_reduce(cands, block_size=2)
        assert got.genes == (0, 1)

    def test_block_size_one_rejected(self):
        # A 1-wide block cannot make progress; guarded explicitly (this
        # exact degenerate case once hung the reduction loop).
        with pytest.raises(ValueError):
            multi_stage_reduce([combo(0, 0.1), combo(2, 0.2)], block_size=1)

    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),
                st.floats(min_value=0, max_value=1, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=2, max_value=64),
    )
    def test_hypothesis_any_block_size_same_winner(self, raw, block):
        cands = [combo(2 * i, f) for i, f in raw]
        expected = None
        for c in cands:
            expected = better(expected, c)
        got = multi_stage_reduce(cands, block_size=block)
        assert got.genes == expected.genes and got.f == expected.f


class TestPlan:
    def test_paper_accounting(self):
        # Section III-E: ~1.22e12 entries (24.34 TB) -> /512 -> ~47.5 GB.
        plan = reduction_plan(SCHEME_3X1, 19411, block_size=512, n_gpus=6000)
        assert plan["threads"] == math.comb(19411, 3)
        assert 24.0e12 < plan["naive_list_bytes"] < 24.8e12
        assert 45e9 < plan["block_list_bytes"] < 50e9
        assert plan["per_rank_bytes_to_root"] == COMBO_RECORD_BYTES
        assert plan["root_reduce_entries"] == 6000

    def test_block_count_rounds_up(self):
        plan = reduction_plan(SCHEME_3X1, 10, block_size=7)
        assert plan["blocks"] == math.ceil(math.comb(10, 3) / 7)
