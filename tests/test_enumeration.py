"""Tests for block-wise combination enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.combinatorics.decode import combos_from_linear
from repro.combinatorics.enumeration import combinations_array, iter_combination_blocks


def _colex(g, order):
    return sorted(itertools.combinations(range(g), order), key=lambda c: c[::-1])


@st.composite
def _windows(draw):
    """Windows of every shape the walk distinguishes: empty, one row,
    inside one level, straddling several levels."""
    order = draw(st.integers(1, 5))
    m = draw(st.integers(order - 1, 40))
    base, rows = math.comb(m, order), math.comb(m, order - 1)
    start = base + draw(st.integers(0, rows - 1))
    shape = draw(st.sampled_from(["empty", "single", "level", "levels"]))
    if shape == "empty":
        end = start
    elif shape == "single":
        end = start + 1
    elif shape == "level":
        end = draw(st.integers(start, base + rows))
    else:
        end = draw(st.integers(base + rows, math.comb(m + 4, order)))
    return order, start, end


class TestCombinationsArray:
    def test_pairs_window(self):
        got = combinations_array(2, 0, 6)
        expected = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
        assert [tuple(r) for r in got] == expected

    def test_triples_window(self):
        got = combinations_array(3, 1, 4)
        expected = [(0, 1, 3), (0, 2, 3), (1, 2, 3)]
        assert [tuple(r) for r in got] == expected

    def test_empty_window(self):
        assert combinations_array(2, 5, 5).shape == (0, 2)

    @given(_windows())
    def test_equals_closed_form_decode(self, window):
        order, start, end = window
        got = combinations_array(order, start, end)
        expected = combos_from_linear(np.arange(start, end), order)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_exhaustive_against_itertools(self, order):
        for g in range(order, 13):
            got = combinations_array(order, 0, math.comb(g, order))
            assert [tuple(r) for r in got] == _colex(g, order)

    def test_paper_scale_level_boundary(self):
        # The last level boundary below C(60_000, 4): level 59_998 ends,
        # level 59_999 (3.6e13 rows) begins.  Only the ends are inverted
        # and nothing the size of a level is built.
        cut = math.comb(59_999, 4)
        got = combinations_array(4, cut - 2, cut + 3)
        assert got.tolist() == [
            [59_994, 59_996, 59_997, 59_998],
            [59_995, 59_996, 59_997, 59_998],
            [0, 1, 2, 59_999],
            [0, 1, 3, 59_999],
            [0, 2, 3, 59_999],
        ]
        top = math.comb(60_000, 4)
        assert combinations_array(4, top - 1, top).tolist() == [
            [59_996, 59_997, 59_998, 59_999]
        ]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            combinations_array(0, 0, 10)
        with pytest.raises(ValueError):
            combinations_array(2, 5, 3)
        with pytest.raises(ValueError):
            combinations_array(2, -1, 3)


class TestBlocks:
    @pytest.mark.parametrize("order,g,block", [(2, 10, 7), (3, 10, 11), (2, 15, 200), (3, 12, 1), (4, 9, 13)])
    def test_blocks_cover_exactly_once(self, order, g, block):
        seen = []
        for start, combos in iter_combination_blocks(order, g, block):
            assert len(combos) <= block
            seen.extend(tuple(r) for r in combos)
        assert len(seen) == math.comb(g, order)
        assert len(set(seen)) == len(seen)
        assert set(seen) == set(itertools.combinations(range(g), order))

    def test_blocks_start_offsets(self):
        starts = [s for s, _ in iter_combination_blocks(2, 10, 10)]
        assert starts == [0, 10, 20, 30, 40]

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            list(iter_combination_blocks(2, 10, 0))
