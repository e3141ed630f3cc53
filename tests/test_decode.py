"""Tests for generic combinatorial-number-system decoding."""

import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.combinatorics.decode import (
    combos_from_linear,
    top_index,
    top_index_array,
)


def _encode(combo) -> int:
    """Combinatorial-number-system rank of a strictly increasing tuple."""
    return sum(math.comb(int(c), r + 1) for r, c in enumerate(combo))


class TestTopIndex:
    def test_order1_is_identity(self):
        lam = np.arange(100)
        np.testing.assert_array_equal(top_index_array(lam, 1), lam)

    def test_matches_definition(self):
        for order in (2, 3, 4, 5):
            lam = np.arange(0, 2000, 7)
            got = top_index_array(lam, order)
            for l0, m in zip(lam, got):
                assert math.comb(int(m), order) <= l0 < math.comb(int(m) + 1, order)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            top_index_array(np.array([0]), 0)
        with pytest.raises(ValueError):
            top_index_array(np.array([-1]), 2)

    @given(
        st.integers(min_value=0, max_value=10**15),
        st.integers(min_value=1, max_value=6),
    )
    def test_hypothesis_bracket(self, lam, order):
        m = int(top_index_array(np.array([lam]), order)[0])
        assert math.comb(m, order) <= lam < math.comb(m + 1, order)


    @given(
        st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=6),
    )
    def test_array_agrees_with_scalar(self, lams, order):
        got = top_index_array(np.array(lams), order)
        assert got.tolist() == [top_index(x, order) for x in lams]


class TestScalarTopIndex:
    @given(
        st.integers(min_value=0, max_value=(1 << 60) - 1),
        st.integers(min_value=1, max_value=6),
    )
    def test_agrees_with_array_twin(self, lam, order):
        m = top_index(lam, order)
        assert math.comb(m, order) <= lam < math.comb(m + 1, order)
        assert m == int(top_index_array(np.array([lam]), order)[0])

    def test_exact_beyond_the_array_guard(self):
        # Python ints all the way: no ceiling at all, not even int64's.
        lam = math.comb(10**7, 4) - 1
        assert lam > 1 << 63
        assert top_index(lam, 4) == 10**7 - 1
        assert top_index(lam + 1, 4) == 10**7

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            top_index(0, 0)
        with pytest.raises(ValueError):
            top_index(-1, 2)


class TestCombosFromLinear:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_exhaustive_colex_order(self, order):
        g = 12
        expected = sorted(
            itertools.combinations(range(g), order), key=lambda t: tuple(reversed(t))
        )
        got = combos_from_linear(np.arange(len(expected)), order)
        assert [tuple(r) for r in got] == expected

    def test_rows_strictly_increasing(self):
        got = combos_from_linear(np.arange(0, 100000, 997), 4)
        assert (np.diff(got, axis=1) > 0).all()

    def test_rank_roundtrip_large(self):
        lam = np.array([0, 10**6, 10**12, 10**15])
        got = combos_from_linear(lam, 4)
        for l0, row in zip(lam, got):
            rank = sum(math.comb(int(row[r]), r + 1) for r in range(4))
            assert rank == l0

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [8, 33, 1000, 60_000])
    def test_boundary_roundtrip(self, order, m):
        # lambda = 0, C(m, h) - 1 (last id below gene count m), and
        # C(m, h) (first id whose top index is m itself).
        total = math.comb(m, order)
        lam = np.array([0, total - 1, total])
        got = combos_from_linear(lam, order)
        assert got[0].tolist() == list(range(order))
        assert got[1].tolist() == list(range(m - order, m))
        assert got[2].tolist() == list(range(order - 1)) + [m]
        for l0, row in zip(lam, got):
            assert _encode(row) == int(l0)

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda order: st.tuples(
                st.just(order),
                st.lists(
                    st.integers(min_value=0, max_value=70_000),
                    min_size=order,
                    max_size=order,
                    unique=True,
                ),
            )
        )
    )
    def test_encode_decode_roundtrip(self, order_and_genes):
        order, genes = order_and_genes
        combo = sorted(genes)
        got = combos_from_linear(np.array([_encode(combo)]), order)
        assert got[0].tolist() == combo


class TestOverflowRegression:
    def test_order4_decode_at_60k_genes_terminates(self):
        # Regression: _falling_product wrapped int64 negative around
        # C(55000, 4), making the repair loop's `C(m+1) <= lam` test
        # permanently true — an infinite spin.  Run the decode on a
        # worker thread with a hard join timeout so a reintroduced hang
        # fails the test instead of wedging the suite.
        lam = np.array([math.comb(60_000, 4) - 1])
        result = []

        def work():
            result.append(combos_from_linear(lam, 4))

        t = threading.Thread(target=work, daemon=True)
        t.start()
        t.join(timeout=10.0)
        assert not t.is_alive(), "order-4 decode at 60k genes hung"
        assert result[0][0].tolist() == [59_996, 59_997, 59_998, 59_999]

    def test_top_index_array_exact_up_to_int64_max(self):
        # No 2**60 guard: every int64 lambda is looked up among exact level
        # starts, including boundaries where the old clamped binomial sat.
        m = top_index((1 << 63) - 1, 4)
        lam = np.array(
            [0, 1 << 60, math.comb(m, 4) - 1, math.comb(m, 4), (1 << 63) - 1]
        )
        got = top_index_array(lam, 4)
        assert got.tolist() == [top_index(int(x), 4) for x in lam]
        assert got[-2] == got[-1] == m
        assert _encode(combos_from_linear(lam[-1:], 4)[0]) == (1 << 63) - 1

    def test_sparse_array_over_a_wide_span(self):
        # Order 2 from 0 to 2**62 spans ~3e9 levels; a table of them would
        # not fit, so three ids are inverted one by one.
        lam = np.array([0, 1 << 52, 1 << 62])
        got = combos_from_linear(lam, 2)
        assert [_encode(row) for row in got] == lam.tolist()
        assert top_index_array(lam, 2).tolist() == [top_index(int(x), 2) for x in lam]
