"""Tests for generic combinatorial-number-system decoding."""

import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.combinatorics.decode import (
    binomial_clamped,
    combos_from_linear,
    top_index,
    top_index_array,
)


def _encode(combo) -> int:
    """Combinatorial-number-system rank of a strictly increasing tuple."""
    return sum(math.comb(int(c), r + 1) for r, c in enumerate(combo))


class TestBinomialClamped:
    def test_exact_small(self):
        for order in (1, 2, 3, 4, 5):
            x = np.arange(0, 200)
            got = binomial_clamped(x, order)
            for xi, gi in zip(x, got):
                assert int(gi) == math.comb(int(xi), order)

    def test_exact_where_naive_product_wraps(self):
        # The naive falling product x*(x-1)*(x-2)*(x-3) wraps int64 from
        # x ~ 55k, but C(x, 4) itself still fits; divide-as-you-go must
        # return the exact value there.
        for x in (55_000, 60_000, 80_000):
            got = int(binomial_clamped(np.array([x]), 4)[0])
            assert got == math.comb(x, 4)

    def test_clamps_instead_of_wrapping(self):
        # Lanes whose intermediates would overflow clamp *to* the guard
        # (never wrap negative); every clamped lane's true value sits
        # above the guard, so boundary comparisons stay exact.
        x = np.array([10, 60_000, 2_000_000, 40_000_000])
        got = binomial_clamped(x, 4)
        assert int(got[0]) == math.comb(10, 4)
        assert int(got[-1]) == 1 << 60  # C(4e7, 4) ~ 1e29 >> guard
        assert (got > 0).all()
        assert (got[1:] >= got[:-1]).all()
        for xi, gi in zip(x, got):
            if int(gi) == 1 << 60:
                assert math.comb(int(xi), 4) > 1 << 60

    def test_rejects_unsupported_order(self):
        with pytest.raises(ValueError):
            binomial_clamped(np.array([10]), 9)


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
        # Python ints all the way: no 2**60 ceiling, no clamping.
        lam = math.comb(10**7, 4) - 1
        assert lam > 1 << 60
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

    def test_top_index_rejects_lambda_at_guard(self):
        with pytest.raises(ValueError):
            top_index_array(np.array([1 << 60]), 4)
