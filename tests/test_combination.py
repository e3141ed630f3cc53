"""Tests for the 20-byte combination record and tie-breaking."""

import math

import pytest

from repro.core.combination import (
    COMBO_DTYPE,
    COMBO_RECORD_BYTES,
    MultiHitCombination,
    better,
)


class TestRecordLayout:
    def test_twenty_bytes(self):
        # Section III-E: four ints + one float = 20 bytes per candidate.
        assert COMBO_RECORD_BYTES == 20
        assert COMBO_DTYPE.itemsize == 20

    def test_roundtrip_four_hit(self):
        c = MultiHitCombination(genes=(3, 7, 100, 19410), f=0.875, tp=5, tn=9)
        rec = c.to_record()
        back = MultiHitCombination.from_record(rec, tp=5, tn=9)
        assert back.genes == c.genes
        assert back.f == pytest.approx(c.f, rel=1e-6)

    def test_roundtrip_shorter_combos(self):
        for genes in [(0, 1), (2, 5, 9)]:
            c = MultiHitCombination(genes=genes, f=0.5)
            assert MultiHitCombination.from_record(c.to_record()).genes == genes

    def test_paper_memory_accounting(self):
        # 1.22e12 candidates x 20 B ~ 24.34 TB (decimal).
        entries = math.comb(19411, 3)
        assert 24.0e12 < entries * COMBO_RECORD_BYTES < 24.8e12


class TestValidation:
    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            MultiHitCombination(genes=(3, 3, 5, 7), f=0.1)
        with pytest.raises(ValueError):
            MultiHitCombination(genes=(5, 3), f=0.1)

    def test_hits(self):
        assert MultiHitCombination(genes=(1, 2, 3, 4), f=0.0).hits == 4


class TestBetter:
    def test_none_handling(self):
        c = MultiHitCombination(genes=(0, 1), f=0.5)
        assert better(None, None) is None
        assert better(c, None) is c
        assert better(None, c) is c

    def test_higher_f_wins(self):
        a = MultiHitCombination(genes=(5, 6), f=0.9)
        b = MultiHitCombination(genes=(0, 1), f=0.5)
        assert better(a, b) is a
        assert better(b, a) is a

    def test_tie_smallest_tuple_wins(self):
        a = MultiHitCombination(genes=(0, 9), f=0.5)
        b = MultiHitCombination(genes=(1, 2), f=0.5)
        assert better(a, b) is a
        assert better(b, a) is a

    def test_better_is_associative_on_samples(self):
        combos = [
            MultiHitCombination(genes=(i, i + 1 + j), f=f)
            for i, j, f in [(0, 1, 0.3), (1, 2, 0.3), (2, 0, 0.7), (3, 1, 0.7)]
        ]
        left = better(better(combos[0], combos[1]), better(combos[2], combos[3]))
        seq = combos[0]
        for c in combos[1:]:
            seq = better(seq, c)
        assert left.genes == seq.genes and left.f == seq.f
