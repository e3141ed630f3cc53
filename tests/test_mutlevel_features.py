"""Tests for mutation features and call expansion."""

import numpy as np
import pytest

from repro.data.maf import MafRecord
from repro.mutlevel.features import MutationFeature, MutationMatrix, expand_calls

CALLS = [
    MafRecord("IDH1", "S1", 132),
    MafRecord("IDH1", "S2", 132),
    MafRecord("IDH1", "S3", 97),
    MafRecord("MUC6", "S1", 5),
    MafRecord("MUC6", "S2", 900),
    MafRecord("TP53", "S3", 175, "Silent"),  # excluded: not protein-altering
]


class TestFeature:
    def test_label(self):
        assert MutationFeature("IDH1", 132).label == "IDH1:132"
        assert MutationFeature("IDH1", 131, bin_size=10).label == "IDH1:131-140"

    def test_contains(self):
        f = MutationFeature("X", 11, bin_size=10)
        assert f.contains(11) and f.contains(20)
        assert not f.contains(10) and not f.contains(21)

    def test_ordering_is_gene_then_position(self):
        feats = sorted(
            [MutationFeature("B", 1), MutationFeature("A", 9), MutationFeature("A", 2)]
        )
        assert [f.label for f in feats] == ["A:2", "A:9", "B:1"]


class TestExpandCalls:
    def test_exact_positions(self):
        m = expand_calls(CALLS)
        labels = [f.label for f in m.features]
        assert labels == ["IDH1:97", "IDH1:132", "MUC6:5", "MUC6:900"]
        assert m.sample_ids == ("S1", "S2", "S3")
        hot = labels.index("IDH1:132")
        np.testing.assert_array_equal(m.values[hot], [True, True, False])

    def test_silent_excluded(self):
        m = expand_calls(CALLS)
        assert all(f.gene != "TP53" for f in m.features)

    def test_binning_merges_positions(self):
        m = expand_calls(CALLS, bin_size=50)
        idh1 = [f for f in m.features if f.gene == "IDH1"]
        # 97 and 132 land in different 50-wide bins (51-100, 101-150).
        assert len(idh1) == 2
        wide = expand_calls(CALLS, bin_size=200)
        idh1w = [f for f in wide.features if f.gene == "IDH1"]
        assert len(idh1w) == 1  # both in bin 1-200

    def test_min_recurrence_filters(self):
        m = expand_calls(CALLS, min_recurrence=2)
        assert [f.label for f in m.features] == ["IDH1:132"]

    def test_explicit_sample_universe(self):
        m = expand_calls(CALLS, samples=["S1", "S9"])
        assert m.sample_ids == ("S1", "S9")
        assert not m.values[:, 1].any()

    def test_invalid_bin(self):
        with pytest.raises(ValueError):
            expand_calls(CALLS, bin_size=0)


class TestMutationMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            MutationMatrix(
                np.zeros((2, 2), dtype=bool),
                (MutationFeature("A", 1),),
                ("s1", "s2"),
            )
        with pytest.raises(ValueError):
            MutationMatrix(
                np.zeros((1, 2), dtype=bool),
                (MutationFeature("A", 1),),
                ("s1",),
            )

    def test_to_bitmatrix(self):
        m = expand_calls(CALLS)
        np.testing.assert_array_equal(m.to_bitmatrix().to_dense(), m.values)

    def test_expansion_factor(self):
        # Mutation matrices have more rows than genes — the 20x effect.
        m = expand_calls(CALLS)
        assert m.n_features > len({f.gene for f in m.features})
