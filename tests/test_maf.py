"""Tests for MAF handling and summarization."""

import numpy as np

from repro.data.maf import MafRecord, read_maf, summarize_maf, write_maf


RECORDS = [
    MafRecord("TP53", "S1", 175),
    MafRecord("TP53", "S2", 273),
    MafRecord("KRAS", "S1", 12),
    MafRecord("IDH1", "S3", 132),
    MafRecord("TP53", "S1", 200, "Silent"),  # protein-silent: excluded
]


class TestRecords:
    def test_protein_altering_flag(self):
        assert MafRecord("X", "S", 1).protein_altering
        assert not MafRecord("X", "S", 1, "Silent").protein_altering
        assert not MafRecord("X", "S", 1, "3'UTR").protein_altering


class TestSummarize:
    def test_matrix_contents(self):
        m = summarize_maf(RECORDS)
        assert m.gene_names == ("IDH1", "KRAS", "TP53")
        assert m.sample_ids == ("S1", "S2", "S3")
        tp53, kras = m.gene_names.index("TP53"), m.gene_names.index("KRAS")
        assert m.values[tp53, 0]  # TP53 in S1
        assert m.values[tp53, 1]
        assert not m.values[kras, 2]

    def test_silent_excluded_by_default(self):
        only_silent = [MafRecord("GENE", "S1", 5, "Silent")]
        m = summarize_maf(only_silent)
        assert m.n_genes == 0

    def test_silent_included_on_request(self):
        only_silent = [MafRecord("GENE", "S1", 5, "Silent")]
        m = summarize_maf(only_silent, protein_altering_only=False)
        assert m.n_genes == 1
        assert m.values[0, 0]

    def test_explicit_universe(self):
        m = summarize_maf(RECORDS, genes=["TP53", "EGFR"], samples=["S1", "S9"])
        assert m.gene_names == ("TP53", "EGFR")
        assert m.values[0, 0] and not m.values[1, 0]
        assert not m.values[:, 1].any()

    def test_duplicate_calls_idempotent(self):
        dup = RECORDS + [MafRecord("TP53", "S1", 175)]
        a = summarize_maf(RECORDS)
        b = summarize_maf(dup)
        np.testing.assert_array_equal(a.values, b.values)


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "calls.maf"
        write_maf(RECORDS, path)
        back = read_maf(path)
        assert back == RECORDS

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.maf"
        write_maf([], path)
        assert read_maf(path) == []

    def test_summary_survives_roundtrip(self, tmp_path):
        path = tmp_path / "calls.maf"
        write_maf(RECORDS, path)
        a = summarize_maf(RECORDS)
        b = summarize_maf(read_maf(path))
        np.testing.assert_array_equal(a.values, b.values)
        assert a.gene_names == b.gene_names
