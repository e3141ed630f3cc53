"""Tests for the gene-level view of a positional cohort."""

from repro.mutlevel.synthesis import PositionalCohortConfig, generate_positional_cohort


def cohort(bg=0.3, hits=2, seed=4, n=240):
    return generate_positional_cohort(
        PositionalCohortConfig(
            n_genes=30,
            n_tumor=n,
            n_normal=n,
            hits=hits,
            n_driver_combos=2,
            background_rate=bg,
            seed=seed,
        )
    )


class TestGeneMatrices:
    def test_built_from_all_calls(self):
        c = cohort(bg=0.2, hits=2)
        t, n, genes = c.gene_matrices()
        assert t.shape == (len(genes), c.config.n_tumor)
        assert n.shape == (len(genes), c.config.n_normal)
        # Normal background must be visible at gene level (the honesty
        # property: the filtered feature view would drop most of it).
        assert n.mean() > 0.1

    def test_gene_frequencies_match_background(self):
        c = cohort(bg=0.25, hits=2, n=400)
        _, n, genes = c.gene_matrices()
        non_driver = [
            i for i, g in enumerate(genes)
            if int(g[1:]) not in c.hotspots
        ]
        freq = n[non_driver].mean()
        assert 0.18 < freq < 0.32  # ~ background_rate
