"""Tests for positional synthesis, mutation-level solving, discrimination."""

import math

import pytest

from repro.mutlevel.discrimination import compare_resolutions
from repro.mutlevel.projection import (
    extra_hit_factor,
    mutation_level_factor,
    project_full_summit,
    required_speedup,
)
from repro.mutlevel.solver import solve_mutation_level
from repro.mutlevel.synthesis import PositionalCohortConfig, generate_positional_cohort


def make_cohort(**kw):
    base = dict(
        n_genes=20, n_tumor=90, n_normal=90, hits=3, n_driver_combos=2, seed=4
    )
    base.update(kw)
    return generate_positional_cohort(PositionalCohortConfig(**base))


class TestPositionalSynthesis:
    def test_deterministic(self):
        a, b = make_cohort(), make_cohort()
        assert a.planted == b.planted
        assert a.hotspots == b.hotspots
        assert len(a.tumor_calls) == len(b.tumor_calls)

    def test_hotspot_enrichment_in_tumors(self):
        c = make_cohort()
        g, pos = next(iter(c.hotspots.items()))
        gene = c.gene_name(g)
        tumor_hits = sum(
            1
            for r in c.tumor_calls
            if r.gene == gene and r.protein_position == pos
        )
        normal_hits = sum(
            1
            for r in c.normal_calls
            if r.gene == gene and r.protein_position == pos
        )
        assert tumor_hits > 5 * max(normal_hits, 1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PositionalCohortConfig(n_genes=5, n_tumor=10, n_normal=10, hits=3, n_driver_combos=2)
        with pytest.raises(ValueError):
            PositionalCohortConfig(n_genes=20, n_tumor=10, n_normal=10, protein_length=1)

    def test_normal_matrix_aligned_to_tumor_features(self):
        c = make_cohort()
        tm = c.tumor_matrix(min_recurrence=2)
        nm = c.normal_matrix(features=tm)
        assert nm.features == tm.features
        assert nm.n_samples == 90


class TestMutationLevelSolve:
    def test_recovers_hotspot_combos(self):
        c = make_cohort(n_tumor=150, n_normal=150)
        tm = c.tumor_matrix(min_recurrence=2)
        nm = c.normal_matrix(features=tm)
        res = solve_mutation_level(tm, nm, hits=3, max_iterations=4)
        hotspot_labels = {
            f"{c.gene_name(g)}:{pos}" for g, pos in c.hotspots.items()
        }
        first = set(res.labels[0])
        assert first <= hotspot_labels  # first combo is pure hotspots

    def test_requires_shared_features(self):
        c = make_cohort()
        tm = c.tumor_matrix(min_recurrence=2)
        nm_raw = c.normal_matrix()  # unaligned universe
        if nm_raw.features != tm.features:
            with pytest.raises(ValueError):
                solve_mutation_level(tm, nm_raw, hits=3)

    def test_genes_of(self):
        c = make_cohort(n_tumor=150, n_normal=150)
        tm = c.tumor_matrix(min_recurrence=2)
        nm = c.normal_matrix(features=tm)
        res = solve_mutation_level(tm, nm, hits=3, max_iterations=2)
        genes = tuple(sorted({f.gene for f in res.combinations[0]}))
        assert len(genes) <= 3
        assert all(g.startswith("G") for g in genes)


class TestDiscrimination:
    def test_mutation_level_at_least_as_sharp(self):
        c = make_cohort(n_genes=30, n_tumor=150, n_normal=150, background_rate=0.10)
        rep = compare_resolutions(c)
        assert rep.mutation_level_sharper
        assert rep.mutation_hotspot_precision > 0.5
        assert rep.hotspot_features_found >= 4


class TestProjection:
    def test_paper_factors(self):
        # "~1e5" speedup for mutation level; "~4e5" per extra hit (we
        # compute the exact C-ratio, which is (M-h)/(h+1) ~ 8e4).
        assert 1e5 < mutation_level_factor() < 2e5
        assert 5e4 < extra_hit_factor(4) < 1e5

    def test_required_speedup_identity(self):
        assert required_speedup(4, mutation_level=False) == 1.0
        assert required_speedup(4, mutation_level=True) == pytest.approx(
            mutation_level_factor()
        )

    def test_five_hit_gene_level(self):
        f = required_speedup(5, mutation_level=False)
        assert f == pytest.approx(math.comb(20000, 5) / math.comb(20000, 4))

    def test_full_summit_projection(self):
        p = project_full_summit(5.4e6, hits=4)
        assert p.n_gpus == 27648
        assert p.projected_seconds == pytest.approx(
            5.4e6 * mutation_level_factor() / (27648 * 0.8)
        )
        assert p.projected_days > 100  # still enormous, as §V implies
