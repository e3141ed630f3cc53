"""Mutation-level multi-hit search — the paper's §V extension.

The gene-level algorithm flags whole genes, so a combination can mix a
true driver (IDH1, hotspot at R132) with passenger genes (MUC6) that are
merely frequently mutated.  §V proposes searching combinations of
*specific mutations within genes* instead: the input becomes a
mutation-sample matrix (~4e5 protein-altering mutation features instead
of ~2e4 genes, ~20x larger), and the search cost grows by ~1e5.

This package implements that extension end-to-end at laptop scale:

* :mod:`features` — (gene, position-bin) mutation features and the
  expansion of positional call data into mutation-sample matrices;
* :mod:`synthesis` — positional cohorts where drivers act through
  specific hotspot positions while passenger mutations scatter;
* :mod:`solver` — the same greedy WSC engines run over mutation
  features, with results mapped back to labeled (gene, position) tuples;
* :mod:`discrimination` — the driver-vs-passenger analysis: show the
  mutation-level search isolates hotspot features that the gene-level
  search cannot distinguish;
* :mod:`projection` — §V's computational-requirement arithmetic
  (mutation-level ~1e5x, each extra hit ~4e5x, full-Summit 27648 GPUs).
"""

from repro.mutlevel.features import MutationFeature, MutationMatrix, expand_calls
from repro.mutlevel.synthesis import (
    PositionalCohort,
    PositionalCohortConfig,
    generate_positional_cohort,
)
from repro.mutlevel.solver import MutationLevelResult, solve_mutation_level
from repro.mutlevel.discrimination import DiscriminationReport, compare_resolutions
from repro.mutlevel.projection import (
    extra_hit_factor,
    mutation_level_factor,
    required_speedup,
)

__all__ = [
    "MutationFeature",
    "MutationMatrix",
    "expand_calls",
    "PositionalCohort",
    "PositionalCohortConfig",
    "generate_positional_cohort",
    "MutationLevelResult",
    "solve_mutation_level",
    "DiscriminationReport",
    "compare_resolutions",
    "required_speedup",
    "mutation_level_factor",
    "extra_hit_factor",
]
