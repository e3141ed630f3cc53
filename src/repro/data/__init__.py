"""Synthetic TCGA-like data substrate.

The paper consumes TCGA mutation-annotation-format (MAF) calls for 31
cancer types, summarized into binary gene-sample matrices.  That data
cannot ship here, so this package synthesizes cohorts with the same
statistical skeleton: per-cancer sample/gene counts (values stated in the
paper are kept exact), *planted* multi-hit driver combinations with
realistic penetrance, a long-tailed passenger mutation background, and
per-position mutation hotspots (IDH1 R132 vs the uniform MUC6 profile of
Fig. 10).  Planting gives ground truth, which is what makes the
classification experiment (Fig. 9) meaningful.
"""

from repro.data.cancers import CancerType, CANCER_CATALOG, cancer, four_hit_cancers
from repro.data.matrices import GeneSampleMatrix
from repro.data.synthesis import CohortConfig, SyntheticCohort, generate_cohort
from repro.data.split import train_test_split
from repro.data.io import load_cohort, save_cohort
from repro.data.registry import DATASETS, dataset, dataset_names
from repro.data.maf import MafRecord, read_maf, summarize_maf, write_maf
from repro.data.hotspots import GeneMutationProfile, positional_distribution

__all__ = [
    "CancerType",
    "CANCER_CATALOG",
    "cancer",
    "four_hit_cancers",
    "GeneSampleMatrix",
    "CohortConfig",
    "SyntheticCohort",
    "generate_cohort",
    "train_test_split",
    "save_cohort",
    "load_cohort",
    "DATASETS",
    "dataset",
    "dataset_names",
    "MafRecord",
    "read_maf",
    "write_maf",
    "summarize_maf",
    "GeneMutationProfile",
    "positional_distribution",
]
