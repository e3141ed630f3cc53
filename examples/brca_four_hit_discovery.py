"""BRCA-style 4-hit discovery with train/test evaluation (Fig. 9 workflow).

Synthesizes a BRCA-shaped cohort (911 tumor / 1019 normal samples, gene
count reduced so the exhaustive 4-hit search runs on a laptop), solves on
the 75% training split, and scores the resulting classifier on the
held-out 25% — the exact evaluation protocol of Section IV-F.

Run:  python examples/brca_four_hit_discovery.py [RESULT.json]

The result is archived to ``RESULT.json`` when given, else into a fresh
temporary directory (the path is printed), never the working directory.
"""

import sys
import tempfile
from pathlib import Path

from repro import (
    MultiHitClassifier,
    MultiHitSolver,
    cancer,
    generate_cohort,
    sensitivity_specificity,
    train_test_split,
)
from repro.io.results import save_result


def main(out: "str | None" = None) -> None:
    brca = cancer("BRCA")
    print(f"{brca.name} ({brca.abbrev}): {brca.n_tumor} tumor / "
          f"{brca.n_normal} normal samples (paper-exact counts)")

    # Reduced gene universe: C(60, 4) ~ 4.9e5 combinations per iteration.
    cohort = generate_cohort(cancer=brca, n_genes=60, hits=4, seed=1)

    train_tumor, test_tumor = train_test_split(cohort.tumor, 0.75, seed=1)
    train_normal, test_normal = train_test_split(cohort.normal, 0.75, seed=2)
    print(f"train: {train_tumor.n_samples}+{train_normal.n_samples}  "
          f"test: {test_tumor.n_samples}+{test_normal.n_samples}")

    solver = MultiHitSolver(hits=4, max_iterations=16)
    result = solver.solve(train_tumor.values, train_normal.values)
    print(f"\n{len(result.combinations)} four-hit combinations found on training data")
    for rec in result.iterations[:5]:
        names = ",".join(cohort.tumor.gene_names[g] for g in rec.combination.genes)
        print(f"  iter {rec.iteration}: {names}  F={rec.combination.f:.4f} "
              f"covered {rec.newly_covered} new samples "
              f"({rec.remaining_after} remaining)")

    clf = MultiHitClassifier.from_result(result)
    perf = sensitivity_specificity(
        clf.predict(test_tumor), clf.predict(test_normal), name=brca.abbrev
    )
    print(f"\nheld-out performance: {perf.describe()}")
    print("(paper averages across 11 cancers: sensitivity 0.83, specificity 0.90)")

    if out is None:
        out = Path(tempfile.mkdtemp(prefix="brca-")) / "brca_four_hit_result.json"
    save_result(result, out)
    print(f"result archived to {out}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
