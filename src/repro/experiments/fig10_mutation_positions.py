"""Fig. 10 — positional mutation distributions: IDH1 vs MUC6 in LGG.

Paper: in the top LGG 4-hit combination, IDH1 mutations concentrate at
amino acid 132 in tumors (400 of 532 samples; 0 of 329 normals) — a
driver hotspot — while MUC6 mutations scatter uniformly in tumors and
normals alike, the signature of a passenger gene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.cancers import cancer
from repro.data.hotspots import LGG_PROFILES, positional_distribution

__all__ = ["Fig10Result", "run", "report"]


@dataclass(frozen=True)
class PositionalPanel:
    """One of the figure's four panels."""

    gene: str
    cohort: str  # "tumor" | "normal"
    counts: np.ndarray  # per amino-acid position
    n_samples: int

    @property
    def peak_position(self) -> int:
        return int(np.argmax(self.counts)) + 1

    @property
    def peak_concentration(self) -> float:
        """Fraction of all mutations at the modal position."""
        total = self.counts.sum()
        return float(self.counts.max() / total) if total else 0.0


@dataclass(frozen=True)
class Fig10Result:
    panels: dict[tuple[str, str], PositionalPanel]

    def panel(self, gene: str, cohort: str) -> PositionalPanel:
        return self.panels[(gene, cohort)]


def run(seed: int = 0) -> Fig10Result:
    lgg = cancer("LGG")
    panels: dict[tuple[str, str], PositionalPanel] = {}
    for gene, profile in LGG_PROFILES.items():
        for cohort_name, is_tumor, n in (
            ("tumor", True, lgg.n_tumor),
            ("normal", False, lgg.n_normal),
        ):
            counts = positional_distribution(profile, n, tumor=is_tumor, seed=seed)
            panels[(gene, cohort_name)] = PositionalPanel(
                gene=gene, cohort=cohort_name, counts=counts, n_samples=n
            )
    return Fig10Result(panels=panels)


def report(result: Fig10Result) -> str:
    lines = ["Fig 10: positional mutation distributions in LGG"]
    for (gene, cohort_name), panel in sorted(result.panels.items()):
        total = int(panel.counts.sum())
        lines.append(
            f"  {gene:5s} {cohort_name:6s}: {total:4d} mutations in "
            f"{panel.n_samples} samples; peak at position {panel.peak_position} "
            f"({panel.peak_concentration * 100:.1f}% of mutations)"
        )
    idh1_t = result.panel("IDH1", "tumor")
    lines.append(
        f"  IDH1 tumor mutations at R132: {int(idh1_t.counts[131])} "
        f"(paper: 400 of 532 samples); normals at R132: "
        f"{int(result.panel('IDH1', 'normal').counts[131])} (paper: 0)"
    )
    muc6_t = result.panel("MUC6", "tumor")
    lines.append(
        f"  MUC6 tumor peak concentration {muc6_t.peak_concentration * 100:.1f}% "
        "(uniform scatter -> passenger-like)"
    )
    return "\n".join(lines)
