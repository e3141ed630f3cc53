"""JSON serialization of solver results.

The original pipeline writes the identified combinations to the
supporting-information tables; this module round-trips a
:class:`repro.core.MultiHitResult` through JSON so runs can be archived
and re-scored without re-solving.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.combination import MultiHitCombination
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.solver import IterationRecord, MultiHitResult

__all__ = ["result_to_dict", "save_result", "load_result"]

#: Counters older files may carry and no engine keeps any more: the
#: block-table engine's block counts, the best-first engine's thread
#: counts and the sparse scoring body's four.
_RETIRED_COUNTERS = frozenset({
    "blocks_scanned", "blocks_skipped", "threads_scanned", "threads_skipped",
    "strides_skipped_sparse", "prefix_and_hits", "zero_prefix_runs_skipped",
    "word_reads_skipped",
})


def result_to_dict(result: MultiHitResult) -> dict:
    """Plain-JSON representation of a solver run."""
    return {
        "params": {
            "n_tumor": result.params.n_tumor,
            "n_normal": result.params.n_normal,
            "alpha": result.params.alpha,
        },
        "uncovered": result.uncovered,
        "counters": {
            "combos_scored": result.counters.combos_scored,
            "word_reads": result.counters.word_reads,
            "word_ops": result.counters.word_ops,
            "combos_pruned": result.counters.combos_pruned,
            "threads_bounded": result.counters.threads_bounded,
        },
        "combinations": [
            {"genes": list(c.genes), "f": c.f, "tp": c.tp, "tn": c.tn}
            for c in result.combinations
        ],
        "iterations": [
            {
                "iteration": r.iteration,
                "genes": list(r.combination.genes),
                "newly_covered": r.newly_covered,
                "remaining_before": r.remaining_before,
                "remaining_after": r.remaining_after,
                "tumor_words": r.tumor_words,
                "wall_seconds": r.wall_seconds,
                "combos_scored": r.combos_scored,
                "combos_pruned": r.combos_pruned,
                "word_reads": r.word_reads,
            }
            for r in result.iterations
        ],
    }


def save_result(result: MultiHitResult, path: "str | Path") -> None:
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2) + "\n")


def load_result(path: "str | Path") -> MultiHitResult:
    """Rebuild a :class:`MultiHitResult` from :func:`save_result` output."""
    raw = json.loads(Path(path).read_text())
    params = FScoreParams(**raw["params"])
    combos = [
        MultiHitCombination(
            genes=tuple(c["genes"]), f=c["f"], tp=c["tp"], tn=c["tn"]
        )
        for c in raw["combinations"]
    ]
    by_genes = {c.genes: c for c in combos}
    iterations = [
        IterationRecord(
            iteration=r["iteration"],
            combination=by_genes[tuple(r["genes"])],
            newly_covered=r["newly_covered"],
            remaining_before=r["remaining_before"],
            remaining_after=r["remaining_after"],
            tumor_words=r["tumor_words"],
            wall_seconds=r["wall_seconds"],
            combos_scored=r.get("combos_scored", 0),
            combos_pruned=r.get("combos_pruned", 0),
            word_reads=r.get("word_reads", 0),
        )
        for r in raw["iterations"]
    ]
    counters = KernelCounters(**{
        k: v for k, v in raw["counters"].items() if k not in _RETIRED_COUNTERS
    })
    return MultiHitResult(
        combinations=combos,
        iterations=iterations,
        params=params,
        uncovered=raw["uncovered"],
        counters=counters,
    )
