"""The one traffic meter closes on every backend.

Generated from the switch space: every way of distributing the arg-max
(single, pool x {1, 2, 4} workers, the distributed engine and a direct
call of its thread fleet, pinned and elastic) x ``prune`` x ``sparse``.

* Unpruned, what the scan metered equals :func:`fused_word_reads` summed
  over the ranges each call searched, at the width it searched them —
  dense: ``word_reads`` is that sum, iteration by iteration; sparse:
  ``word_reads + word_reads_skipped`` is.  A call builds each level's
  inner table once, so the sum — unlike ``combos_scored`` and the
  winners, which no cut can move — depends on where the backend cuts
  the grid; the test takes the cuts from the backend.
* Pruned, the scan meters what it gathers: ``word_reads`` equals a
  tally of every row gather of the solve, iteration by iteration,
  counted in this process and in the pool workers forked from it.
"""

import multiprocessing
import os
from unittest.mock import patch

import pytest

import repro.core.engine as engine_mod
from repro.bitmatrix.matrix import BitMatrix
from repro.core import solver as solver_module
from repro.core.memopt import fused_word_reads
from repro.core.solver import MultiHitSolver
from repro.scheduling.equiarea import equiarea_range_boundaries
from repro.scheduling.workload import total_threads
from tests.test_distributed import DRIVERS, _cohort, _winners

ITERATIONS = 3
_SHAPE = {"backend": "distributed", "n_nodes": 3, "gpus_per_node": 2}

#: cell id -> (solver knobs, driver of the distributed ledger)
BACKENDS = {
    "single": ({"backend": "single"}, "engine"),
    **{
        f"pool-{n}": ({"backend": "pool", "n_workers": n}, "engine")
        for n in (1, 2, 4)
    },
    "distributed-pinned": (_SHAPE, "engine"),
    "distributed-elastic": ({**_SHAPE, "elastic": True}, "engine"),
    "fleet-pinned": (_SHAPE, "thread-fleet"),
    "fleet-elastic": ({**_SHAPE, "elastic": True}, "thread-fleet"),
}


def _call_ranges(solver: MultiHitSolver, g: int) -> list:
    """The λ-ranges one arg-max of ``solver``'s backend searches, one
    per ``best_in_thread_range`` call."""
    total = total_threads(solver.scheme, g)
    if solver.backend == "pool":
        cuts = equiarea_range_boundaries(solver.scheme, g, 0, total, solver.n_workers)
    elif solver.backend == "distributed":
        cuts = solver_module._ENGINES["distributed"](solver).chunk_cuts(g)
    else:
        cuts = (0, total)
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def _tally_gathers(monkeypatch, tumor, normal):
    """Words every row gather of the solve touches, summed across the
    process and the pool workers forked from it (shared memory).

    In this process only gathers from the solve's own matrices count — the
    inputs and each spliced tumor matrix — since a thread an earlier test
    left running may still be scanning here."""
    tally = multiprocessing.get_context("fork").Value("q", 0)
    ours, parent = [tumor, normal], os.getpid()
    gather, splice = engine_mod._and_reduce_rows, solver_module.splice_columns

    def spliced(*args):
        ours.append(splice(*args))
        return ours[-1]

    def counted(matrix, combos):
        if os.getpid() != parent or any(matrix is m for m in ours):
            with tally.get_lock():
                tally.value += combos.size * matrix.n_words
        return gather(matrix, combos)

    monkeypatch.setattr(solver_module, "splice_columns", spliced)
    monkeypatch.setattr(engine_mod, "_and_reduce_rows", counted)
    return tally


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("prune", [False, True], ids=["full", "pruned"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_metered_traffic_equals_the_model(backend, prune, sparse, monkeypatch):
    knobs, driver = BACKENDS[backend]
    t, n = _cohort()
    tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
    g = tumor.n_genes
    tally = _tally_gathers(monkeypatch, tumor, normal)
    gathered = []  # the tally as each iteration left it

    with patch.dict(solver_module._ENGINES, distributed=DRIVERS[driver]):
        solver = MultiHitSolver(
            hits=3, max_iterations=ITERATIONS, prune=prune, sparse=sparse, **knobs
        )
        result = solver.solve(
            tumor, normal, on_iteration=lambda state: gathered.append(tally.value)
        )
    assert len(result.iterations) == ITERATIONS  # the cap ended the loop
    c = result.counters
    assert (c.combos_pruned > 0) == prune  # pruning engaged: threads were left

    if prune:
        per_iteration = [b - a for a, b in zip([0] + gathered, gathered)]
        assert [r.word_reads for r in result.iterations] == per_iteration
        assert c.word_reads == gathered[-1]
        assert c.word_reads_skipped == 0
    else:
        ranges = _call_ranges(solver, g)
        widths = [tumor.n_words] + [r.tumor_words for r in result.iterations]
        expected = [
            sum(
                fused_word_reads(solver.scheme, g, widths[i] + normal.n_words, lo, hi)
                for lo, hi in ranges
            )
            for i in range(ITERATIONS)
        ]
        if sparse:
            assert c.word_reads + c.word_reads_skipped == sum(expected)
            assert 0 < c.word_reads <= sum(expected)
        else:
            assert [r.word_reads for r in result.iterations] == expected
            assert c.word_reads == sum(expected)
            assert c.word_reads_skipped == 0

    # What no cut can move: the winners, and unpruned the scored count.
    reference = MultiHitSolver(
        hits=3, max_iterations=ITERATIONS, sparse=sparse
    ).solve(tumor, normal)
    assert _winners(result) == _winners(reference)
    assert c.combos_scored + c.combos_pruned == reference.counters.combos_scored
