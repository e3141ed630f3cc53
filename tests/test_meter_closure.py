"""The one traffic meter closes against the one model, on every backend.

Generated from the switch space: every way of distributing the arg-max
(single, pool x {1, 2, 4} workers, the distributed engine and a direct
call of its thread fleet, pinned and elastic) x ``prune`` x ``sparse``.  Whatever
the cell, what the scan metered equals :func:`fused_word_reads` summed
over the ranges each call searched, at the width it searched them:

* dense — ``word_reads`` is that sum, iteration by iteration;
* sparse — ``word_reads + word_reads_skipped`` is.

A call builds each level's inner table once, so the sum — unlike
``combos_scored`` and the winners, which no cut can move — depends on
where the backend cuts the grid; the test takes the cuts from the
backend and, on pruned runs, the scanned blocks from the bound table's
iteration stamps.
"""

from unittest.mock import patch

import pytest

from repro.bitmatrix.matrix import BitMatrix
from repro.core import solver as solver_module
from repro.core.bounds import BoundTable
from repro.core.memopt import fused_word_reads
from repro.core.solver import MultiHitSolver
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
    engine = solver_module._ENGINES[solver.backend](solver)
    try:
        cuts = engine.chunk_cuts(g) or (0, total_threads(solver.scheme, g))
    finally:
        engine.close()
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def _model(scheme, g, w, ranges, table, iteration) -> int:
    """``fused_word_reads`` over what the calls of one arg-max searched:
    the whole range, or with a bound table the blocks stamped this
    iteration — their inner tables charged once per call."""
    total = 0
    for lo, hi in ranges:
        if table is None:
            total += fused_word_reads(scheme, g, w, lo, hi)
            continue
        built: set = set()
        for b in range(*table.block_slice(lo, hi)):
            if table.stamps[b] == iteration:
                total += fused_word_reads(
                    scheme, g, w, *table.block_range(b), built
                )
    return total


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("prune", [False, True], ids=["full", "pruned"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_metered_traffic_equals_the_model(backend, prune, sparse):
    knobs, driver = BACKENDS[backend]
    t, n = _cohort()
    tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
    g = tumor.n_genes
    tables = []  # the bound table as each iteration left it

    with patch.dict(solver_module._ENGINES, distributed=DRIVERS[driver]):
        solver = MultiHitSolver(
            hits=3, max_iterations=ITERATIONS, prune=prune, sparse=sparse, **knobs
        )
        result = solver.solve(
            tumor, normal,
            on_iteration=lambda state: tables.append(state.bound_table),
        )
        ranges = _call_ranges(solver, g)
    assert len(result.iterations) == ITERATIONS  # the cap ended the loop

    widths = [tumor.n_words] + [r.tumor_words for r in result.iterations]
    expected = [
        _model(
            solver.scheme, g, widths[i] + normal.n_words, ranges,
            BoundTable.from_payload(tables[i]) if prune else None, i,
        )
        for i in range(ITERATIONS)
    ]
    c = result.counters
    assert (c.combos_pruned > 0) == prune  # pruning engaged: blocks were skipped
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
