"""The one traffic meter closes on every backend.

Generated from the switch space: every way of distributing the arg-max
(single, pool x {1, 2, 4} workers, the distributed engine and a direct
call of its thread fleet, pinned and elastic) x ``prune`` x ``sparse``.

Pruned or not, the scan meters what it gathers: ``word_reads`` equals a
tally of every row gather of the solve, iteration by iteration, counted
in this process and in the pool workers forked from it.  What it
gathers — unlike ``combos_scored`` and the winners, which nothing can
move — depends on where the backend cuts the grid (each call builds its
own inner tables) and, unpruned, on which normal hits the scanning
process has stored (a pool worker holds only those of ranges it scanned
before).  The hits-4 cells (the paper's 3x1 scheme and the 2x2 one,
whose valid inner columns are not a suffix) run single and on the
fleet's shared store.
"""

import multiprocessing
import os
from unittest.mock import patch

import pytest

import repro.core.engine as engine_mod
from repro.bitmatrix.matrix import BitMatrix
from repro.core import solver as solver_module
from repro.core.solver import MultiHitSolver
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1
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


#: cell id -> (solver knobs, driver) of the hits-4 cells
HITS4 = {
    f"{name}-{label}": ({**knobs, "hits": 4, "scheme": scheme}, driver)
    for label, scheme in (("3x1", SCHEME_3X1), ("2x2", SCHEME_2X2))
    for name, (knobs, driver) in BACKENDS.items()
    if name in ("single", "fleet-elastic")
}


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("prune", [False, True], ids=["full", "pruned"])
@pytest.mark.parametrize("backend", [*BACKENDS, *HITS4])
def test_metered_traffic_equals_the_model(backend, prune, sparse, monkeypatch):
    knobs, driver = {**BACKENDS, **HITS4}[backend]
    knobs = {"hits": 3, **knobs}
    t, n = _cohort()
    tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
    tally = _tally_gathers(monkeypatch, tumor, normal)
    gathered = []  # the tally as each iteration left it

    with patch.dict(solver_module._ENGINES, distributed=DRIVERS[driver]):
        solver = MultiHitSolver(
            max_iterations=ITERATIONS, prune=prune, sparse=sparse, **knobs
        )
        result = solver.solve(
            tumor, normal, on_iteration=lambda state: gathered.append(tally.value)
        )
    assert len(result.iterations) == ITERATIONS  # the cap ended the loop
    c = result.counters
    assert (c.combos_pruned > 0) == prune  # pruning engaged: threads were left

    per_iteration = [b - a for a, b in zip([0] + gathered, gathered)]
    assert [r.word_reads for r in result.iterations] == per_iteration
    assert c.word_reads == gathered[-1]
    assert c.word_reads_skipped == 0

    # What no cut can move: the winners, and unpruned the scored count.
    reference = MultiHitSolver(
        hits=knobs["hits"], scheme=solver.scheme, max_iterations=ITERATIONS,
        sparse=sparse,
    ).solve(tumor, normal)
    assert _winners(result) == _winners(reference)
    assert c.combos_scored + c.combos_pruned == reference.counters.combos_scored
