"""The one traffic meter closes on every backend.

Generated from the switch space: every way of distributing the arg-max
(single, pool x {1, 2, 4} workers, the distributed engine and a direct
call of its thread fleet, pinned and elastic) x ``prune`` x ``sparse``.

Pruned or not, the scan meters what it gathers: ``word_reads`` equals a
tally of every row gather of the solve, iteration by iteration, on
either tile body (:func:`tally_gathers`).  What
it gathers — unlike ``combos_scored`` and the winners, which nothing
can move — depends on where the backend cuts the grid (each call
builds its own inner tables) and, unpruned, on which normal hits the
engine's store already holds.  The hits-4 cells (the paper's 3x1 scheme and the 2x2 one,
whose valid inner columns are not a suffix) run single and on the
fleet's shared store.
"""

import threading
from unittest.mock import patch

import pytest

import repro.core.engine as engine_mod
import repro.core.kernels as kernels_mod
from repro.bitmatrix.matrix import BitMatrix
from repro.core import tile
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


class _Tally:
    def __init__(self) -> None:
        self.value = 0
        self.lock = threading.Lock()

    def add(self, words: int) -> None:
        with self.lock:
            self.value += words


def tally_gathers(monkeypatch, ours=None) -> _Tally:
    """Words every row gather of a scan touches, summed over every thread
    that scans for it.

    Python gathers rows in ``engine._and_reduce_rows`` (inner tables, the
    pruned ceiling pass, the numpy tile body's base rows) and
    ``kernels._fused_and_popcount`` (the flat scheme).  The native tile
    gathers its base rows itself and reports the words those gathers
    read in its winner buffer (``level.win[4]``), so those are tallied
    after each ``engine._score_tile`` from the kernel's own count, not
    from the engine's charge.  With ``ours`` (a list of matrices, which
    the caller may extend), only gathers from those count."""
    tally = _Tally()
    gather, flat, score = (
        engine_mod._and_reduce_rows, kernels_mod._fused_and_popcount,
        engine_mod._score_tile,
    )

    def counts(words):
        return ours is None or any(words is m.words for m in ours)

    def counted(matrix, combos):
        if counts(matrix.words):
            tally.add(combos.size * matrix.n_words)
        return gather(matrix, combos)

    def counted_flat(words, combos, word_stride):
        if counts(words):
            tally.add(combos.size * words.shape[1])
        return flat(words, combos, word_stride)

    def scored(scheme, tuples, level, tumor, normal, *args, **kwargs):
        out = score(scheme, tuples, level, tumor, normal, *args, **kwargs)
        if tile.kernel() is not None and counts(tumor.words):
            tally.add(int(level.win[4]))
        return out

    monkeypatch.setattr(engine_mod, "_and_reduce_rows", counted)
    monkeypatch.setattr(kernels_mod, "_fused_and_popcount", counted_flat)
    monkeypatch.setattr(engine_mod, "_score_tile", scored)
    return tally


def _tally_gathers(monkeypatch, tumor, normal):
    """:func:`tally_gathers` over the solve's own matrices — the inputs
    and each spliced tumor matrix — since a thread an earlier test left
    running may still be scanning here."""
    ours = [tumor, normal]
    splice = solver_module.splice_columns

    def spliced(*args):
        ours.append(splice(*args))
        return ours[-1]

    monkeypatch.setattr(solver_module, "splice_columns", spliced)
    return tally_gathers(monkeypatch, ours)


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
