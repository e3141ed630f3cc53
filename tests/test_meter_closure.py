"""The one traffic meter closes on every backend.

Generated from the switch space: every way of distributing the arg-max
(single, pool x {1, 2, 4} workers, the distributed engine and a direct
call of its thread fleet, static and elastic; the static cells keep
the ids ``*-pinned`` from when static leases were pinned to ranks) x
``prune`` (read by
nothing, so it must move nothing) x the dense or the blocky sparse
cohort of ``tests/test_distributed.py``.

The scan meters what it gathers: ``word_reads`` equals a tally of every
row gather of the solve, iteration by iteration, on every native call
(:func:`tally_gathers`).  What it gathers — unlike ``combos_scored`` and
the winners, which nothing can move — depends on where the backend cuts
the grid (each call builds its own inner table, and each thread's
bounds depend on the lead its call has reached) and on which normal
hits the engine's store already holds.  The hits-4 cells (the paper's 3x1 scheme and the 2x2 one,
whose valid inner columns are not a suffix) run single and on the
fleet's shared store.
"""

import ctypes
import threading
from unittest.mock import patch

import pytest

import repro.core.engine as engine_mod
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


#: The kernel's winner buffer among its arguments (after tumor, width,
#: normal, width, inner, columns, d, both tables and scratch) and, in it,
#: the words the call's fixed-row gathers read and the threads it
#: bounded (``_tile.c``).
WIN, W_READ, W_BOUNDED = 10, 3, 7


def wrap_kernel(monkeypatch, after) -> None:
    """Route every native call through ``after(name, args)``, called
    once the call returns."""
    lib = tile.kernel()

    class Wrapped:
        def __getattr__(self, name):
            fn = getattr(lib, name)

            def call(*args):
                n_valid = fn(*args)
                after(name, args)
                return n_valid

            return call

    monkeypatch.setattr(tile, "kernel", Wrapped)


def tally_gathers(monkeypatch, ours=None) -> _Tally:
    """Words every row gather of a scan touches, summed over every thread
    that scans for it.

    Python gathers rows in ``engine._and_reduce_rows`` (inner tables).
    The native kernel gathers the threads' fixed rows
    itself and reports the words those gathers read in its winner
    buffer, so those are tallied after each native call from the
    kernel's own count, not from the engine's charge.  With ``ours`` (a
    list of matrices, which the caller may extend), only gathers from
    those count."""
    tally = _Tally()
    gather = engine_mod._and_reduce_rows

    def counts(words):
        return ours is None or any(words is m.words for m in ours)

    def counted(matrix, combos):
        if counts(matrix.words):
            tally.add(combos.size * matrix.n_words)
        return gather(matrix, combos)

    def native(name, args):  # args[0]: the tumor matrix's address
        if ours is None or any(args[0] == m.words.ctypes.data for m in ours):
            tally.add(ctypes.c_int64.from_address(args[WIN] + 8 * W_READ).value)

    monkeypatch.setattr(engine_mod, "_and_reduce_rows", counted)
    wrap_kernel(monkeypatch, native)
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
    t, n = _cohort(sparse)
    tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
    tally = _tally_gathers(monkeypatch, tumor, normal)
    gathered = []  # the tally as each iteration left it

    with patch.dict(solver_module._ENGINES, distributed=DRIVERS[driver]):
        solver = MultiHitSolver(
            max_iterations=ITERATIONS, prune=prune, **knobs
        )
        result = solver.solve(
            tumor, normal, on_iteration=lambda state: gathered.append(tally.value)
        )
    assert len(result.iterations) == ITERATIONS  # the cap ended the loop
    c = result.counters
    assert c.combos_pruned == 0 and c.threads_bounded > 0

    per_iteration = [b - a for a, b in zip([0] + gathered, gathered)]
    assert [r.word_reads for r in result.iterations] == per_iteration
    assert c.word_reads == gathered[-1]

    # What no cut can move: the winners and the scored count.
    reference = MultiHitSolver(
        hits=knobs["hits"], scheme=solver.scheme, max_iterations=ITERATIONS,
    ).solve(tumor, normal)
    assert _winners(result) == _winners(reference)
    assert c.combos_scored == reference.counters.combos_scored
