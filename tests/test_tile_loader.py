"""The native kernel's loader, and solves through its one entry point.

``repro.core.tile`` builds ``_tile.c`` once per cache key into the cache
directory, loads it once per process and raises one error, naming the
compiler, the flags and the cache directory, whenever it cannot: there
is no other scoring body.  Every solve is scored by ``scan_range``, with
``prune`` on or off, and must give the oracle's answer.
"""

import dataclasses
import math
import os
import shutil
import subprocess
import threading
import time
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

import repro
from repro.bitmatrix.matrix import BitMatrix
from repro.core import tile
from repro.core.engine import best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.sequential import sequential_best_combo, sequential_solve
from repro.core.solver import MultiHitSolver
from repro.scheduling.schemes import scheme_for
from repro.scheduling.workload import total_threads
from tests.test_normal_hits import BACKENDS, ITERATIONS, _cohort, _solve

needs_compiler = pytest.mark.skipif(
    shutil.which(tile.COMPILER) is None, reason="no C compiler on this host"
)


@pytest.fixture
def unloaded(monkeypatch, tmp_path) -> Path:
    """A process that has not loaded the kernel yet, with an empty cache
    directory under ``tmp_path``; returns that directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(tile, "_kernel", None)
    return tmp_path / "repro"


def _checkout_files() -> set:
    found = set()
    for d, dirs, files in os.walk(Path(repro.__file__).resolve().parents[2]):
        dirs[:] = [x for x in dirs if x not in (".git", "__pycache__")]
        found.update(os.path.join(d, f) for f in files)
    return found


def _instance():
    rng = np.random.default_rng(2)
    return rng.random((9, 70)) < 0.4, rng.random((9, 50)) < 0.2


def _scan():
    """The winner of a whole-grid scan, one native call."""
    t, n = _instance()
    params, scheme = FScoreParams(n_tumor=70, n_normal=50), scheme_for(3, 2)
    best = best_in_thread_range(
        scheme, 9, BitMatrix.from_dense(t), BitMatrix.from_dense(n), params,
        0, total_threads(scheme, 9),
    )
    return best.genes, best.f, best.tp, best.tn


def _oracle():
    best = sequential_best_combo(
        *_instance(), 3, FScoreParams(n_tumor=70, n_normal=50)
    )
    return best.genes, best.f, best.tp, best.tn


class TestLoader:
    @needs_compiler
    def test_a_miss_compiles_into_the_cache_and_not_the_checkout(self, unloaded):
        before = _checkout_files()
        assert tile.kernel() is not None
        assert [p.suffix for p in unloaded.iterdir()] == [".so"]  # no temp left
        assert _checkout_files() == before
        assert _scan() == _oracle()

    @needs_compiler
    def test_a_hit_starts_no_subprocess(self, unloaded, monkeypatch):
        tile.kernel()  # the miss: builds the library
        monkeypatch.setattr(tile, "_kernel", None)

        def no_process(*args, **kwargs):
            raise AssertionError(f"a cache hit started a process: {args}")

        with patch.object(subprocess, "run", no_process), \
                patch.object(subprocess, "Popen", no_process):
            assert tile.kernel() is not None

    def test_two_first_calls_load_once(self, unloaded, monkeypatch):
        loads, barrier = [], threading.Barrier(2)

        def slow_load():
            loads.append(1)
            time.sleep(0.05)
            return object()

        monkeypatch.setattr(tile, "_load", slow_load)
        got = []

        def first_call():
            barrier.wait()
            got.append(tile.kernel())

        threads = [threading.Thread(target=first_call) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(loads) == 1
        assert got[0] is got[1] is not None

    def test_a_broken_compiler_raises_one_error(self, unloaded, monkeypatch):
        broken = str(unloaded / "no-such-compiler")
        monkeypatch.setattr(tile, "COMPILER", broken)
        t, n = _instance()
        for _ in range(2):  # the next solve tries again, and fails the same
            with pytest.raises(RuntimeError) as caught:
                MultiHitSolver(hits=3, backend="distributed", n_nodes=2).solve(t, n)
            text = str(caught.value)
            assert broken in text and " ".join(tile.FLAGS) in text
            assert str(unloaded) in text
        assert tile._kernel is None
        monkeypatch.setattr(tile, "COMPILER", "gcc")
        assert _scan() == _oracle()  # a working compiler loads it


def _record(result):
    """Winners and every iteration record field but ``wall_seconds``."""
    return (
        [(c.genes, c.f, c.tp, c.tn) for c in result.combinations],
        result.counters.combos_scored,
        [
            {k: v for k, v in dataclasses.asdict(r).items() if k != "wall_seconds"}
            for r in result.iterations
        ],
    )


@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_solve_is_the_same_on_both_tile_paths(backend, prune):
    """With ``prune`` on or off (read by nothing: the pruned batches were
    deleted, and ``scan_range`` bounds threads itself) every backend gets
    the oracle's winners, bit for bit, and scores the whole grid every
    iteration, as the oracle does, with ``single``'s records but
    ``word_reads``."""
    knobs, driver = BACKENDS[backend]
    got = _solve({**knobs, "hits": 3, "prune": prune}, driver)
    want = sequential_solve(*_cohort(), 3, max_iterations=ITERATIONS)
    assert _record(got)[0] == [(c.genes, c.f, c.tp, c.tn) for c in want]
    grid = [math.comb(14, 3)] * len(want)
    assert [r.combos_scored for r in got.iterations] == grid

    def records(result):
        return [
            {k: v for k, v in r.items() if k != "word_reads"}
            for r in _record(result)[2]
        ]

    assert records(got) == records(_solve({"hits": 3}))
