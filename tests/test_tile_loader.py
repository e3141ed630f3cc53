"""The native tile kernel's loader, and solves on both tile paths.

``repro.core.tile`` builds ``_tile.c`` once per cache key into the cache
directory, loads it once per process and falls back to numpy, with one
warning, whenever it cannot.  Whichever path scores the tiles, a solve
must not change: popcounts are integers.
"""

import dataclasses
import os
import shutil
import subprocess
import threading
import time
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

import repro
from repro.bitmatrix.matrix import BitMatrix
from repro.core import tile
from repro.core.engine import best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.sequential import sequential_best_combo
from repro.scheduling.schemes import scheme_for
from repro.scheduling.workload import total_threads
from tests.test_kernels import TILE_PATHS, tile_path
from tests.test_normal_hits import BACKENDS, _solve

needs_compiler = pytest.mark.skipif(
    shutil.which(tile.COMPILER) is None, reason="no C compiler on this host"
)


@pytest.fixture
def unloaded(monkeypatch, tmp_path) -> Path:
    """A process that has not loaded the kernel yet, with an empty cache
    directory under ``tmp_path``; returns that directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(tile, "FALLBACK", False)
    monkeypatch.setattr(tile, "_loaded", False)
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
    """The winner of a whole-grid scan, every tile through ``_score_tile``."""
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
        monkeypatch.setattr(tile, "_loaded", False)
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

    def test_a_broken_compiler_falls_back_with_one_warning(
        self, unloaded, monkeypatch
    ):
        monkeypatch.setattr(tile, "COMPILER", str(unloaded / "no-such-compiler"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = [_scan() for _ in range(3)]
        assert [w.category for w in caught] == [RuntimeWarning]
        assert tile.kernel() is None
        assert got == [_oracle()] * 3


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
    knobs, driver = BACKENDS[backend]
    got = []
    for path in TILE_PATHS:
        with tile_path(path):
            got.append(_record(_solve({**knobs, "hits": 3, "prune": prune}, driver)))
    assert got[0] == got[1]
