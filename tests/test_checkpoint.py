"""Tests for checkpoint/resume of the greedy loop."""

import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import (
    SolverState,
    load_state,
    save_state,
    solve_with_checkpoints,
)
from repro.core.combination import MultiHitCombination
from repro.core.memopt import MemoryConfig
from repro.core.solver import MultiHitSolver


@pytest.fixture
def instance(rng):
    t = rng.random((12, 50)) < 0.4
    n = rng.random((12, 50)) < 0.12
    return t, n


def signature(result):
    return [(c.genes, round(c.f, 12)) for c in result.combinations]


class TestResume:
    def test_resume_matches_uninterrupted(self, instance, tmp_path):
        t, n = instance
        full = MultiHitSolver(hits=2).solve(t, n)

        # Run 3 iterations, checkpoint, then resume to completion.
        states = []
        partial_solver = MultiHitSolver(hits=2, max_iterations=3)
        partial_solver.solve(t, n, on_iteration=states.append)
        assert len(states) == 3
        resumed = MultiHitSolver(hits=2).solve(t, n, resume=states[-1])

        assert signature(resumed) == signature(full)
        assert resumed.uncovered == full.uncovered
        assert len(resumed.iterations) == len(full.iterations) - 3

    def test_resume_with_mask_mode(self, instance):
        t, n = instance
        full = MultiHitSolver(hits=2, memory=MemoryConfig(bitsplice=False)).solve(t, n)
        states = []
        MultiHitSolver(
            hits=2, max_iterations=2, memory=MemoryConfig(bitsplice=False)
        ).solve(t, n, on_iteration=states.append)
        resumed = MultiHitSolver(hits=2, memory=MemoryConfig(bitsplice=False)).solve(
            t, n, resume=states[-1]
        )
        assert signature(resumed) == signature(full)

    def test_state_counts(self, instance):
        t, n = instance
        states = []
        MultiHitSolver(hits=2, max_iterations=2).solve(t, n, on_iteration=states.append)
        assert states[0].n_found == 1
        assert states[1].n_found == 2
        assert states[0].n_uncovered >= states[1].n_uncovered


class TestValidation:
    def test_hits_mismatch_rejected(self, instance):
        t, n = instance
        states = []
        MultiHitSolver(hits=2, max_iterations=1).solve(t, n, on_iteration=states.append)
        with pytest.raises(ValueError, match="2-hit"):
            MultiHitSolver(hits=3).solve(t, n, resume=states[-1])

    def test_alpha_mismatch_rejected(self, instance):
        t, n = instance
        states = []
        MultiHitSolver(hits=2, max_iterations=1).solve(t, n, on_iteration=states.append)
        with pytest.raises(ValueError, match="alpha"):
            MultiHitSolver(hits=2, alpha=0.5).solve(t, n, resume=states[-1])

    def test_wrong_matrix_rejected(self, instance, rng):
        t, n = instance
        states = []
        MultiHitSolver(hits=2, max_iterations=1).solve(t, n, on_iteration=states.append)
        other = rng.random((12, 49)) < 0.4
        with pytest.raises(ValueError, match="samples"):
            MultiHitSolver(hits=2).solve(other, n[:, :49], resume=states[-1])

    def test_inconsistent_checkpoint_rejected(self, instance):
        t, n = instance
        states = []
        MultiHitSolver(hits=2, max_iterations=1).solve(t, n, on_iteration=states.append)
        bad = SolverState(
            hits=2,
            alpha=0.1,
            combinations=states[-1].combinations,
            active=np.ones(50, dtype=bool),  # claims nothing was covered
        )
        if any(c.tp > 0 for c in bad.combinations):
            with pytest.raises(ValueError, match="inconsistent"):
                MultiHitSolver(hits=2).solve(t, n, resume=bad)


class TestPersistence:
    def test_json_roundtrip(self, instance, tmp_path):
        t, n = instance
        states = []
        MultiHitSolver(hits=2, max_iterations=2).solve(t, n, on_iteration=states.append)
        path = tmp_path / "ckpt.json"
        save_state(states[-1], path)
        back = load_state(path)
        assert back.hits == 2
        assert back.combinations == states[-1].combinations
        np.testing.assert_array_equal(back.active, states[-1].active)

    def test_version_check(self, instance, tmp_path):
        import json

        t, n = instance
        states = []
        MultiHitSolver(hits=2, max_iterations=1).solve(t, n, on_iteration=states.append)
        path = tmp_path / "ckpt.json"
        save_state(states[-1], path)
        raw = json.loads(path.read_text())
        raw["format_version"] = 9
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="unsupported"):
            load_state(path)

    def test_solve_with_checkpoints_end_to_end(self, instance, tmp_path):
        t, n = instance
        path = tmp_path / "run.json"
        full = MultiHitSolver(hits=2).solve(t, n)

        # "Job killed" after 2 iterations...
        interrupted = MultiHitSolver(hits=2, max_iterations=2)
        solve_with_checkpoints(interrupted, t, n, path)
        assert path.exists()
        # ...relaunch with the identical call, now unbounded.
        result = solve_with_checkpoints(MultiHitSolver(hits=2), t, n, path)
        assert signature(result) == signature(full)
        # Final checkpoint reflects the completed run.
        assert load_state(path).n_found == len(full.combinations)


class TestAtomicity:
    def test_save_leaves_no_temp_file(self, instance, tmp_path):
        t, n = instance
        states = []
        MultiHitSolver(hits=2, max_iterations=1).solve(t, n, on_iteration=states.append)
        path = tmp_path / "ckpt.json"
        save_state(states[-1], path)
        assert path.exists()
        assert list(tmp_path.iterdir()) == [path]

    def test_crash_mid_write_preserves_previous_checkpoint(
        self, instance, tmp_path, monkeypatch
    ):
        """A kill during the write (simulated at fsync) must leave the
        previous complete snapshot in place, with no torn file."""
        import os as _os

        t, n = instance
        states = []
        MultiHitSolver(hits=2, max_iterations=2).solve(t, n, on_iteration=states.append)
        path = tmp_path / "ckpt.json"
        save_state(states[0], path)
        before = path.read_bytes()

        def dying_fsync(fd):
            raise OSError("simulated power loss")

        monkeypatch.setattr(_os, "fsync", dying_fsync)
        with pytest.raises(OSError, match="simulated"):
            save_state(states[1], path)
        monkeypatch.undo()
        assert path.read_bytes() == before  # old snapshot intact
        assert not (tmp_path / "ckpt.json.tmp").exists()
        assert load_state(path).n_found == states[0].n_found


class TestCadence:
    @staticmethod
    def _record_saves(monkeypatch):
        import repro.core.checkpoint as ckpt_module

        writes = []
        real_save = ckpt_module.save_state
        monkeypatch.setattr(
            ckpt_module,
            "save_state",
            lambda state, p: (writes.append(state.n_found), real_save(state, p)),
        )
        return writes

    def test_every_n_write_count(self, instance, tmp_path, monkeypatch):
        t, n = instance
        path = tmp_path / "run.json"
        writes = self._record_saves(monkeypatch)
        solve_with_checkpoints(MultiHitSolver(hits=2, max_iterations=5), t, n, path, every=2)
        # Iterations 2 and 4 hit the cadence; iteration 5 is the final
        # guaranteed save.
        assert writes == [2, 4, 5]
        assert load_state(path).n_found == 5

    def test_default_interval_writes_every_iteration(
        self, instance, tmp_path, monkeypatch
    ):
        """``every=1`` with the default ``min_interval_s`` is the CLI's and
        the per-iteration cadence: one save per iteration, no more."""
        t, n = instance
        writes = self._record_saves(monkeypatch)
        solve_with_checkpoints(
            MultiHitSolver(hits=2, max_iterations=5), t, n, tmp_path / "r.json"
        )
        assert writes == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize(
        "every,interval,expected",
        [(1, 2.5, [3, 5]), (2, 0.5, [2, 4, 5]), (4, 2.5, [4, 5]),
         (1, 3600.0, [5])],
    )
    def test_min_interval_batches_saves_by_the_clock(
        self, instance, tmp_path, monkeypatch, every, interval, expected
    ):
        """A save is due after ``every`` iterations *and* ``min_interval_s``
        since the last write; the final state is saved regardless.  The
        clock reads 0 at the start and advances 1 s per iteration."""
        import types

        import repro.core.checkpoint as ckpt_module

        t, n = instance
        ticks = iter(range(100))
        monkeypatch.setattr(
            ckpt_module, "time",
            types.SimpleNamespace(monotonic=lambda: float(next(ticks))),
        )
        writes = self._record_saves(monkeypatch)
        path = tmp_path / "r.json"
        solve_with_checkpoints(
            MultiHitSolver(hits=2, max_iterations=5), t, n, path,
            every=every, min_interval_s=interval,
        )
        assert writes == expected
        assert load_state(path).n_found == 5

    def test_every_n_resumes_bit_exact(self, instance, tmp_path):
        t, n = instance
        full = MultiHitSolver(hits=2).solve(t, n)
        path = tmp_path / "run.json"
        solve_with_checkpoints(
            MultiHitSolver(hits=2, max_iterations=3), t, n, path, every=3
        )
        result = solve_with_checkpoints(MultiHitSolver(hits=2), t, n, path, every=3)
        assert signature(result) == signature(full)

    def test_every_validation(self, instance, tmp_path):
        t, n = instance
        with pytest.raises(ValueError, match="every"):
            solve_with_checkpoints(
                MultiHitSolver(hits=2), t, n, tmp_path / "x.json", every=0
            )


# -- malformed and damaged files -------------------------------------------


def _saved(instance, tmp_path):
    """A real two-iteration checkpoint: ``(path, payload)``."""
    t, n = instance
    states = []
    MultiHitSolver(hits=2, max_iterations=2).solve(t, n, on_iteration=states.append)
    path = tmp_path / "ckpt.json"
    save_state(states[-1], path)
    return path, json.loads(path.read_text())


@lru_cache(maxsize=None)
def _checkpoint_bytes():
    """The fixture instance and the bytes of its two-iteration checkpoint."""
    rng = np.random.default_rng(12345)
    instance = rng.random((12, 50)) < 0.4, rng.random((12, 50)) < 0.12
    with tempfile.TemporaryDirectory() as tmp:
        path, _ = _saved(instance, Path(tmp))
        return instance, path.read_bytes()


def draw_damage(data, blob: bytes) -> "tuple[bytes, bool]":
    """A strict prefix of ``blob`` or ``blob`` with one byte flipped;
    the flag says the file was torn before its closing brace."""
    if data.draw(st.booleans(), label="torn"):
        return blob[: data.draw(st.integers(0, blob.rindex(b"}")))], True
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    flipped = blob[at] ^ data.draw(st.integers(1, 255), label="mask")
    return blob[:at] + bytes([flipped]) + blob[at + 1 :], False


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda raw: [1, 2], "object"),
            (lambda raw: {**raw, "active": [-1]}, "active"),
            (lambda raw: {**raw, "active": [raw["n_samples"]]}, "active"),
            (lambda raw: {**raw, "active": ["3"]}, "active"),
            (lambda raw: {k: v for k, v in raw.items() if k != "hits"}, "hits"),
            (lambda raw: {**raw, "n_samples": "50"}, "n_samples"),
            (lambda raw: {**raw, "combinations": [[0, 1]]}, "genes"),
            (lambda raw: {**raw, "combinations": [{"genes": [0, None]}]}, "genes"),
        ],
        ids=[
            "not-an-object", "negative-active", "active-past-end", "active-str",
            "missing-hits", "n_samples-str", "combination-not-object",
            "gene-not-int",
        ],
    )
    def test_rejected_naming_the_field(self, instance, tmp_path, edit, field):
        path, raw = _saved(instance, tmp_path)
        path.write_text(json.dumps(edit(raw)))
        with pytest.raises(ValueError, match=field):
            load_state(path)

    @pytest.mark.parametrize(
        "genes", [(0, 12), (-1, 3), (4,)],
        ids=["past-last-gene", "negative-gene", "one-gene-for-2-hit"],
    )
    def test_restore_rejects_genes_outside_the_matrix(self, instance, genes):
        t, n = instance  # 12 genes, 2-hit
        state = SolverState(
            hits=2,
            alpha=0.1,
            combinations=(MultiHitCombination(genes=genes, f=0.5),),
            active=np.ones(t.shape[1], dtype=bool),
        )
        with pytest.raises(ValueError, match="genes in"):
            MultiHitSolver(hits=2).solve(t, n, resume=state)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_checkpoint_loads_or_raises_value_error(self, data):
        """Every truncation and single-byte flip of a saved checkpoint is
        refused with ``ValueError``, or loads a state that the resumed
        run adopts or refuses with ``ValueError``."""
        instance, blob = _checkpoint_bytes()
        damaged, torn = draw_damage(data, blob)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ckpt.json"
            path.write_bytes(damaged)
            try:
                state = load_state(path)
            except ValueError:
                return
        assert not torn
        try:
            MultiHitSolver(hits=2, max_iterations=1).solve(*instance, resume=state)
        except ValueError:
            pass

