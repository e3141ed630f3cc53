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

        # Every save of a run, snapshot or appended record, goes through
        # the run's journal.
        writes = []
        real_save = ckpt_module._Journal.save
        monkeypatch.setattr(
            ckpt_module._Journal,
            "save",
            lambda journal, state: (
                writes.append(state.n_found), real_save(journal, state)
            ),
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


# -- the journal: a snapshot line, then one record per save ------------------


@lru_cache(maxsize=None)
def _journal():
    """The fixture instance, the bytes of its 4-save journal (a snapshot
    and three records) and the state each save wrote."""
    rng = np.random.default_rng(12345)
    instance = rng.random((12, 50)) < 0.4, rng.random((12, 50)) < 0.12
    states = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        solve_with_checkpoints(
            MultiHitSolver(hits=2, max_iterations=4), *instance, path,
            on_iteration=states.append,
        )
        return instance, path.read_bytes(), tuple(states)


def _load_bytes(blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        path.write_bytes(blob)
        return load_state(path)


def _same_state(a: SolverState, b: SolverState) -> bool:
    return (
        (a.hits, a.alpha, a.combinations) == (b.hits, b.alpha, b.combinations)
        and np.array_equal(a.active, b.active)
    )


def _edit_line(blob: bytes, index: int, edit) -> bytes:
    lines = blob.decode().split("\n")
    lines[index] = json.dumps(edit(json.loads(lines[index])))
    return "\n".join(lines).encode()


class TestJournal:
    def test_first_save_is_a_snapshot_later_saves_append(self):
        _, blob, states = _journal()
        lines = blob.decode().split("\n")
        assert len(states) == 4 and lines[-1] == ""
        head, *records = (json.loads(line) for line in lines[:-1])
        assert head["format_version"] == 2
        assert len(head["combinations"]) == 1
        assert [len(r["combinations"]) for r in records] == [1, 1, 1]
        assert [len(r["covered"]) for r in records] == [
            c.tp for c in states[-1].combinations[1:]
        ]
        assert _same_state(_load_bytes(blob), states[-1])

    def test_tear_inside_the_snapshot_raises(self):
        _, blob, _ = _journal()
        for cut in range(blob.index(b"\n")):
            with pytest.raises(ValueError):
                _load_bytes(blob[:cut])

    def test_tear_inside_the_tail_loads_the_last_complete_record(self):
        """Every cut after the snapshot loads the state of the last
        newline-terminated line before it, and a resumed run adopts it
        and finishes bit-identical to an uninterrupted one."""
        instance, blob, states = _journal()
        full = MultiHitSolver(hits=2).solve(*instance)
        adopted = set()
        for cut in range(blob.index(b"\n") + 1, len(blob) + 1):
            saves = blob[:cut].count(b"\n")
            state = _load_bytes(blob[:cut])
            assert _same_state(state, states[saves - 1]), cut
            if saves not in adopted:
                adopted.add(saves)
                resumed = MultiHitSolver(hits=2).solve(*instance, resume=state)
                assert signature(resumed) == signature(full)
        assert adopted == {1, 2, 3, 4}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_flipped_journal_loads_or_raises_value_error(self, data):
        """Every single-byte flip of a journal is refused with
        ``ValueError``, or loads a state that the resumed run adopts or
        refuses with ``ValueError``."""
        instance, blob, _ = _journal()
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        flipped = blob[at] ^ data.draw(st.integers(1, 255), label="mask")
        try:
            state = _load_bytes(blob[:at] + bytes([flipped]) + blob[at + 1 :])
        except ValueError:
            return
        try:
            MultiHitSolver(hits=2, max_iterations=1).solve(*instance, resume=state)
        except ValueError:
            pass

    def test_version_1_file_loads(self):
        _, _, states = _journal()
        state = states[1]
        payload = {
            "format_version": 1, "hits": 2, "alpha": state.alpha,
            "combinations": [
                {"genes": list(c.genes), "f": c.f, "tp": c.tp, "tn": c.tn}
                for c in state.combinations
            ],
            "active": np.flatnonzero(state.active).tolist(),
            "n_samples": int(state.active.shape[0]),
        }
        blob = (json.dumps(payload) + "\n").encode()
        assert _same_state(_load_bytes(blob), state)
        with pytest.raises(ValueError, match="version 1"):
            _load_bytes(blob + b'{"combinations": [], "covered": []}\n')

    def test_version_9_header_refused(self):
        _, blob, _ = _journal()
        future = _edit_line(blob, 0, lambda raw: {**raw, "format_version": 9})
        with pytest.raises(ValueError, match="unsupported"):
            _load_bytes(future)

    @pytest.mark.parametrize(
        "index, edit, field",
        [
            (0, lambda raw: {**raw, "active": raw["active"][1:]}, "active"),
            (1, lambda raw: {**raw, "covered": raw["covered"][1:]}, "covered"),
            (1, lambda raw: {**raw, "covered": [0] + raw["covered"][1:]},
             "covered"),
            (1, lambda raw: {**raw, "covered": raw["covered"][:1] * 2
                             + raw["covered"][2:]}, "covered"),
            (2, lambda raw: {**raw, "covered": [50] + raw["covered"][1:]},
             "covered"),
            (2, lambda raw: {**raw, "combinations": [{"genes": [3, 7]}]}, "f"),
            (3, lambda raw: [raw], "combinations"),
        ],
        ids=[
            "active-disagrees-with-tp", "covered-short-of-tp",
            "covered-already-covered", "covered-repeated", "covered-past-end",
            "record-combination-without-f", "record-not-an-object",
        ],
    )
    def test_inconsistent_record_rejected_naming_the_field(
        self, index, edit, field
    ):
        _, blob, _ = _journal()
        with pytest.raises(ValueError, match=field):
            _load_bytes(_edit_line(blob, index, edit))

    def test_fsync_dying_on_the_third_save(self, tmp_path, monkeypatch):
        """The file a save that dies at its fsync leaves loads as the
        save before it or as the save itself, and resumes bit-identical."""
        import os as _os

        instance, _, states = _journal()
        real_fsync = _os.fsync
        calls = []

        def dying_on_third(fd):
            calls.append(fd)
            if len(calls) == 3:
                raise OSError("simulated power loss")
            real_fsync(fd)

        path = tmp_path / "ckpt.json"
        monkeypatch.setattr(_os, "fsync", dying_on_third)
        with pytest.raises(OSError, match="simulated"):
            solve_with_checkpoints(
                MultiHitSolver(hits=2, max_iterations=4), *instance, path
            )
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == [path]
        state = load_state(path)
        assert any(_same_state(state, states[i]) for i in (1, 2))
        full = MultiHitSolver(hits=2).solve(*instance)
        resumed = solve_with_checkpoints(MultiHitSolver(hits=2), *instance, path)
        assert signature(resumed) == signature(full)

    def test_resumed_run_compacts_and_drops_a_torn_tail(self, tmp_path):
        instance, blob, states = _journal()
        path = tmp_path / "ckpt.json"
        path.write_bytes(blob + b'{"combinations": [{"gen')
        result = solve_with_checkpoints(
            MultiHitSolver(hits=2, max_iterations=6), *instance, path
        )
        lines = path.read_text().split("\n")
        assert lines[-1] == ""  # no torn tail left
        head = json.loads(lines[0])
        assert head["format_version"] == 2
        assert len(head["combinations"]) == states[-1].n_found + 1
        assert len(lines) - 1 == 2  # one snapshot, one appended record
        assert load_state(path).combinations == tuple(result.combinations)
