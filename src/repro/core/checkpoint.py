"""Checkpoint / resume for long greedy runs.

Summit's scheduler caps allocations (the paper notes sub-100-node jobs
were limited to two hours, which forced the 100-node baseline).  The
greedy loop has a natural checkpoint granularity: between iterations the
entire solver state is just the combinations found so far plus the
uncovered-sample mask.  :class:`SolverState` captures that state and
rebuilds the loop's working set on resume; continuing a run produces
bit-identical results to an uninterrupted one (asserted by the tests).

A checkpoint file is a journal of JSON lines.  A run's first save
writes one snapshot line (the whole state, ``format_version`` 2)
atomically, whether the run is fresh or resumed, so a resume compacts
the file; every later save of the run appends one fsynced record: the
combinations found since the previous save and the sample ids they
covered.  A save therefore costs what changed since the last one, not
the whole run so far.  :func:`load_state` replays the snapshot and
every complete (newline-terminated) record; an unterminated last line
is an append the process died inside, and is ignored.  A version-1
file (one snapshot object) still loads.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.core.combination import MultiHitCombination
from repro.core.fscore import FScoreParams
from repro.telemetry.export import atomic_write_text
from repro.telemetry.session import get_telemetry

__all__ = ["SolverState", "save_state", "load_state", "solve_with_checkpoints"]

_FORMAT_VERSION = 2
#: Versions :func:`load_state` reads; version 1 is one snapshot object.
_READABLE_VERSIONS = (1, 2)


@dataclass(frozen=True)
class SolverState:
    """Resumable snapshot of the greedy loop between iterations.

    The pruned engine's bound table is a cache and is not part of it: a
    resumed run rescans under the prefix ceiling alone and produces
    bit-identical iterations.
    """

    hits: int
    alpha: float
    combinations: tuple[MultiHitCombination, ...]
    active: np.ndarray  # uncovered tumor samples (vs original columns)

    @classmethod
    def capture(
        cls,
        hits: int,
        alpha: float,
        combos: list[MultiHitCombination],
        active: np.ndarray,
    ) -> "SolverState":
        return cls(
            hits=hits,
            alpha=alpha,
            combinations=tuple(combos),
            active=active.copy(),
        )

    def restore(
        self, tumor: BitMatrix, hits: int, params: FScoreParams
    ) -> tuple[list[MultiHitCombination], np.ndarray]:
        """Validate against the run being resumed and return (combos, active)."""
        if hits != self.hits:
            raise ValueError(
                f"checkpoint is for {self.hits}-hit search, solver wants {hits}"
            )
        if abs(params.alpha - self.alpha) > 1e-12:
            raise ValueError("checkpoint alpha differs from solver alpha")
        if self.active.shape != (tumor.n_samples,):
            raise ValueError(
                f"checkpoint covers {self.active.shape[0]} samples, "
                f"matrix has {tumor.n_samples}"
            )
        # Consistency: every recorded combination names genes of this
        # matrix, and its samples are inactive.
        for c in self.combinations:
            g = c.genes  # strictly increasing: the record enforces it
            if len(g) != hits or g[0] < 0 or g[-1] >= tumor.n_genes:
                raise ValueError(
                    f"checkpoint combination {g} is not a {hits}-hit "
                    f"tuple of genes in [0, {tumor.n_genes})"
                )
            covered = tumor.samples_with_all(c.genes)
            if bool((covered & self.active).any()):
                raise ValueError(
                    f"checkpoint inconsistent: combination {c.genes} still "
                    "covers active samples"
                )
        return list(self.combinations), self.active.copy()

    @property
    def n_found(self) -> int:
        return len(self.combinations)

    @property
    def n_uncovered(self) -> int:
        return int(self.active.sum())


def _combination_rows(combos) -> list:
    return [
        {"genes": list(c.genes), "f": c.f, "tp": c.tp, "tn": c.tn}
        for c in combos
    ]


def save_state(state: SolverState, path: "str | Path") -> None:
    """Write ``state`` as a fresh checkpoint: one snapshot line, atomically.

    The line goes through :func:`~repro.telemetry.export.
    atomic_write_text` — a sibling temp file, flushed and fsynced, then
    renamed over ``path`` with :func:`os.replace` — so a crash mid-write
    (the very failure checkpoints exist to survive) can never leave a
    torn snapshot behind: ``path`` holds either the previous complete
    journal or the new snapshot.  Records a run appends after it go
    through :class:`_Journal`.
    """
    payload = {
        "format_version": _FORMAT_VERSION,
        "hits": state.hits,
        "alpha": state.alpha,
        "combinations": _combination_rows(state.combinations),
        "active": [int(i) for i in np.flatnonzero(state.active)],
        "n_samples": int(state.active.shape[0]),
    }
    encoded = json.dumps(payload) + "\n"
    with get_telemetry().span(
        "checkpoint", cat="checkpoint",
        iterations=len(state.combinations), bytes=len(encoded),
    ):
        atomic_write_text(path, encoded)


class _Journal:
    """One run's checkpoint file: a snapshot, then one record per save.

    The first :meth:`save` writes a snapshot (:func:`save_state`); each
    later one appends a line holding the combinations found and the
    sample ids covered since the previous save, then flushes and fsyncs
    it — one fsync per save, as the snapshot makes.  ``path`` is opened
    for appending once, at the first append, so a run whose only save
    is its last pays for the snapshot alone.  A process killed inside an
    append leaves an unterminated last line, which :func:`load_state`
    ignores.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._fh = None
        self._saved: "SolverState | None" = None  # the state on disk

    def save(self, state: SolverState) -> None:
        if self._saved is None:
            save_state(state, self.path)
        else:
            if self._fh is None:
                self._fh = open(self.path, "a")
            prev = self._saved
            record = {
                "combinations": _combination_rows(
                    state.combinations[prev.n_found:]
                ),
                "covered": np.flatnonzero(prev.active & ~state.active).tolist(),
            }
            encoded = json.dumps(record) + "\n"
            with get_telemetry().span(
                "checkpoint", cat="checkpoint",
                iterations=len(state.combinations), bytes=len(encoded),
            ):
                self._fh.write(encoded)
                self._fh.flush()
                os.fsync(self._fh.fileno())
        self._saved = state

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _field(raw, key: str, kind):
    """``raw[key]`` if ``raw`` is an object holding a ``kind`` there."""
    value = raw.get(key) if isinstance(raw, dict) else None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"checkpoint field {key!r} is missing or mistyped")
    return value


def _ints(raw, key: str) -> list:
    values = _field(raw, key, list)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise ValueError(f"checkpoint field {key!r} must hold integers")
    return values


def _combinations(raw) -> "list[MultiHitCombination]":
    return [
        MultiHitCombination(
            genes=tuple(_ints(c, "genes")),
            f=_field(c, "f", (int, float)),
            tp=_field(c, "tp", int),
            tn=_field(c, "tn", int),
        )
        for c in _field(raw, "combinations", list)
    ]


def _sample_ids(raw, key: str, n_samples: int) -> np.ndarray:
    ids = _ints(raw, key)
    if not all(0 <= i < n_samples for i in ids):
        raise ValueError(
            f"checkpoint field {key!r} must index samples in [0, {n_samples})"
        )
    return np.asarray(ids, dtype=np.int64)


def load_state(path: "str | Path") -> SolverState:
    """Inverse of the saves: the snapshot line, then every complete record.

    A last line without its newline is an append the writer died inside
    and is ignored.  Anything else the saves could not have written —
    a torn snapshot, a bit flip, a hand edit — raises
    :class:`ValueError` naming the field.  Every file the solver writes
    keeps the cover's arithmetic: a winner's ``tp`` counts only samples
    still uncovered, so a snapshot's covered count (``n_samples`` minus
    ``active``) is the sum of its combinations' ``tp``, and so is each
    record's ``covered`` count; both are checked.  The ``bound_table``
    key older files carry is ignored.
    """
    snapshot, *records = Path(path).read_text().split("\n")
    # With the snapshot's newline present, the last piece is "" (the file
    # ends on a record boundary) or a torn append: either way not a record.
    records = records[:-1]
    raw = json.loads(snapshot)
    if not isinstance(raw, dict):
        raise ValueError(f"checkpoint must be an object, got {type(raw).__name__}")
    version = raw.get("format_version")
    if version not in _READABLE_VERSIONS or isinstance(version, bool):
        raise ValueError(f"unsupported checkpoint version {version!r}")
    if version == 1 and records:
        raise ValueError("checkpoint version 1 holds one snapshot, found records")
    n_samples = _field(raw, "n_samples", int)
    active = np.zeros(n_samples, dtype=bool)
    active[_sample_ids(raw, "active", n_samples)] = True
    combos = _combinations(raw)
    if n_samples - int(active.sum()) != sum(c.tp for c in combos):
        raise ValueError(
            "checkpoint field 'active' disagrees with the combinations' "
            "'tp': n_samples - |active| must equal their sum"
        )
    for line in records:
        record = json.loads(line)
        found = _combinations(record)
        covered = _sample_ids(record, "covered", n_samples)
        if len(covered) != sum(c.tp for c in found):
            raise ValueError(
                "checkpoint record field 'covered' must hold as many ids "
                "as its combinations' 'tp' sum"
            )
        n_active = int(active.sum())
        active[covered] = False
        if n_active - int(active.sum()) != len(covered):
            raise ValueError(
                "checkpoint record field 'covered' must name distinct "
                "samples still active"
            )
        combos.extend(found)
    return SolverState(
        hits=_field(raw, "hits", int),
        alpha=_field(raw, "alpha", (int, float)),
        combinations=tuple(combos),
        active=active,
    )


def solve_with_checkpoints(
    solver,
    tumor,
    normal,
    path: "str | Path",
    every: int = 1,
    on_iteration=None,
    should_stop=None,
    min_interval_s: float = 0.0,
):
    """Run a solver, persisting a checkpoint every ``every`` iterations.

    If ``path`` exists, the run continues from it; either way the file
    tracks a recent completed iteration, so an interrupted process can
    always be relaunched with the same call.
    ``every > 1`` trades re-computable iterations for checkpoint I/O;
    ``min_interval_s`` does the same by the clock: a save is due once
    ``every`` iterations have passed *and* at least ``min_interval_s``
    seconds since the last write (or since the run began), so a crash
    loses at most that much solve time, however short the iterations.
    The default, 0, makes the cadence iterations only.  The final state
    is always persisted regardless of cadence.  The run's first save
    rewrites ``path`` as one atomic snapshot (compacting a resumed
    file); each later save appends one fsynced record (see
    :class:`_Journal`), so no save can leave a state that loads torn.

    ``on_iteration(state)`` is chained after the checkpoint bookkeeping
    (the gateway's progress feed rides this).  ``should_stop`` is
    forwarded to :meth:`MultiHitSolver.solve`; a cooperative stop still
    persists the final state, so a cancelled run resumes from where it
    stopped.
    """
    if every < 1:
        raise ValueError("every must be >= 1")
    path = Path(path)
    resume = load_state(path) if path.exists() else None

    journal = _Journal(path)
    last: "list[SolverState | None]" = [None]
    since = [0]  # iterations since the last write
    written_at = [time.monotonic()]

    def _on_iteration(state: SolverState) -> None:
        since[0] += 1
        last[0] = state
        now = time.monotonic()
        if since[0] >= every and now - written_at[0] >= min_interval_s:
            journal.save(state)
            last[0] = None
            since[0] = 0
            written_at[0] = now
        if on_iteration is not None:
            on_iteration(state)

    try:
        result = solver.solve(
            tumor, normal, resume=resume, on_iteration=_on_iteration,
            should_stop=should_stop,
        )
        if last[0] is not None:
            journal.save(last[0])
    finally:
        journal.close()
    return result
