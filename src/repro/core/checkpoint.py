"""Checkpoint / resume for long greedy runs.

Summit's scheduler caps allocations (the paper notes sub-100-node jobs
were limited to two hours, which forced the 100-node baseline).  The
greedy loop has a natural checkpoint granularity: between iterations the
entire solver state is just the combinations found so far plus the
uncovered-sample mask.  :class:`SolverState` captures that state,
round-trips it through JSON, and rebuilds the loop's working set on
resume; continuing a run produces bit-identical results to an
uninterrupted one (asserted by the tests).
"""

from __future__ import annotations

import json
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

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SolverState:
    """Resumable snapshot of the greedy loop between iterations.

    ``bound_table`` is the lazy-greedy engine's per-λ-block bound cache
    (:meth:`repro.core.bounds.BoundTable.to_payload`).  It is strictly
    optional: bounds are exact upper bounds derived from earlier
    iterations, so a resumed run that drops the table (older checkpoint,
    different backend geometry, pruning disabled) rescans a few blocks
    but produces bit-identical iterations.
    """

    hits: int
    alpha: float
    combinations: tuple[MultiHitCombination, ...]
    active: np.ndarray  # uncovered tumor samples (vs original columns)
    bound_table: "dict | None" = None

    @classmethod
    def capture(
        cls,
        hits: int,
        alpha: float,
        combos: list[MultiHitCombination],
        active: np.ndarray,
        bound_table: "dict | None" = None,
    ) -> "SolverState":
        return cls(
            hits=hits,
            alpha=alpha,
            combinations=tuple(combos),
            active=active.copy(),
            bound_table=bound_table,
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


def save_state(state: SolverState, path: "str | Path") -> None:
    """Persist a checkpoint as JSON, atomically.

    The payload goes through :func:`~repro.telemetry.export.
    atomic_write_text` — a sibling temp file, flushed and fsynced, then
    renamed over ``path`` with :func:`os.replace` — so a crash mid-write
    (the very failure checkpoints exist to survive) can never leave a
    torn checkpoint behind: ``path`` holds either the previous complete
    snapshot or the new one.
    """
    payload = {
        "format_version": _FORMAT_VERSION,
        "hits": state.hits,
        "alpha": state.alpha,
        "combinations": [
            {"genes": list(c.genes), "f": c.f, "tp": c.tp, "tn": c.tn}
            for c in state.combinations
        ],
        "active": [int(i) for i in np.flatnonzero(state.active)],
        "n_samples": int(state.active.shape[0]),
    }
    if state.bound_table is not None:
        payload["bound_table"] = state.bound_table
    encoded = json.dumps(payload) + "\n"
    with get_telemetry().span(
        "checkpoint", cat="checkpoint",
        iterations=len(state.combinations), bytes=len(encoded),
    ):
        atomic_write_text(path, encoded)


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


def load_state(path: "str | Path") -> SolverState:
    """Inverse of :func:`save_state`.

    A file :func:`save_state` could not have written — torn, bit-flipped,
    hand-edited — raises :class:`ValueError` naming the field.
    """
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"checkpoint must be an object, got {type(raw).__name__}")
    if raw.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {raw.get('format_version')!r}")
    n_samples = _field(raw, "n_samples", int)
    active_ids = _ints(raw, "active")
    if not all(0 <= i < n_samples for i in active_ids):
        raise ValueError(
            f"checkpoint field 'active' must index samples in [0, {n_samples})"
        )
    active = np.zeros(n_samples, dtype=bool)
    active[active_ids] = True
    combos = tuple(
        MultiHitCombination(
            genes=tuple(_ints(c, "genes")),
            f=_field(c, "f", (int, float)),
            tp=_field(c, "tp", int),
            tn=_field(c, "tn", int),
        )
        for c in _field(raw, "combinations", list)
    )
    return SolverState(
        hits=_field(raw, "hits", int),
        alpha=_field(raw, "alpha", (int, float)),
        combinations=combos,
        active=active,
        bound_table=_field(raw, "bound_table", (dict, type(None))),
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
    is always persisted regardless of cadence, and each write is atomic
    (see :func:`save_state`).

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

    last: "list[SolverState | None]" = [None]
    since = [0]  # iterations since the last write
    written_at = [time.monotonic()]

    def _on_iteration(state: SolverState) -> None:
        since[0] += 1
        last[0] = state
        now = time.monotonic()
        if since[0] >= every and now - written_at[0] >= min_interval_s:
            save_state(state, path)
            last[0] = None
            since[0] = 0
            written_at[0] = now
        if on_iteration is not None:
            on_iteration(state)

    result = solver.solve(
        tumor, normal, resume=resume, on_iteration=_on_iteration,
        should_stop=should_stop,
    )
    if last[0] is not None:
        save_state(last[0], path)
    return result
