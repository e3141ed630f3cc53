"""Persistent per-λ-block bound tables for the lazy-greedy engine.

Between greedy iterations only the tumor matrix changes: covered sample
columns are removed, so every combination's ``TP`` is monotonically
non-increasing while ``TN`` (a function of the fixed normal matrix) never
changes.  With ``F = (alpha * TP + TN) / (Nt + Nn)`` and monotone float
rounding, each combination's F is non-increasing across iterations —
which makes the best F a λ-block achieved at *any* earlier iteration an
exact upper bound on the block's best F now.

:class:`BoundTable` stores one float bound plus an iteration stamp per
fixed-boundary λ-block.  The engine visits blocks in descending
stale-bound order (CELF-style lazy evaluation): the first blocks scored
establish a strong incumbent, and any block whose stored bound is
*strictly* below the incumbent's F cannot contain the winner — nor a tie,
since ties need an equal F — and is skipped without touching a single
matrix word.  Skipped blocks keep their stale bound, which remains a
valid (if loose) upper bound forever; rescored blocks are refreshed and
stamped with the iteration that scored them.

The table is *hierarchical*: blocks are grouped into super-blocks of
``super_size`` λ-adjacent blocks, each carrying a derived aggregate (max
member bound, all-members-stamped flag, summed work).  CELF visitation
runs at the super level first — a super-block whose every member is
stamped and whose max bound is strictly below the incumbent is skipped
in one step, without touching any per-block metadata — and the
λ-adjacency of a super's members is what lets the engine scan its
surviving blocks as one fused multi-block pass (a single λ-decode per
stride, not per block).  The super layer is derived data, rebuilt from
the per-block arrays wherever the table travels (payload slices, delta
fold-backs, checkpoints), so it changes no persistence format and no
soundness argument.

The table is a cache, never a source of truth: dropping it (or any slice
of it) only costs rescans, so fault recovery and checkpoint resume are
free to discard bounds whose provenance is unclear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.scheduling.equiarea import equiarea_range_boundaries
from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import (
    cumulative_work_before,
    total_threads,
    work_prefix_by_level,
)

__all__ = ["BoundTable"]


@dataclass
class BoundTable:
    """Per-λ-block upper bounds on F, persistent across greedy iterations.

    Attributes
    ----------
    scheme_key:
        ``(hits, flattened, inner)`` of the scheme the blocks partition —
        a table only ever applies to the grid it was cut for.
    g:
        Gene count (the λ grid is over genes; column compaction never
        changes it, so one table survives a whole greedy run).
    boundaries:
        ``(B + 1,)`` int64 block cut points covering ``[0, C(g, f))`` —
        or a sub-range of it, for a slice shipped to a pool worker.
    bounds:
        ``(B,)`` float64 per-block upper bounds; ``+inf`` means "never
        scored" (never prunable).
    stamps:
        ``(B,)`` int64 iteration that last refreshed each bound; ``-1``
        means never.
    works:
        ``(B,)`` int64 combinations per block (for pruned-combo
        accounting).
    offset:
        Global index of block 0 — nonzero only for worker-side slices,
        so their deltas address the parent table's blocks.
    super_size:
        Blocks per super-block (the hierarchy's fan-out).  The super
        aggregates are derived and rebuilt locally, so slices and
        checkpoints may regroup freely without invalidating anything.
    """

    scheme_key: tuple[int, int, int]
    g: int
    boundaries: np.ndarray
    bounds: np.ndarray
    stamps: np.ndarray
    works: np.ndarray
    offset: int = 0
    super_size: int = 8
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.super_size < 1:
            raise ValueError("super_size must be >= 1")
        self.boundaries = np.asarray(self.boundaries, dtype=np.int64)
        self.bounds = np.asarray(self.bounds, dtype=np.float64)
        self.stamps = np.asarray(self.stamps, dtype=np.int64)
        self.works = np.asarray(self.works, dtype=np.int64)
        self._index = {int(b): i for i, b in enumerate(self.boundaries)}
        self._rebuild_supers()

    def _rebuild_supers(self) -> None:
        k = self.super_size
        n_sup = (self.n_blocks + k - 1) // k
        self._super_bounds = np.empty(n_sup, dtype=np.float64)
        self._super_stamped = np.empty(n_sup, dtype=bool)
        self._super_works = np.empty(n_sup, dtype=np.int64)
        for s in range(n_sup):
            self._refresh_super(s)

    def _refresh_super(self, s: int) -> None:
        a, b = self.super_block_range(s)
        self._super_bounds[s] = self.bounds[a:b].max()
        self._super_stamped[s] = bool((self.stamps[a:b] >= 0).all())
        self._super_works[s] = int(self.works[a:b].sum())

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        scheme: Scheme,
        g: int,
        cuts: "tuple[int, ...] | list[int] | None" = None,
        n_blocks: int = 64,
        super_size: int = 8,
    ) -> "BoundTable":
        """Cut ``[0, C(g, f))`` into ~``n_blocks`` equi-area blocks.

        ``cuts`` (a backend's chunk / partition boundaries) are merged
        into the block boundaries so every chunk a backend searches is a
        whole number of blocks — the alignment the pruned engine path
        requires.
        """
        if n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        total = total_threads(scheme, g)
        points = set(equiarea_range_boundaries(scheme, g, 0, total, n_blocks))
        points.update((0, total))
        if cuts is not None:
            points.update(int(c) for c in cuts if 0 <= int(c) <= total)
        # The set dedups coinciding equi-area cuts (tiny g), so every
        # block is non-empty by construction.
        boundaries = np.asarray(sorted(points), dtype=np.int64)
        n = len(boundaries) - 1
        prefix = work_prefix_by_level(scheme, g)
        cum = [cumulative_work_before(scheme, g, int(b), prefix) for b in boundaries]
        works = np.diff(np.asarray(cum, dtype=np.int64))
        return cls(
            scheme_key=(scheme.hits, scheme.flattened, scheme.inner),
            g=g,
            boundaries=boundaries,
            bounds=np.full(n, np.inf),
            stamps=np.full(n, -1, dtype=np.int64),
            works=works,
            super_size=super_size,
        )

    # -- block addressing ----------------------------------------------

    @property
    def n_blocks(self) -> int:
        return len(self.bounds)

    def block_range(self, b: int) -> tuple[int, int]:
        return int(self.boundaries[b]), int(self.boundaries[b + 1])

    def block_work(self, b: int) -> int:
        return int(self.works[b])

    # -- super-block addressing ----------------------------------------

    @property
    def n_supers(self) -> int:
        return len(self._super_bounds)

    def super_of(self, b: int) -> int:
        return b // self.super_size

    def super_block_range(self, s: int) -> tuple[int, int]:
        """Block index range ``[a, b)`` making up super-block ``s``."""
        a = s * self.super_size
        return a, min(a + self.super_size, self.n_blocks)

    def super_work(self, s: int) -> int:
        return int(self._super_works[s])

    def aligned(self, lam_start: int, lam_end: int) -> bool:
        """Whether ``[lam_start, lam_end)`` is a whole number of blocks."""
        return lam_start in self._index and lam_end in self._index

    def block_slice(self, lam_start: int, lam_end: int) -> tuple[int, int]:
        """Block index range ``[i0, i1)`` covering ``[lam_start, lam_end)``."""
        if not self.aligned(lam_start, lam_end):
            raise ValueError(
                f"λ range [{lam_start}, {lam_end}) is not aligned to the "
                "bound table's block boundaries"
            )
        return self._index[lam_start], self._index[lam_end]

    # -- the lazy-greedy contract --------------------------------------

    def visit_order(self, i0: int, i1: int) -> np.ndarray:
        """Blocks of ``[i0, i1)`` in descending stale-bound order.

        Ties (equal bounds, including the fresh ``+inf``) resolve to the
        lower block id, so visitation — and therefore which blocks get
        skipped — is fully deterministic.
        """
        ids = np.arange(i0, i1)
        return ids[np.lexsort((ids, -self.bounds[i0:i1]))]

    def can_skip(self, b: int, incumbent_f: float) -> bool:
        """True when block ``b`` cannot contain the winner *or a tie*.

        Requires a strict inequality: a block whose bound equals the
        incumbent F may still hold an equal-F combination with a
        lexicographically smaller gene tuple, which the library-wide tie
        rule must surface.
        """
        return bool(self.stamps[b] >= 0 and self.bounds[b] < incumbent_f)

    def super_visit_order(self, i0: int, i1: int) -> np.ndarray:
        """Super-blocks overlapping ``[i0, i1)`` in descending bound order.

        The same deterministic tie rule as :meth:`visit_order`: equal
        aggregate bounds resolve to the lower super id, so the visitation
        sequence — and which supers get skipped — never depends on dict
        or scheduling order.
        """
        s0 = i0 // self.super_size
        s1 = (i1 + self.super_size - 1) // self.super_size
        ids = np.arange(s0, s1)
        return ids[np.lexsort((ids, -self._super_bounds[s0:s1]))]

    def can_skip_super(self, s: int, incumbent_f: float) -> bool:
        """True when no member block of super ``s`` can hold the winner.

        Sound for the same reason as :meth:`can_skip`: the aggregate is
        the max of member bounds, each an exact upper bound on its
        block's best F, and the strict inequality preserves the
        lexicographic tie rule.  Requires every member stamped — a fresh
        ``+inf`` member makes the aggregate ``+inf`` anyway, but the flag
        keeps the check cheap and explicit.
        """
        return bool(
            self._super_stamped[s] and self._super_bounds[s] < incumbent_f
        )

    def refresh(self, b: int, max_f: float, iteration: int) -> None:
        """Record the block's scanned maximum observed at ``iteration``.

        The nested scan stores the exact maximum.  The flat scheme's
        sparse body may store a valid *upper bound* instead (zero-prefix
        runs it resolves wholesale report the ``TP = 0`` ceiling, which
        dominates anything they could score) — still sound for the
        strict-inequality skip, since F is non-increasing across greedy
        iterations and the ceiling is constant (``Nn`` never shrinks).
        """
        self.bounds[b] = max_f
        self.stamps[b] = iteration
        self._refresh_super(self.super_of(b))

    def reset(self) -> None:
        """Forget everything (always sound — the table is a cache)."""
        self.bounds.fill(np.inf)
        self.stamps.fill(-1)
        self._rebuild_supers()

    # -- cross-process slices (pool workers) ---------------------------

    def slice_payload(self, lam_start: int, lam_end: int) -> dict:
        """Picklable slice covering one worker chunk."""
        i0, i1 = self.block_slice(lam_start, lam_end)
        return {
            "scheme_key": list(self.scheme_key),
            "g": self.g,
            "offset": self.offset + i0,
            "boundaries": [int(x) for x in self.boundaries[i0 : i1 + 1]],
            "bounds": [
                None if s < 0 else float(v)
                for v, s in zip(self.bounds[i0:i1], self.stamps[i0:i1])
            ],
            "stamps": [int(x) for x in self.stamps[i0:i1]],
            "works": [int(x) for x in self.works[i0:i1]],
            "super_size": self.super_size,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "BoundTable":
        bounds = np.asarray(
            [np.inf if v is None else v for v in payload["bounds"]], dtype=np.float64
        )
        return cls(
            scheme_key=tuple(payload["scheme_key"]),
            g=int(payload["g"]),
            boundaries=np.asarray(payload["boundaries"], dtype=np.int64),
            bounds=bounds,
            stamps=np.asarray(payload["stamps"], dtype=np.int64),
            works=np.asarray(payload["works"], dtype=np.int64),
            offset=int(payload.get("offset", 0)),
            super_size=int(payload.get("super_size", 8)),
        )

    def deltas(self, iteration: int) -> list[tuple[int, float]]:
        """Global ``(block_id, new_bound)`` pairs refreshed at ``iteration``."""
        hit = np.flatnonzero(self.stamps == iteration)
        return [(self.offset + int(b), float(self.bounds[b])) for b in hit]

    def apply_deltas(
        self, deltas: "list[tuple[int, float]] | None", iteration: int
    ) -> None:
        """Fold a worker slice's refreshed bounds back into this table."""
        if not deltas:
            return
        touched = set()
        for b, v in deltas:
            self.bounds[b - self.offset] = v
            self.stamps[b - self.offset] = iteration
            touched.add(self.super_of(b - self.offset))
        for s in touched:
            self._refresh_super(s)

    # -- checkpoint persistence ----------------------------------------

    def to_payload(self) -> dict:
        """Full-table JSON-safe snapshot (``slice_payload`` of everything)."""
        return self.slice_payload(
            int(self.boundaries[0]), int(self.boundaries[-1])
        )

    def matches(self, other: "BoundTable") -> bool:
        """Same grid, same blocks — a persisted table may replace ``other``."""
        return (
            self.scheme_key == other.scheme_key
            and self.g == other.g
            and self.offset == other.offset
            and np.array_equal(self.boundaries, other.boundaries)
        )
