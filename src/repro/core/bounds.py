"""Per-thread upper bounds on F: the pruned arg-max's cache.

Between greedy iterations only the tumor matrix changes: covered sample
columns are removed, so every combination's ``TP`` is monotonically
non-increasing while ``TN`` (a function of the fixed normal matrix) never
changes.  With ``F = (alpha * TP + TN) / (Nt + Nn)`` and monotone float
rounding, each combination's F is non-increasing across iterations —
which makes the best F a λ thread reached at *any* earlier iteration an
exact upper bound on the thread's best F now.

:class:`BoundTable` stores that bound, one float64 per λ thread of a
range (8 bytes per thread: ``C(G, h - 1)`` threads for the default
``(h-1)x1`` schemes); ``+inf`` means "never scored".  The pruned scan
(:func:`repro.core.engine.best_in_thread_range`) bounds each thread by
``min(stored, ceiling)``, where the ceiling ``fscore(TP_prefix, Nn)``
comes from the thread's own tumor prefix, visits threads best-first and
stops at the first bound *strictly* below the incumbent.

The table is a cache, never a source of truth: any entry may be reset
to ``+inf`` at the cost of rescans.  A lease, on either fleet, gets a
copy of its slice at grant (:meth:`BoundTable.slice`) and returns it
refreshed; the parent writes the slices back in lease-id order
(:meth:`BoundTable.write_back`), so the table after a call never
depends on which worker or rank searched what.  Checkpoints do not carry
it: a resumed run rescans under the ceiling alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bound but never called here: the benchmark harness
# (benchmarks/perf/trace.py) patches it by this name.
from repro.scheduling.equiarea import equiarea_range_boundaries  # noqa: F401
from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import total_threads

__all__ = ["BoundTable"]


@dataclass
class BoundTable:
    """Upper bounds on F for the λ threads ``[lam_start, lam_end)``.

    ``values[i]`` bounds every combination thread ``lam_start + i`` owns
    (``+inf``: never scored).  The table mutates in place as threads are
    scored; a copy taken with :meth:`slice` travels to a worker or rank.
    """

    values: np.ndarray
    lam_start: int = 0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)

    @classmethod
    def build(cls, scheme: Scheme, g: int) -> "BoundTable":
        """A never-scored table over the whole grid ``[0, C(g, f))``."""
        return cls(np.full(total_threads(scheme, g), np.inf))

    @property
    def lam_end(self) -> int:
        return self.lam_start + len(self.values)

    def _window(self, lo: int, hi: int) -> slice:
        if not self.lam_start <= lo <= hi <= self.lam_end:
            raise ValueError(
                f"λ range [{lo}, {hi}) is outside the table's "
                f"[{self.lam_start}, {self.lam_end})"
            )
        return slice(lo - self.lam_start, hi - self.lam_start)

    def slice(self, lo: int, hi: int) -> "BoundTable":
        """A copy of the bounds of ``[lo, hi)`` — what a lease
        gets at grant."""
        return BoundTable(self.values[self._window(lo, hi)].copy(), lo)

    def write_back(self, part: "BoundTable") -> None:
        """Fold a refreshed slice back into this table."""
        self.values[self._window(part.lam_start, part.lam_end)] = part.values

    def visit_order(self, ceiling: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best-first order of the first ``len(ceiling)`` threads.

        Returns ``(order, keys)``: thread offsets sorted by descending
        ``min(stored, ceiling)`` — equal bounds to the lower λ, so the
        order is fully deterministic — and those bounds in that order.
        """
        keys = np.minimum(self.values[: len(ceiling)], ceiling)
        order = np.argsort(-keys, kind="stable")
        return order, keys[order]

    def refresh(self, offsets: np.ndarray, maxima: np.ndarray) -> None:
        """Record the exact best F the threads at ``offsets`` scored."""
        self.values[offsets] = maxima

    # Harness-only names (benchmarks/perf/trace.py resolves them): the
    # block table's super level, skip checks and payload format are gone.
    super_visit_order = can_skip_super = can_skip = visit_order
    to_payload = from_payload = slice
