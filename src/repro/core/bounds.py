"""Names the benchmark harness resolves, and nothing else.

``benchmarks/perf/trace.py`` patches ``BoundTable``'s seven attributes
and this module's ``equiarea_range_boundaries`` by these names.  The
table they belonged to, the pruned best-first arg-max's cache of
per-thread bounds, is gone: every arg-max is the one native scan, which
bounds each thread by its tumor-prefix ceiling and normal-hit floor
itself (:mod:`repro.core.engine`).  No module under ``src/`` imports
this one; ROADMAP item 1(e) re-points the harness and deletes it.
"""

# Bound but never called here: the benchmark harness patches it by name.
from repro.scheduling.equiarea import equiarea_range_boundaries  # noqa: F401


class BoundTable:
    """Harness-only: the seven attribute names ``trace.py`` patches."""

    @classmethod
    def build(cls) -> "BoundTable":
        return cls()

    def refresh(self) -> None:
        pass

    super_visit_order = can_skip_super = can_skip = refresh
    to_payload = from_payload = refresh
