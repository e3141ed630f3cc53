"""Unpruned scans split into several scans at fixed λ boundaries.

An unpruned nested :func:`repro.core.engine.best_in_thread_range` call
is one native scan with one inner table, whatever its range.  Tests
that need a range cut into pieces — a store slice filled by part of a
range, a range that starts or ends mid-level — split it into several
scans, one native call each, at the boundaries :func:`cuts` gives: runs
of threads that fill ``budget`` entries, threads x the widest of their
first level's inner loop and the two row widths.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest.mock import patch

import repro.core.engine as engine_mod
from repro.combinatorics.decode import top_index
from repro.core.combination import better


def cuts(scheme, g, tumor, normal, lam_start, lam_end, budget):
    """``[lo, hi)`` pieces of ``[lam_start, lam_end)``, clipped to the
    threads with inner loops, of ``budget`` entries each."""
    f, d = scheme.flattened, scheme.inner
    lam_end = min(lam_end, math.comb(g - d, f))
    start = lam_start
    while start < lam_end:
        width = max(
            math.comb(g - 1 - top_index(start, f), d), tumor.n_words, normal.n_words
        )
        end = min(start + max(1, budget // width), lam_end)
        yield start, end
        start = end


@contextmanager
def scans_cut(budget):
    """Every unpruned scan in the block runs as one scan per piece of
    :func:`cuts`, its winners folded in λ order."""
    scan = engine_mod._scan_range

    def cut(scheme, g, tumor, normal, params, lam_start, lam_end, counters,
            normal_hits=None):
        best = None
        for lo, hi in cuts(scheme, g, tumor, normal, lam_start, lam_end, budget):
            best = better(best, scan(scheme, g, tumor, normal, params, lo, hi,
                                     counters, normal_hits))
        return best

    with patch.object(engine_mod, "_scan_range", cut):
        yield
