"""A Python mirror of the native scan's walk over one λ range.

``_tile.c::scan_range`` scores the threads of a range in colex order
from no lead.  Threads that share their top ``k`` genes (``k = 1 ..
f-1``) are contiguous, a depth-``k`` group: the kernel keeps each
depth's prefix AND, the AND of those top rows, and recomputes a depth
(one row gathered) only when the walk enters a new group there.  A group
whose ceiling ``fscore(popcount, Nn)`` lies strictly below the lead is
skipped to its end, every member counted bounded; any other thread ANDs
one row, its lowest gene, into the depth ``f-1`` prefix (for ``f = 1``,
its one row), and is then bounded, filled or scored per thread as
before: its prefix ceiling while its normal hits are not stored (past
it, it gathers its ``f`` normal rows), then its normal-hit floor once
the store holds it.

:func:`walk` replays that walk in numpy from the cohort alone, so tests
can hold the kernel's counters to it exactly: ``groups=False`` replays
the per-thread walk alone, which bounds the same threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.combinatorics.enumeration import combinations_array
from repro.core.fscore import fscore


@dataclass
class Walk:
    """What one scan gathers and bounds: fixed rows gathered from each
    matrix (the inner tables are not counted), threads bounded and
    valid entries scored."""

    tumor_rows: int = 0
    normal_rows: int = 0
    bounded: int = 0
    scored: int = 0

    def fixed_reads(self, tumor, normal) -> int:
        """The words the kernel's fixed-row gathers read (its ``win[3]``)."""
        return self.tumor_rows * tumor.n_words + self.normal_rows * normal.n_words


def walk(scheme, g, tumor, normal, params, lam_start, lam_end, store=None,
         groups=True) -> Walk:
    """The walk of ``[lam_start, lam_end)`` as one scan; ``store`` is the
    :class:`NormalHitStore` as the scan finds it (call before the scan)."""
    f, d = scheme.flattened, scheme.inner
    lam_end = min(lam_end, math.comb(g - d, f))
    out = Walk()
    if lam_end <= lam_start:
        return out
    t, n = tumor.to_dense(), normal.to_dense()
    tuples = [tuple(row) for row in combinations_array(f, lam_start, lam_end).tolist()]
    lam_cap = 0 if store is None else store.lam_cap
    lead, leader = -math.inf, None

    def ceiling(tp, floor):
        return fscore(tp, params.n_normal - floor, params)

    def reaches(genes, bound):
        return bound > lead or (
            bound == lead and (leader is None or genes < leader[:f])
        )

    entered = {}  # depth -> the top genes its prefix was last formed for
    i = 0
    while i < len(tuples):
        genes = tuples[i]
        per = math.comb(g - 1 - genes[-1], d)
        skip = 0
        for k in range(1, f if groups else 1):
            top = genes[f - k:]
            if entered.get(k) == top:
                continue
            entered[k] = top
            out.tumor_rows += 1
            if ceiling(int(t[list(top)].all(axis=0).sum()), 0) < lead:
                while i + skip < len(tuples) and tuples[i + skip][f - k:] == top:
                    skip += 1
                break
        if skip:
            out.bounded += skip
            out.scored += skip * per
            i += skip
            continue
        lam, i = lam_start + i, i + 1
        out.tumor_rows += 1 if groups else f
        out.scored += per
        base_t, base_n = t[list(genes)].all(axis=0), n[list(genes)].all(axis=0)
        inner = np.array(list(combinations(range(genes[-1] + 1, g), d)))
        tp = (base_t & t[inner].all(axis=1)).sum(axis=1)
        nh = (base_n & n[inner].all(axis=1)).sum(axis=1)
        tp_prefix = int(base_t.sum())
        held = lam < lam_cap
        if not (held and store.filled[lam]):
            if not reaches(genes, ceiling(tp_prefix, 0)):
                out.bounded += 1
                continue
            out.normal_rows += f
        if held and not reaches(genes, ceiling(tp_prefix, int(nh.min()))):
            out.bounded += 1
            continue
        scores = fscore(tp, params.n_normal - nh, params)
        best = scores.max()
        # Among equal F, the smallest gene tuple leads.
        first = min(genes + tuple(c) for c, s in zip(inner.tolist(), scores) if s == best)
        if best > lead or (best == lead and first < leader):
            lead, leader = best, first
    return out
