"""Correctness checks that feed ``failed`` / ``attempted`` (the error rate).

Run after the timed operations, never inside them.  An operation fails
if it raised, if its winners differ from the other repeats, if they
differ from an independent dense solve, or if a winner's TP / TN do not
survive a recount from the dense boolean arrays with plain numpy.

A *signature* is what one operation returned: the sequence of
``(genes, f, tp, tn)`` winners in greedy order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ALPHA", "failed_operations", "recount_ok", "signature"]

ALPHA = 0.1  # the solver default every workload runs with


def signature(combinations) -> tuple:
    """Winners of one operation, from solver objects or job-result dicts."""
    out = []
    for c in combinations:
        if isinstance(c, dict):
            out.append((tuple(c["genes"]), c["f"], c["tp"], c["tn"]))
        else:
            out.append((tuple(c.genes), c.f, c.tp, c.tn))
    return tuple(out)


def recount_ok(tumor: np.ndarray, normal: np.ndarray, sig: tuple) -> bool:
    """Replay the greedy cover on the dense arrays and recount every winner."""
    active = np.ones(tumor.shape[1], dtype=bool)
    denominator = float(tumor.shape[1] + normal.shape[1])
    for genes, f, tp, tn in sig:
        rows = list(genes)
        carriers = np.logical_and.reduce(tumor[rows], axis=0)
        tp_dense = int((carriers & active).sum())
        tn_dense = normal.shape[1] - int(
            np.logical_and.reduce(normal[rows], axis=0).sum()
        )
        if (tp, tn) != (tp_dense, tn_dense):
            return False
        if f != (ALPHA * tp_dense + tn_dense) / denominator:
            return False
        active &= ~carriers
    return True


def failed_operations(
    outcomes: list, reference: tuple, tumor: np.ndarray, normal: np.ndarray
) -> int:
    """How many of ``outcomes`` count as failed.

    ``outcomes`` holds one ``(signature, combos_scored)`` per operation,
    or ``None`` for one that raised.  Repeats must agree with the first
    successful one (winners *and* ``combos_scored``); the winners must
    equal ``reference`` (the independent dense solve) and survive the
    recount.  A wrong answer shared by every repeat fails all of them.
    """
    done = [o for o in outcomes if o is not None]
    failed = len(outcomes) - len(done)
    if not done:
        return failed
    first = done[0]
    agreeing = [o for o in done if o == first]
    failed += len(done) - len(agreeing)
    if first[0] != reference or not recount_ok(tumor, normal, first[0]):
        failed += len(agreeing)
    return failed
