#!/usr/bin/env python3
"""Compare two ``results.json`` files of ``run.py``: ``compare.py A.json B.json``.

For every workload and end-to-end metric: each side's reported value and
the quartiles of the per-operation samples behind it, the ratio B/A with
its base, and a verdict against the bound ``BENCHMARK.json`` fixes for
that metric:

* ``worse`` — B's value is worse than A's by more than the bound;
* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the bound, so a difference within it cannot be told from
  noise — unless every sample of B reads better than every sample of A;
* ``better`` — B's value is better than A's by more than the bound;
* ``within-bound`` — anything else.

Exits non-zero on any ``worse`` and on a higher error rate.  A/A runs
(the same code twice) must come out ``within-bound`` everywhere; a later
change passes A = parent, B = change.  Smoke results are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def quartiles(samples: list) -> tuple:
    """``(q1, q3)``; a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def verdict(am: float, a: list, bm: float, b: list, better: str, bound: float) -> tuple:
    """``(verdict, ratio)`` of value ``bm`` (samples ``b``) against ``am``."""
    a1, a3 = quartiles(a)
    b1, b3 = quartiles(b)
    ratio = bm / am
    # Relative change in the direction that counts as worse.
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse_by > bound:
        return "worse", ratio
    if max((a3 - a1) / am, (b3 - b1) / bm) > bound:
        clean = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("better" if clean else "unresolved"), ratio
    return ("better" if -worse_by > bound else "within-bound"), ratio


def _load(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    if data.get("smoke"):
        sys.exit(f"{path}: smoke results measure the harness, not the program")
    return data


def _error_rate(entry: dict) -> float:
    return entry["failed"] / entry["attempted"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    a, b = _load(argv[0]), _load(argv[1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    status = 0
    print(f"{'workload':<15} {'metric':<18} {'A value [q1, q3]':<34} "
          f"{'B value [q1, q3]':<34} {'B/A':>7}  verdict")
    for name in a["workloads"]:
        ea = a["workloads"][name].get("e2e")
        eb = b["workloads"].get(name, {}).get("e2e")
        if ea is None or eb is None:
            print(f"{name:<15} missing on one side")
            status = 1
            continue
        for m in declared:
            sides = [
                (e["metrics"][m["name"]]["value"], e["samples"][m["name"]])
                for e in (ea, eb)
            ]
            v, ratio = verdict(*sides[0], *sides[1], m["better"], m["bound"])
            cells = [
                "{0:.5g} [{1:.5g}, {2:.5g}] n={3}".format(value, *quartiles(s), len(s))
                for value, s in sides
            ]
            print(f"{name:<15} {m['name']:<18} {cells[0]:<34} {cells[1]:<34} "
                  f"{ratio:>7.3f}  {v} (bound {m['bound']:.0%}, base A)")
            if v == "worse":
                status = 1
        ra, rb = _error_rate(ea), _error_rate(eb)
        higher = rb > ra
        print(f"{name:<15} {'error_rate':<18} {ra:<34.4f} {rb:<34.4f} "
              f"{'':>7}  {'worse (any increase)' if higher else 'within-bound'}")
        if higher:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
