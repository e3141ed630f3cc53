"""Machine-speed calibration: how fast is this box *right now*?

The benchmark runs on a few cores of a shared host whose speed shifts by
20-50 % for minutes at a time (neighbours on the same physical cores and
caches).  Every probe that was tried -- a bytecode loop, small-array numpy
calls, a streaming AND over megabytes, and the repo's own solves -- rises
and falls together with those shifts (README, "Speed correction").  So the
end-to-end run interleaves a fixed piece of work that belongs to the
benchmark, not to the program, with the operations it times, and divides
each operation's wall time by how much slower than ``REFERENCE`` that
fixed work ran next to it.

The calibration is three parts of about 15 ms, one per kind of work the
program does; a slice's *speed factor* is the geometric mean of the three
ratios to ``REFERENCE`` (1.0 = the box in its quiet state, 1.3 = 30 %
slower).  The three together tracked every workload better than any one
or two of them.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

__all__ = ["REFERENCE", "Calibrator"]

# Seconds each part takes on the 2-core box this benchmark was sized on, in
# its quiet state (lower quartile of 400 slices).  They only fix the scale:
# a run on a machine at this speed reports plain wall seconds.
REFERENCE = {"bytecode": 0.0171, "dispatch": 0.0150, "stream": 0.0133}

BYTECODE_LOOPS = 300_000
DISPATCH_CALLS = 8_000
STREAM_PASSES = 20
STREAM_SHAPE = (512, 1024)  # uint64: 4 MB an array, three arrays


class Calibrator:
    """Fixed work, timed on demand; ``slice()`` returns the speed factor."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20210521)
        self.rows = rng.integers(0, 2**63, size=(300, 64), dtype=np.uint64)
        self.left = rng.integers(0, 2**63, size=STREAM_SHAPE, dtype=np.uint64)
        self.right = self.left[::-1].copy()
        self.out = np.empty_like(self.left)
        self.slices: list = []  # every slice taken: {"bytecode": s, ...}

    def _bytecode(self) -> None:
        total = 0
        for i in range(BYTECODE_LOOPS):
            total += i * i

    def _dispatch(self) -> None:
        rows = self.rows
        for i in range(DISPATCH_CALLS):
            np.bitwise_and(rows[i % 300], rows[(i + 1) % 300]).sum()

    def _stream(self) -> None:
        for _ in range(STREAM_PASSES):
            np.bitwise_and(self.left, self.right, out=self.out)
            self.out.sum()

    def slice(self) -> float:
        seconds = {}
        for name in REFERENCE:
            t0 = perf_counter()
            getattr(self, "_" + name)()
            seconds[name] = perf_counter() - t0
        self.slices.append(seconds)
        ratios = [seconds[name] / REFERENCE[name] for name in REFERENCE]
        return math.prod(ratios) ** (1.0 / len(ratios))
