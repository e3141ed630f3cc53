"""Parallelization scheme descriptors (Section III-A).

For an ``h``-hit search the sequential algorithm is ``h`` nested loops.
A scheme flattens the outer ``f`` loops into the thread grid (one thread
per ``f``-combination, decoded from the linear id with the closed-form
maps) and leaves ``d = h - f`` loops inside each thread:

* ``1x3`` — G threads, depth-3 inner loops (too little parallelism)
* ``2x2`` — C(G,2) threads, depth-2 inner loops
* ``3x1`` — C(G,3) threads, depth-1 inner loops (the paper's final choice)

Flattening all four loops (C(G,4) threads, no inner loop) is the
astronomically large grid the paper rules out; a :class:`Scheme`
without an inner loop cannot be built.

The same machinery covers 3-hit searches (``2x1`` etc.), which is how the
single-GPU baseline (Algorithm 1) is expressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Scheme",
    "SCHEME_1X3",
    "SCHEME_2X2",
    "SCHEME_3X1",
    "SCHEME_1X2",
    "SCHEME_2X1",
    "SCHEME_1X1",
    "scheme_for",
]


@dataclass(frozen=True)
class Scheme:
    """A loop-flattening scheme: ``flattened`` outer + ``inner`` nested loops.

    ``hits = flattened + inner`` is the combination order searched.  A
    scheme is nested (``inner >= 1``): the kernel scans a thread's
    inner loop, so a flat scheme is refused here, once for every caller.
    """

    flattened: int
    inner: int

    def __post_init__(self) -> None:
        if self.flattened < 1:
            raise ValueError("must flatten at least one loop")
        if self.inner < 1:
            raise ValueError(
                f"flat scheme (flattened={self.flattened}, inner={self.inner}) "
                "has no inner loop to scan; accepted schemes are nested, "
                "inner >= 1: the paper's 2x2 and 3x1, or any (h-k)xk with "
                "1 <= k < h"
            )

    @property
    def hits(self) -> int:
        return self.flattened + self.inner

    @property
    def name(self) -> str:
        return f"{self.flattened}x{self.inner}"

    def n_threads(self, g: int) -> int:
        """Grid size: one thread per ``flattened``-combination of genes."""
        return math.comb(g, self.flattened)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Scheme({self.name}, {self.hits}-hit)"


SCHEME_1X3 = Scheme(1, 3)
SCHEME_2X2 = Scheme(2, 2)
SCHEME_3X1 = Scheme(3, 1)
SCHEME_1X2 = Scheme(1, 2)
SCHEME_2X1 = Scheme(2, 1)
SCHEME_1X1 = Scheme(1, 1)


def scheme_for(hits: int, flattened: int) -> Scheme:
    """Scheme searching ``hits``-combinations with ``flattened`` outer loops."""
    return Scheme(flattened, hits - flattened)
