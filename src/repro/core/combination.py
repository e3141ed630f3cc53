"""The 20-byte combination record and deterministic tie-breaking.

Section III-E: a candidate is four ``int`` gene ids plus one ``float``
F value — 20 bytes.  The multi-stage reduction keeps one such record per
CUDA block, per GPU, and finally per MPI rank, which is what shrinks the
candidate list from terabytes to a handful of bytes on the wire.

Ties on F are broken toward the lexicographically smallest gene tuple so
every engine (sequential, vectorized, distributed, any schedule) returns
the identical winner — the property the equivalence tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "COMBO_DTYPE",
    "COMBO_RECORD_BYTES",
    "MultiHitCombination",
    "better",
]

# Four gene ids + F, exactly as laid out on the GPU (20 bytes, packed).
COMBO_DTYPE = np.dtype(
    [("genes", np.int32, (4,)), ("f", np.float32)], align=False
)
COMBO_RECORD_BYTES = COMBO_DTYPE.itemsize
assert COMBO_RECORD_BYTES == 20


@dataclass(frozen=True, order=False)
class MultiHitCombination:
    """An ``h``-hit gene combination with its score breakdown."""

    genes: tuple[int, ...]
    f: float
    tp: int = 0
    tn: int = 0

    def __post_init__(self) -> None:
        g = tuple(int(x) for x in self.genes)
        object.__setattr__(self, "genes", g)
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError(f"genes must be strictly increasing, got {g}")

    @property
    def hits(self) -> int:
        return len(self.genes)

    def to_record(self) -> np.ndarray:
        """Pack into the 20-byte GPU record (pads genes to 4 with -1)."""
        rec = np.zeros(1, dtype=COMBO_DTYPE)
        padded = list(self.genes) + [-1] * (4 - len(self.genes))
        rec["genes"][0] = padded[:4]
        rec["f"][0] = self.f
        return rec[0]

    @classmethod
    def from_record(cls, rec: np.ndarray, tp: int = 0, tn: int = 0) -> "MultiHitCombination":
        genes = tuple(int(g) for g in rec["genes"] if g >= 0)
        return cls(genes=genes, f=float(rec["f"]), tp=tp, tn=tn)


def better(a: "MultiHitCombination | None", b: "MultiHitCombination | None") -> "MultiHitCombination | None":
    """Deterministic max: higher F wins; ties go to the smaller gene tuple."""
    if a is None:
        return b
    if b is None:
        return a
    if a.f != b.f:
        return a if a.f > b.f else b
    return a if a.genes <= b.genes else b
