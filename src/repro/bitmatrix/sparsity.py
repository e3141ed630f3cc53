"""Row-sparsity metadata for the packed bit matrices.

Real mutation matrices are extremely sparse (a few percent of samples
mutated per gene), and BitSplicing makes the late-iteration tumor matrix
sparser still.  A :class:`SparsityIndex` summarizes a
:class:`~repro.bitmatrix.matrix.BitMatrix`: per-row popcounts plus a
per-row boolean mask of which ``word_stride``-word slices contain any
set bit.  No scan reads it (the native kernel skips zero words itself);
the benchmark harness reports its ``nonzero_fraction`` and times
:meth:`SparsityIndex.build`.

The stride mask proves an *exact* skip: the AND of several rows is zero
on every stride where any participating row's mask bit is clear, and an
all-zero stride contributes 0 to every popcount.

The index is derived data.  Because :class:`BitMatrix` is frozen and
BitSplicing column compaction always produces a *new* matrix, a cached
index can never go stale — the spliced matrix simply builds its own on
first use (see :meth:`BitMatrix.sparsity`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SparsityIndex", "stride_any_mask"]


def stride_any_mask(words: np.ndarray, word_stride: int) -> np.ndarray:
    """Boolean ``(..., n_strides)`` mask: does each ``word_stride``-word
    slice of the trailing axis contain any nonzero word?

    Works on a single packed row ``(W,)`` or a stack ``(G, W)``; the
    trailing axis is reduced in groups of ``word_stride`` (the last group
    may be ragged).  An empty word axis yields an empty mask.
    """
    if word_stride < 1:
        raise ValueError(f"word_stride must be >= 1, got {word_stride}")
    words = np.asarray(words)
    n_words = words.shape[-1]
    if n_words == 0:
        return np.zeros(words.shape[:-1] + (0,), dtype=bool)
    offsets = np.arange(0, n_words, word_stride)
    return np.logical_or.reduceat(words != 0, offsets, axis=-1)


@dataclass(frozen=True)
class SparsityIndex:
    """Per-row sparsity summary of one packed matrix.

    Attributes
    ----------
    word_stride:
        Slice width (in packed words) the mask was built at — the same
        stride the fused kernels scan with.
    row_popcounts:
        ``(n_genes,)`` int64 set-bit counts per row.
    stride_any:
        ``(n_genes, n_strides)`` bool; ``stride_any[g, s]`` is True iff
        row ``g`` has any set bit in words ``[s * stride, (s+1) * stride)``.
    """

    word_stride: int
    row_popcounts: np.ndarray
    stride_any: np.ndarray

    @property
    def n_strides(self) -> int:
        return self.stride_any.shape[1]

    @property
    def nonzero_fraction(self) -> float:
        """Fraction of (row, stride) slices containing any set bit."""
        if self.stride_any.size == 0:
            return 0.0
        return float(self.stride_any.mean())

    @classmethod
    def build(cls, words: np.ndarray, word_stride: int) -> "SparsityIndex":
        words = np.asarray(words)
        if words.ndim != 2:
            raise ValueError(f"words must be 2-D, got shape {words.shape}")
        return cls(
            word_stride=int(word_stride),
            row_popcounts=np.bitwise_count(words).sum(axis=1).astype(np.int64),
            stride_any=stride_any_mask(words, int(word_stride)),
        )
