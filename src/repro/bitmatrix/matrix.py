"""The BitMatrix container used by every engine in the library."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitmatrix.packing import (
    WORD_BITS,
    pack_bool_matrix,
    unpack_bool_matrix,
    words_for,
)

__all__ = ["BitMatrix"]


@dataclass(frozen=True)
class BitMatrix:
    """A bit-packed binary gene-sample matrix.

    Attributes
    ----------
    words:
        ``(n_genes, n_words)`` uint64 array; bit ``s % 64`` of word
        ``s // 64`` in row ``g`` is 1 iff sample ``s`` has a mutation in
        gene ``g``.  Tail bits beyond ``n_samples`` are zero.
    n_samples:
        Number of valid sample columns.
    """

    words: np.ndarray
    n_samples: int
    _col_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(np.asarray(self.words, dtype=np.uint64))
        object.__setattr__(self, "words", w)
        if w.ndim != 2:
            raise ValueError(f"words must be 2-D, got shape {w.shape}")
        if not 0 <= self.n_samples <= w.shape[1] * WORD_BITS:
            raise ValueError(
                f"n_samples={self.n_samples} out of range for {w.shape[1]} words"
            )
        if w.shape[1] != words_for(self.n_samples):
            raise ValueError(
                f"expected {words_for(self.n_samples)} words for "
                f"{self.n_samples} samples, got {w.shape[1]}"
            )
        # Enforce the zero-tail invariant so popcounts never over-count.
        tail = self.n_samples % WORD_BITS
        if tail and w.shape[1]:
            mask = np.uint64((1 << tail) - 1)
            if np.any(w[:, -1] & ~mask):
                raise ValueError("tail bits beyond n_samples must be zero")

    # -- construction -------------------------------------------------

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        """Pack a boolean/integer ``(genes, samples)`` matrix."""
        dense = np.asarray(dense)
        return cls(pack_bool_matrix(dense), dense.shape[1])

    @classmethod
    def zeros(cls, n_genes: int, n_samples: int) -> "BitMatrix":
        return cls(np.zeros((n_genes, words_for(n_samples)), dtype=np.uint64), n_samples)

    # -- basic properties ---------------------------------------------

    @property
    def n_genes(self) -> int:
        return self.words.shape[0]

    @property
    def n_words(self) -> int:
        return self.words.shape[1]

    @property
    def nbytes(self) -> int:
        """Device-memory footprint of the packed representation."""
        return self.words.nbytes

    def to_dense(self) -> np.ndarray:
        return unpack_bool_matrix(self.words, self.n_samples)

    # -- core bitwise kernels -----------------------------------------

    def row(self, gene: int) -> np.ndarray:
        """Packed word row for one gene (a view, not a copy)."""
        return self.words[gene]

    def and_reduce(self, genes: "np.ndarray | list[int]") -> np.ndarray:
        """Bitwise AND of the rows for ``genes`` — samples mutated in *all*."""
        genes = np.asarray(genes, dtype=np.int64)
        if genes.size == 0:
            raise ValueError("need at least one gene")
        out = self.words[genes[0]].copy()
        for g in genes[1:]:
            np.bitwise_and(out, self.words[g], out=out)
        return out

    def count_samples_with_all(self, genes: "np.ndarray | list[int]") -> int:
        """Number of samples carrying mutations in every gene of ``genes``."""
        return int(np.bitwise_count(self.and_reduce(genes)).sum())

    def sparsity(self, word_stride: int = 64) -> "SparsityIndex":
        """The row-sparsity index at ``word_stride`` (built once, cached).

        The matrix is frozen and BitSplicing always produces a *new*
        matrix, so a cached index can never describe stale words — a
        spliced matrix simply builds its own on first use.
        """
        from repro.bitmatrix.sparsity import SparsityIndex

        key = ("sparsity", int(word_stride))
        index = self._col_cache.get(key)
        if index is None:
            index = self._col_cache[key] = SparsityIndex.build(
                self.words, int(word_stride)
            )
        return index

    def sample_mask_to_words(self, mask: np.ndarray) -> np.ndarray:
        """Pack a boolean per-sample mask into a word vector."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_samples,):
            raise ValueError(
                f"mask shape {mask.shape} != ({self.n_samples},)"
            )
        return pack_bool_matrix(mask[None, :])[0]

    def samples_with_all(self, genes: "np.ndarray | list[int]") -> np.ndarray:
        """Boolean per-sample mask of samples mutated in every gene."""
        words = self.and_reduce(genes)
        return unpack_bool_matrix(words[None, :], self.n_samples)[0]

    # -- convenience --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.n_samples == other.n_samples
            and self.words.shape == other.words.shape
            and bool(np.array_equal(self.words, other.words))
        )
