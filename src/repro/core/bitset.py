"""Packed multi-word bitset kernels for the inference hot path.

Signature masks are mathematically subsets of Ω.  The interactive loop
stores them in two interchangeable encodings:

* **Python ints** — unbounded, convenient, the public API everywhere
  (``SignatureClass.mask``, ``InferenceState.t_plus_mask``, …);
* **packed rows** — a ``(n_masks, n_words)`` ``uint64`` array holding the
  same bits 64 per word, little-endian (bit ``p`` of Ω lives in word
  ``p // 64`` at position ``p % 64``).

The packed form has no 63/64-bit ceiling: any Ω width is ``n_words``
words.  All the Lemma 3.3/3.4 certainty tests used by the strategies
reduce to the handful of kernels below, each vectorised over whole mask
sets at once — these are the primitives behind
:class:`~repro.core.signatures.SignatureIndex`,
:class:`~repro.core.state.InferenceState` and
:mod:`~repro.core.fast_lookahead`.

Every kernel is bit-for-bit equivalent to the obvious int-mask formula
(property-tested in ``tests/properties/test_bitset_kernels.py``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "WORD_BITS",
    "words_needed",
    "pack_mask",
    "pack_masks",
    "unpack_row",
    "unique_rows",
    "row_keys",
    "popcounts",
    "subset_of_row",
    "rows_subset_of",
    "subset_of_any",
    "pairwise_subset",
    "certain_rows",
]

#: Bits per packed word.  Full 64-bit words — ``uint64`` arithmetic in
#: NumPy is well-defined for shifts 0..63, so no spare sign bit is needed.
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1


def words_needed(n_bits: int) -> int:
    """Words required for ``n_bits`` mask bits (at least one)."""
    return max(1, (n_bits + WORD_BITS - 1) // WORD_BITS)


def pack_mask(mask: int, n_words: int) -> np.ndarray:
    """One int mask as a ``(n_words,)`` uint64 row."""
    row = np.empty(n_words, dtype=np.uint64)
    for word in range(n_words):
        row[word] = (mask >> (word * WORD_BITS)) & _WORD_MASK
    return row

def pack_masks(masks: Iterable[int], n_words: int) -> np.ndarray:
    """Many int masks as a ``(len(masks), n_words)`` uint64 array."""
    mask_list = list(masks)
    packed = np.empty((len(mask_list), n_words), dtype=np.uint64)
    for position, mask in enumerate(mask_list):
        for word in range(n_words):
            packed[position, word] = (mask >> (word * WORD_BITS)) & _WORD_MASK
    return packed


def unpack_row(row: Sequence[int] | np.ndarray) -> int:
    """A packed row back into a Python int mask."""
    mask = 0
    for word_index, word in enumerate(row):
        mask |= int(word) << (word_index * WORD_BITS)
    return mask


def unique_rows(
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(axis=0)`` for packed rows, with first-occurrence
    indices, the inverse mapping, and counts.

    Multi-word rows are folded column by column into dense codes (each
    fold is a 1-D ``np.unique``), so sorting always happens on flat
    integer arrays — much faster than the void-dtype row sort NumPy uses
    for ``axis=0`` — and the single-word (Ω ≤ 64) case sorts the raw
    words directly.  Returns ``(unique, first_index, inverse, counts)``;
    the unique rows are ordered by their codes, which is arbitrary but
    deterministic, and ``first_index`` is the *minimal* original index of
    each unique row (``np.unique`` sorts stably when indices are asked
    for).
    """
    _, first_indices, inverse, counts = np.unique(
        row_keys(rows),
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    return rows[first_indices], first_indices, inverse, counts


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One flat integer key per packed row, equal iff the rows are equal.

    A single-word row is its own key; wider rows are folded column by
    column into dense codes (each fold a 1-D ``np.unique``).
    """
    codes = rows[:, 0]
    for word in range(1, rows.shape[1]):
        uniques, codes = np.unique(codes, return_inverse=True)
        # codes < len(uniques) ≤ len(rows); pairing with the next column's
        # factorised codes stays well inside int64.
        column_uniques, column_codes = np.unique(
            rows[:, word], return_inverse=True
        )
        codes = codes.astype(np.int64) * len(column_uniques) + column_codes
    return codes


def popcounts(packed: np.ndarray) -> np.ndarray:
    """Per-row popcount of a ``(..., n_words)`` packed array."""
    return np.bitwise_count(packed).sum(axis=-1, dtype=np.int64)


def subset_of_row(packed: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``packed[i] ⊆ row`` for every row: boolean ``(n,)`` vector."""
    return ((packed & ~row[None, :]) == 0).all(axis=1)


def rows_subset_of(row: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """``row ⊆ packed[i]`` for every row: boolean ``(n,)`` vector."""
    return ((row[None, :] & ~packed) == 0).all(axis=1)


def subset_of_any(packed: np.ndarray, others: np.ndarray) -> np.ndarray:
    """``∃j. packed[i] ⊆ others[j]`` for every row ``i``."""
    if len(others) == 0:
        return np.zeros(len(packed), dtype=bool)
    return (
        ((packed[:, None, :] & ~others[None, :, :]) == 0)
        .all(axis=2)
        .any(axis=1)
    )


def pairwise_subset(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``(n, m)`` boolean matrix of ``first[i] ⊆ second[j]``."""
    return ((first[:, None, :] & ~second[None, :, :]) == 0).all(axis=2)


def certain_rows(
    packed: np.ndarray,
    t_plus: np.ndarray,
    negatives: np.ndarray,
) -> np.ndarray:
    """The Lemma 3.3/3.4 certainty tests over a whole mask set at once.

    ``packed[i]`` is certain (either polarity) under sample state
    ``(t_plus, negatives)`` iff ``t_plus ⊆ packed[i]`` (certain-positive)
    or some negative contains ``t_plus ∩ packed[i]`` (certain-negative).
    """
    certain = rows_subset_of(t_plus, packed)
    if len(negatives):
        needles = packed & t_plus[None, :]
        certain |= subset_of_any(needles, negatives)
    return certain
