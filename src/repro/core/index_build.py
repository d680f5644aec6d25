"""The signature-index construction: one join-driven kernel.

The :class:`~repro.core.signatures.SignatureIndex` is the quotient of
``D = R × P`` by ``T`` (§4) and the one artifact every strategy and every
service session depends on.  Besides the pure-Python reference, this
module holds the only kernel that computes it — the constructor's
``"numpy"`` backend and every service build run it:

1. :class:`IndexBuilder` encodes both relations once through one shared
   :class:`~repro.core.signatures.ValueCodec`;
2. :func:`signature_histogram` walks ``R`` in chunks of at most
   ``_CHUNK_WORDS`` packed words of the product.  Per chunk, each
   attribute pair scatters its bit onto the agreeing product positions,
   or broadcast-compares when they are common, and the chunk's distinct
   signatures are kept as packed uint64 arrays — counts and minimal
   product ordinals, never Python dicts per chunk.  One vectorised
   ``unique`` folds the chunks (counts sum, ordinals min), and the
   representative is the tuple pair at the minimal ordinal;
3. :func:`index_from_signatures` canonicalises into
   ``(|signature|, mask)`` order through
   :func:`~repro.core.signatures.canonical_classes`, the ordering rule
   the constructor and the sampled path share.

Because chunks partition the product by ascending rows of ``R`` and the
fold keeps the minimal ordinal, the result is bit-for-bit identical for
every chunk size (property-tested against the pure-Python reference).
The chunk is what bounds memory: beyond the encoded codes and the right
side's lookup, a build holds a small multiple of one chunk of packed
words, never the product.  The service runs whole builds on a thread
pool off its event loop — see :mod:`repro.service.index_cache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..relational.relation import Instance, Row
from . import bitset
from .signatures import SignatureIndex, ValueCodec, canonical_classes

__all__ = [
    "IndexBuilder",
    "signature_histogram",
    "index_from_signatures",
]

TuplePair = tuple[Row, Row]

#: Target packed uint64 words materialised per kernel chunk (~8 MiB), so
#: a build never allocates more than a chunk of the product regardless
#: of its size.  Chunks cover whole rows of R: the bound is approximate.
_CHUNK_WORDS = 1 << 20

#: An attribute pair agreeing at more than ``1/_SCATTER_MAX_SHARE`` of a
#: chunk's product positions sets its bit by a broadcast compare over
#: the chunk; a rarer pair scatters its bit onto the agreeing positions
#: only.  Past this share the scatter's index arithmetic per match costs
#: more than one compare per position.
_SCATTER_MAX_SHARE = 8


def _fold(
    words: np.ndarray, counts: np.ndarray, ordinals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Combine duplicate packed masks: counts sum, ordinals min."""
    unique, _, inverse, _ = bitset.unique_rows(words)
    groups = len(unique)
    summed = np.zeros(groups, dtype=np.int64)
    np.add.at(summed, inverse, counts)
    minimal = np.full(groups, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(minimal, inverse, ordinals)
    return unique, summed, minimal


@dataclass(frozen=True, slots=True)
class _RightLookup:
    """Where each value code sits in each right column.

    ``order[j]`` lists the right rows sorted by their code in column
    ``j``.  ``values[j]`` holds the column's distinct codes in
    ascending order, closed by a sentinel above every code; the rows
    holding ``values[j][k]`` are
    ``order[j, starts[j][k] : starts[j][k] + counts[j][k]]``, and the
    sentinel counts zero.  Indexed by each column's own values rather
    than by global code, so it costs ``O(m·|P|)`` however many values
    the shared codec holds.  Built once per build, before the chunks of
    ``R`` pass over it.
    """

    order: np.ndarray  # (m, n_right) int64
    values: tuple[np.ndarray, ...]
    starts: tuple[np.ndarray, ...]
    counts: tuple[np.ndarray, ...]

    @classmethod
    def of(cls, right_codes: np.ndarray) -> "_RightLookup":
        sentinel = np.iinfo(np.int64).max
        values, starts, counts = [], [], []
        for column in right_codes.T:
            distinct, lengths = np.unique(column, return_counts=True)
            lengths = np.append(lengths, 0)
            values.append(np.append(distinct, sentinel))
            starts.append(np.cumsum(lengths) - lengths)
            counts.append(lengths)
        order = np.argsort(right_codes.T, axis=1, kind="stable")
        return cls(order, tuple(values), tuple(starts), tuple(counts))

    def runs(
        self, j: int, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """For each of ``codes``: how many rows of right column ``j``
        hold it, and where their run starts in ``order[j]``."""
        values = self.values[j]
        local = np.searchsorted(values, codes)
        return (
            np.where(values[local] == codes, self.counts[j][local], 0),
            self.starts[j][local],
        )


def _chunk_words(
    left_codes: np.ndarray,
    right_codes: np.ndarray,
    lookup: _RightLookup,
    n_words: int,
) -> np.ndarray:
    """Packed signature words of ``left_codes`` × all right rows, in
    product order (left-major).

    Each attribute pair first counts its exact matches by binary search
    in the right column's distinct values.  A pair agreeing at more than
    ``1/_SCATTER_MAX_SHARE`` of the positions (constant, boolean and
    status columns) sets its bit by a broadcast compare; rarer
    agreement scatters the bit onto just the agreeing positions, found
    by expanding each left row's run in ``lookup.order``.
    """
    chunk, n = left_codes.shape
    n_right, m = right_codes.shape
    size = chunk * n_right
    words = np.zeros((size, n_words), dtype=np.uint64)
    row_base = np.arange(chunk, dtype=np.int64) * n_right
    for i in range(n):
        for j in range(m):
            matches, starts = lookup.runs(j, left_codes[:, i])
            total = int(matches.sum())
            if total == 0:
                continue
            word_index, bit = divmod(i * m + j, bitset.WORD_BITS)
            target = words[:, word_index]
            if total * _SCATTER_MAX_SHARE > size:
                equal = left_codes[:, i : i + 1] == right_codes[None, :, j]
                target |= equal.reshape(size).astype(np.uint64) << np.uint64(
                    bit
                )
                continue
            # Row r's matches are order[j, starts[r] + k] for
            # k < matches[r]; `offsets` turns a running match number
            # into that position of `order[j]`.
            ends = np.cumsum(matches)
            offsets = np.repeat(starts - ends + matches, matches)
            partners = lookup.order[j, np.arange(total) + offsets]
            target[np.repeat(row_base, matches) + partners] |= np.uint64(
                1 << bit
            )
    return words


def _distinct_rows(
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of ``rows`` with their counts and minimal
    positions.

    Unlike :func:`~repro.core.bitset.unique_rows` this skips the
    inverse and sorts unstably: the minimum over each run of equal keys
    recovers the first position a stable sort would have given.
    """
    keys = bitset.row_keys(rows)
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1]))
    )
    first = np.minimum.reduceat(order, starts)
    return rows[first], np.diff(starts, append=len(keys)), first


def _chunk_histogram(
    words: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of ``words`` with their counts and first
    positions, sorting only the non-empty rows.

    The empty signature needs no sort: its count is whatever the
    non-empty rows leave over, and its first position is the first
    all-zero row.
    """
    n_words = words.shape[1]
    nonempty = words[:, 0] != 0 if n_words == 1 else words.any(axis=1)
    positions = np.flatnonzero(nonempty)
    if len(positions) == len(words):
        return _distinct_rows(words)
    empty_words = np.zeros((1, n_words), dtype=np.uint64)
    empty_count = np.array([len(words) - len(positions)], dtype=np.int64)
    first_empty = np.array([np.argmin(nonempty)], dtype=np.int64)
    if len(positions) == 0:
        return empty_words, empty_count, first_empty
    unique, counts, first = _distinct_rows(words[positions])
    return (
        np.concatenate([empty_words, unique]),
        np.concatenate([empty_count, counts]),
        np.concatenate([first_empty, positions[first]]),
    )


def signature_histogram(
    left_codes: np.ndarray,
    right_codes: np.ndarray,
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
) -> dict[int, tuple[int, TuplePair]]:
    """The ``{mask: (count, representative)}`` histogram of
    ``left_rows × right_rows``, via the join-driven packed-bitset
    kernel.

    ``left_codes``/``right_codes`` must come from one shared
    :class:`~repro.core.signatures.ValueCodec` so code equality means
    value equality across the whole build.  Beyond the codes and the
    right side's ``O(m·|P|)`` lookup, peak memory is a small multiple of
    one chunk of packed words (~8 MiB), not the product.
    """
    n_left, n = left_codes.shape
    n_right, m = right_codes.shape
    if n_left == 0 or n_right == 0:
        return {}
    n_words = bitset.words_needed(max(1, n * m))
    lookup = _RightLookup.of(right_codes)
    rows_per_chunk = max(1, _CHUNK_WORDS // (n_right * n_words))

    chunk_words: list[np.ndarray] = []
    chunk_counts: list[np.ndarray] = []
    chunk_ordinals: list[np.ndarray] = []
    for chunk_start in range(0, n_left, rows_per_chunk):
        unique, counts, first = _chunk_histogram(
            _chunk_words(
                left_codes[chunk_start : chunk_start + rows_per_chunk],
                right_codes,
                lookup,
                n_words,
            )
        )
        chunk_words.append(unique)
        chunk_counts.append(counts)
        chunk_ordinals.append(chunk_start * n_right + first)

    words, counts, ordinals = _fold(
        np.concatenate(chunk_words),
        np.concatenate(chunk_counts),
        np.concatenate(chunk_ordinals),
    )
    return {
        bitset.unpack_row(row): (
            int(count),
            (left_rows[ordinal // n_right], right_rows[ordinal % n_right]),
        )
        for row, count, ordinal in zip(words, counts, ordinals.tolist())
    }


def index_from_signatures(
    instance: Instance,
    found: Mapping[int, tuple[int, TuplePair]],
) -> SignatureIndex:
    """An index from a ``{mask: (count, representative)}`` histogram.

    The shared canonicalisation tail of the pipeline — also the route
    :func:`~repro.core.sampling.sampled_signature_index` takes, so
    sampled and exact indexes cannot drift apart structurally.
    """
    return SignatureIndex.from_classes(instance, canonical_classes(found))


class IndexBuilder:
    """Builds :class:`SignatureIndex` objects through the kernel.

    The builder is stateless and safe to share — the service keeps one
    per :class:`~repro.service.index_cache.IndexCache`, and tests
    substitute slow or failing subclasses there.
    """

    __slots__ = ()

    def build(self, instance: Instance) -> SignatureIndex:
        """Build the full index of ``instance``."""
        return index_from_signatures(instance, self.histogram(instance))

    def histogram(
        self, instance: Instance
    ) -> dict[int, tuple[int, TuplePair]]:
        """The ``{mask: (count, representative)}`` histogram of
        ``instance``'s product, both sides encoded by one codec."""
        codec = ValueCodec()
        right_rows = instance.right.rows
        right_codes = codec.encode_rows(right_rows, instance.right.arity)
        left_rows = instance.left.rows
        left_codes = codec.encode_rows(left_rows, instance.left.arity)
        return signature_histogram(
            left_codes, right_codes, left_rows, right_rows
        )
