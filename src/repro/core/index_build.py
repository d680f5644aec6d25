"""The signature-index construction pipeline: one join-driven kernel.

The :class:`~repro.core.signatures.SignatureIndex` is the quotient of
``D = R × P`` by ``T`` (§4) and the one artifact every strategy and every
service session depends on.  Besides the pure-Python reference, this
module holds the only kernel that computes it — the constructor's
``"numpy"`` backend and every service build run it — as a pipeline over
**shards**, contiguous ranges of rows of ``R``, each crossed with all
of ``P``:

1. a :class:`~repro.relational.source.SignatureSource` supplies the rows
   (in-memory instance, streamed CSV, or SQLite tables);
2. each shard runs the join-driven packed-bitset kernel
   (:func:`shard_signatures`: per attribute pair, a scatter onto the
   agreeing product positions, or a broadcast compare when they are
   common), yielding the shard's distinct signatures as packed uint64
   arrays — counts and minimal product ordinals, never Python dicts per
   chunk;
3. :func:`merge_shards` folds the shard histograms with one vectorised
   ``unique`` (counts sum, ordinals min, representative follows the
   minimal ordinal), and :func:`index_from_signatures` canonicalises
   into ``(|signature|, mask)`` order through
   :func:`~repro.core.signatures.canonical_classes`, the ordering rule
   the constructor and the sampled path share.

Because shards partition the product by ascending row ranges and the
merge resolves representatives by *global* minimal ordinal, the result
is bit-for-bit identical for every shard size and source (property-
tested against the pure-Python reference).  Shards run one after
another; what they bound is memory: a streaming source hands over one
block of ``R`` at a time, so the build's arrays never cover more than a
shard.  The service runs whole builds on a thread pool off its event
loop — see :mod:`repro.service.index_cache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Callable, Mapping, Sequence

import numpy as np

from ..relational.relation import Instance, Row
from ..relational.source import SignatureSource, as_signature_source
from . import bitset
from .signatures import SignatureIndex, ValueCodec, canonical_classes

__all__ = [
    "IndexBuilder",
    "ShardSignatures",
    "shard_signatures",
    "merge_shards",
    "signature_histogram",
    "index_from_signatures",
]

TuplePair = tuple[Row, Row]

#: Target packed uint64 words materialised per kernel chunk (~8 MiB), so
#: a shard never allocates more than a chunk of the product regardless
#: of its size.  Chunks cover whole rows of R: the bound is approximate.
_CHUNK_WORDS = 1 << 20

#: An attribute pair agreeing at more than ``1/_SCATTER_MAX_SHARE`` of a
#: chunk's product positions sets its bit by a broadcast compare over
#: the chunk; a rarer pair scatters its bit onto the agreeing positions
#: only.  Past this share the scatter's index arithmetic per match costs
#: more than one compare per position.
_SCATTER_MAX_SHARE = 8

ProgressCallback = Callable[[int, "int | None"], None]


@dataclass(slots=True)
class ShardSignatures:
    """The distinct signatures of one shard of ``R × P``.

    ``words[k]`` is a packed mask; ``counts[k]`` how many product tuples
    of the shard carry it; ``ordinals[k]`` the smallest global product
    ordinal (``left_index * |P| + right_index``) carrying it; and
    ``representatives[k]`` the tuple pair at that ordinal.
    """

    words: np.ndarray  # (k, n_words) uint64
    counts: np.ndarray  # (k,) int64
    ordinals: np.ndarray  # (k,) int64
    representatives: list

    @classmethod
    def empty(cls, n_words: int) -> "ShardSignatures":
        return cls(
            words=np.empty((0, n_words), dtype=np.uint64),
            counts=np.empty(0, dtype=np.int64),
            ordinals=np.empty(0, dtype=np.int64),
            representatives=[],
        )

    def __len__(self) -> int:
        return len(self.counts)


def _fold(
    words: np.ndarray, counts: np.ndarray, ordinals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Combine duplicate packed masks: counts sum, ordinals min.

    Returns ``(unique_words, counts, ordinals, winners)`` where
    ``winners[g]`` is the input position whose ordinal attained the
    minimum for group ``g`` — ordinals are distinct product positions,
    so exactly one input wins each group.
    """
    unique, _, inverse, _ = bitset.unique_rows(words)
    groups = len(unique)
    summed = np.zeros(groups, dtype=np.int64)
    np.add.at(summed, inverse, counts)
    minimal = np.full(groups, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(minimal, inverse, ordinals)
    winners = np.empty(groups, dtype=np.int64)
    winning = np.nonzero(ordinals == minimal[inverse])[0]
    winners[inverse[winning]] = winning
    return unique, summed, minimal, winners


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
    the shared codec holds.  Built once per build — the right side is
    fixed while left blocks stream past.
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


def shard_signatures(
    left_codes: np.ndarray,
    right_codes: np.ndarray,
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    start_row: int,
    lookup: _RightLookup | None = None,
) -> ShardSignatures:
    """Signatures of left rows ``start_row .. start_row+len(left_rows)``
    against all right rows, via the join-driven packed-bitset kernel.

    ``left_codes``/``right_codes`` must come from one shared
    :class:`~repro.core.signatures.ValueCodec` so code equality means
    value equality across the whole build.  ``lookup`` is the right
    side's code lookup, built once per build by :class:`IndexBuilder`
    (and here when omitted); like ``right_codes`` it is ``O(m·|P|)``.
    Beyond those, peak memory is one chunk of packed words (~8 MiB),
    not the shard's slice of the product.
    """
    shard_rows = left_codes.shape[0]
    n = left_codes.shape[1]
    n_right, m = right_codes.shape
    n_words = bitset.words_needed(max(1, n * m))
    if shard_rows == 0 or n_right == 0:
        return ShardSignatures.empty(n_words)
    if lookup is None:
        lookup = _RightLookup.of(right_codes)
    rows_per_chunk = max(1, _CHUNK_WORDS // (n_right * n_words))

    chunk_words: list[np.ndarray] = []
    chunk_counts: list[np.ndarray] = []
    chunk_ordinals: list[np.ndarray] = []
    for chunk_start in range(0, shard_rows, rows_per_chunk):
        chunk_stop = min(chunk_start + rows_per_chunk, shard_rows)
        unique, counts, first = _chunk_histogram(
            _chunk_words(
                left_codes[chunk_start:chunk_stop],
                right_codes,
                lookup,
                n_words,
            )
        )
        chunk_words.append(unique)
        chunk_counts.append(counts)
        chunk_ordinals.append(
            (start_row + chunk_start) * n_right
            + first.astype(np.int64, copy=False)
        )

    words = np.concatenate(chunk_words)
    counts = np.concatenate(chunk_counts)
    ordinals = np.concatenate(chunk_ordinals)
    words, counts, ordinals, _ = _fold(words, counts, ordinals)
    representatives = [
        (
            left_rows[int(ordinal) // n_right - start_row],
            right_rows[int(ordinal) % n_right],
        )
        for ordinal in ordinals
    ]
    return ShardSignatures(words, counts, ordinals, representatives)


def merge_shards(
    shards: Sequence[ShardSignatures], n_words: int
) -> ShardSignatures:
    """Fold shard histograms into one: counts sum per mask, and the
    representative follows the globally minimal product ordinal.

    Handles empty shard lists and empty shards (a shard of zero rows
    contributes nothing), so callers never special-case them.
    """
    shards = [shard for shard in shards if len(shard)]
    if not shards:
        return ShardSignatures.empty(n_words)
    if len(shards) == 1:
        return shards[0]
    words = np.concatenate([shard.words for shard in shards])
    counts = np.concatenate([shard.counts for shard in shards])
    ordinals = np.concatenate([shard.ordinals for shard in shards])
    representatives: list = []
    for shard in shards:
        representatives.extend(shard.representatives)
    words, counts, ordinals, winners = _fold(words, counts, ordinals)
    return ShardSignatures(
        words,
        counts,
        ordinals,
        [representatives[int(winner)] for winner in winners],
    )


def signature_histogram(
    merged: ShardSignatures,
) -> dict[int, tuple[int, TuplePair]]:
    """A merged shard fold as ``{mask: (count, representative)}`` — the
    input shape of :func:`index_from_signatures`, so the kernel and the
    sampled path share one canonicalisation."""
    return {
        bitset.unpack_row(row): (int(count), representative)
        for row, count, representative in zip(
            merged.words, merged.counts, merged.representatives
        )
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
    """Builds :class:`SignatureIndex` objects from pluggable sources.

    ``shard_rows`` bounds how many rows of ``R`` one shard covers
    (``None`` = a single shard).  It exists for streaming sources: a
    :class:`~repro.relational.source.CsvSource` reads ``R`` one shard at
    a time, so the build's arrays never cover more than a shard.

    The builder is stateless across builds and safe to share — the
    service keeps one per :class:`~repro.service.index_cache.IndexCache`.
    """

    __slots__ = ("shard_rows",)

    def __init__(self, shard_rows: int | None = None):
        if shard_rows is not None and shard_rows < 1:
            raise ValueError("shard_rows must be positive or None")
        self.shard_rows = shard_rows

    def build(
        self,
        source: SignatureSource | Instance,
        progress: ProgressCallback | None = None,
    ) -> SignatureIndex:
        """Build the full index for ``source``.

        ``progress(shards_done, shards_total)`` is invoked after every
        completed shard (``shards_total`` is ``None`` while a streaming
        source's length is unknown) — the service surfaces it on its
        build-status endpoint.
        """
        source = as_signature_source(source)
        found = self.histogram(source, progress)
        # After the histogram: a streaming source has drained its rows
        # by now, so the instance costs no second read.
        return index_from_signatures(source.instance(), found)

    def histogram(
        self,
        source: SignatureSource | Instance,
        progress: ProgressCallback | None = None,
    ) -> dict[int, tuple[int, TuplePair]]:
        """The ``{mask: (count, representative)}`` histogram of
        ``source``'s product, shard by shard through
        :func:`shard_signatures`."""
        source = as_signature_source(source)
        right_rows = source.right_rows()
        n = source.left_schema.arity
        m = source.right_schema.arity
        if not right_rows:
            return {}
        codec = ValueCodec()
        right_codes = codec.encode_rows(right_rows, m)
        lookup = _RightLookup.of(right_codes)
        left_count = source.left_count()
        if self.shard_rows is None:
            total = 1
        elif left_count is None:
            total = None
        else:
            total = max(1, ceil(left_count / self.shard_rows))

        shards: list[ShardSignatures] = []
        for start, rows in source.iter_left_blocks(self.shard_rows):
            shards.append(
                shard_signatures(
                    codec.encode_rows(rows, n),
                    right_codes,
                    rows,
                    right_rows,
                    start,
                    lookup,
                )
            )
            if progress is not None:
                progress(len(shards), total)
        n_words = bitset.words_needed(max(1, n * m))
        return signature_histogram(merge_shards(shards, n_words))
