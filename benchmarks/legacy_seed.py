"""Frozen seed implementations, kept verbatim for benchmark baselines.

``bench_core.py`` measures the array-native engine against the code this
repository *started* with, so speedups in ``BENCH_core.json`` track the
same baseline from PR to PR.  Three seed pieces are preserved:

* :func:`legacy_build_index` — the dense one-shot ``(words, |R|, |P|)``
  uint64 signature tensor (63-bit words) uniquified with a single
  ``np.unique(axis=0)`` over the whole product, followed by the seed's
  O(|N|²) maximal-class scan;
* :class:`LegacyInferenceState` — the pure-Python int-mask state that
  rebuilds its informative list from scratch after every label;
* :func:`legacy_entropies_for_informative` — the seed lookahead with a
  Python loop over informative classes (single-word Ω only).

None of this is exported by the package; it exists only so the benchmark
is an honest before/after comparison rather than a guess.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.entropy import INFINITE_ENTROPY, Entropy, best_skyline_entropy
from repro.core.sample import Label
from repro.core.signatures import SignatureClass, SignatureIndex, ValueCodec
from repro.core.strategies.base import StatelessStrategy
from repro.relational.relation import Instance

_WORD_BITS = 63  # the seed packed Ω into 63-bit words


# --- seed SignatureIndex construction ----------------------------------------


def legacy_signatures_numpy(instance: Instance) -> dict:
    """Seed construction: one |R|x|P| equality matrix per pair of Ω,
    packed into 63-bit words, then grouped with ``np.unique``."""
    n_left = len(instance.left)
    n_right = len(instance.right)
    if n_left == 0 or n_right == 0:
        return {}
    codec = ValueCodec()  # one code table for both relations
    n = instance.left.arity
    m = instance.right.arity
    left = codec.encode_rows(instance.left.rows, n)
    right = codec.encode_rows(instance.right.rows, m)
    n_words = (n * m + _WORD_BITS - 1) // _WORD_BITS
    words = np.zeros((n_words, n_left, n_right), dtype=np.uint64)
    for i in range(n):
        column_left = left[:, i : i + 1]  # (|R|, 1)
        for j in range(m):
            position = i * m + j
            word_index, bit = divmod(position, _WORD_BITS)
            equal = column_left == right[None, :, j]  # (|R|, |P|)
            words[word_index] |= equal.astype(np.uint64) << np.uint64(bit)
    flat = words.reshape(n_words, n_left * n_right).T  # (|D|, n_words)
    unique_rows, first_index, counts = np.unique(
        flat, axis=0, return_index=True, return_counts=True
    )
    found = {}
    left_rows = instance.left.rows
    right_rows = instance.right.rows
    for row_words, first, count in zip(unique_rows, first_index, counts):
        mask = 0
        for word_index, word in enumerate(row_words):
            mask |= int(word) << (_WORD_BITS * word_index)
        r_index, p_index = divmod(int(first), n_right)
        found[mask] = (int(count), (left_rows[r_index], right_rows[p_index]))
    return found


def _legacy_maximal_ids(classes) -> frozenset:
    """Seed maximal computation: the quadratic all-pairs subset scan."""
    masks = [cls.mask for cls in classes]
    maximal = []
    for cls in classes:
        has_superset = any(
            other != cls.mask and cls.mask & ~other == 0 for other in masks
        )
        if not has_superset:
            maximal.append(cls.class_id)
    return frozenset(maximal)


def legacy_build_index(instance: Instance):
    """The seed constructor end to end: dense tensor, unique, quadratic
    maximal scan.  Returns ``(classes, maximal_ids)`` so nothing is
    optimised away."""
    found = legacy_signatures_numpy(instance)
    ordered = sorted(
        found.items(), key=lambda item: (item[0].bit_count(), item[0])
    )
    classes = tuple(
        SignatureClass(class_id, mask, count, representative)
        for class_id, (mask, (count, representative)) in enumerate(ordered)
    )
    return classes, _legacy_maximal_ids(classes)


# --- seed InferenceState ------------------------------------------------------


class LegacyInferenceState:
    """The seed state: int masks, full informative rescan per label.

    Implements the subset of the ``InferenceState`` API the session and
    the lookahead strategies touch.
    """

    __slots__ = (
        "_index",
        "_t_plus",
        "_negative_masks",
        "_labels",
        "_informative_cache",
    )

    def __init__(self, index: SignatureIndex):
        self._index = index
        self._t_plus = index.omega_mask
        self._negative_masks: list[int] = []
        self._labels: dict[int, Label] = {}
        self._informative_cache: list[int] | None = None

    @property
    def index(self) -> SignatureIndex:
        return self._index

    @property
    def t_plus_mask(self) -> int:
        return self._t_plus

    @property
    def negative_masks(self) -> tuple[int, ...]:
        return tuple(self._negative_masks)

    @property
    def interaction_count(self) -> int:
        return len(self._labels)

    def record(self, class_id: int, label: Label) -> None:
        existing = self._labels.get(class_id)
        if existing is not None and existing is not label:
            raise ValueError(f"class {class_id} already labeled {existing}")
        self._labels[class_id] = label
        mask = self._index[class_id].mask
        if label is Label.POSITIVE:
            self._t_plus &= mask
        else:
            self._negative_masks.append(mask)
        self._informative_cache = None

    def is_certain_positive(self, class_id: int) -> bool:
        mask = self._index[class_id].mask
        return self._t_plus & ~mask == 0

    def is_certain_negative(self, class_id: int) -> bool:
        needle = self._t_plus & self._index[class_id].mask
        return any(needle & ~neg == 0 for neg in self._negative_masks)

    def is_certain(self, class_id: int) -> bool:
        return self.is_certain_positive(class_id) or self.is_certain_negative(
            class_id
        )

    def is_consistent_with(self, class_id: int, label: Label) -> bool:
        if label is Label.POSITIVE:
            return not self.is_certain_negative(class_id)
        return not self.is_certain_positive(class_id)

    def informative_class_ids(self) -> list[int]:
        if self._informative_cache is None:
            self._informative_cache = [
                cls.class_id
                for cls in self._index
                if cls.class_id not in self._labels
                and not self.is_certain(cls.class_id)
            ]
        return list(self._informative_cache)

    def has_informative(self) -> bool:
        return bool(self.informative_class_ids())

    def result_mask(self) -> int:
        return self._t_plus


# --- seed lookahead -----------------------------------------------------------


def _setup(state, informative):
    index = state.index
    masks = np.array(
        [index[class_id].mask for class_id in informative], dtype=np.uint64
    )
    counts = np.array(
        [index[class_id].count for class_id in informative], dtype=np.int64
    )
    t_plus = np.uint64(state.t_plus_mask)
    negatives = [np.uint64(mask) for mask in state.negative_masks]
    return masks, counts, t_plus, negatives


def _certain_vector(masks, t_plus, negatives):
    certain = (t_plus & ~masks) == 0
    needles = t_plus & masks
    for negative in negatives:
        certain |= (needles & ~negative) == 0
    return certain


def _entropy1_per_class(state, informative) -> dict[int, Entropy]:
    masks, counts, t_plus, negatives = _setup(state, informative)
    out: dict[int, Entropy] = {}
    for position, class_id in enumerate(informative):
        mask = masks[position]
        t2 = t_plus & mask
        u_pos = int(counts[_certain_vector(masks, t2, negatives)].sum()) - 1
        u_neg = (
            int(
                counts[
                    _certain_vector(masks, t_plus, negatives + [mask])
                ].sum()
            )
            - 1
        )
        out[class_id] = (min(u_pos, u_neg), max(u_pos, u_neg))
    return out


def _entropy2_per_class(state, informative) -> dict[int, Entropy]:
    masks, counts, t_plus, negatives = _setup(state, informative)
    out: dict[int, Entropy] = {}
    for position, class_id in enumerate(informative):
        per_label: list[Entropy] = []
        for is_positive in (True, False):
            mask = masks[position]
            if is_positive:
                t2, negatives1 = t_plus & mask, negatives
            else:
                t2, negatives1 = t_plus, negatives + [mask]
            certain1 = _certain_vector(masks, t2, negatives1)
            still_informative = ~certain1
            if not still_informative.any():
                per_label.append(INFINITE_ENTROPY)
                continue
            inner_masks = masks[still_informative]
            t3 = (t2 & inner_masks)[:, None]  # (|inf1|, 1)
            certain_pos = (t3 & ~masks[None, :]) == 0
            needles = t3 & masks[None, :]
            for negative in negatives1:
                certain_pos |= (needles & ~negative) == 0
            u_pos = certain_pos @ counts - 2  # (|inf1|,)
            base_certain_pos = (t2 & ~masks) == 0
            base_needles = t2 & masks
            certain_neg = np.broadcast_to(
                base_certain_pos, (len(inner_masks), len(masks))
            ).copy()
            for negative in negatives1:
                certain_neg |= (base_needles & ~negative) == 0
            certain_neg |= (
                base_needles[None, :] & ~inner_masks[:, None]
            ) == 0
            u_neg = certain_neg @ counts - 2
            lows = np.minimum(u_pos, u_neg)
            highs = np.maximum(u_pos, u_neg)
            best_low = int(lows.max())
            best_high = int(highs[lows == best_low].max())
            per_label.append((best_low, best_high))
        out[class_id] = min(per_label)
    return out


def legacy_entropies_for_informative(state, depth: int) -> dict[int, Entropy]:
    """The seed fast path: per-class Python loop, Ω ≤ 63 bits only."""
    if len(state.index.instance.omega) > _WORD_BITS:
        raise ValueError("seed lookahead only supported Ω ≤ 63 bits")
    informative = state.informative_class_ids()
    if not informative:
        return {}
    if depth == 1:
        return _entropy1_per_class(state, informative)
    if depth == 2:
        return _entropy2_per_class(state, informative)
    raise ValueError("seed fast path only covered depths 1 and 2")


class LegacyLookaheadStrategy(StatelessStrategy):
    """LkS over the seed per-class kernels (same choices, seed speed)."""

    def __init__(self, depth: int):
        self.depth = depth
        self.name = f"legacy-L{depth}S"

    def choose(self, state, rng: random.Random) -> int:
        informative = self._informative_or_raise(state)
        entropies = legacy_entropies_for_informative(state, self.depth)
        best = best_skyline_entropy(entropies.values())
        for class_id in informative:
            if entropies[class_id] == best:
                return class_id
        raise AssertionError("best entropy must belong to some class")
