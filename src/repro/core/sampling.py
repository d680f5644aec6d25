"""Approximate signature indexes by sampling the Cartesian product.

The paper's motivation includes instances "too big to be skimmed" (§1).
The exact :class:`~repro.core.signatures.SignatureIndex` touches every
pair of ``R × P`` once (vectorised), which is fine up to millions of
pairs but not beyond.  For larger products this module builds the index
from a uniform sample of row pairs.

Guarantees and caveats:

* every signature in the sampled index is a true signature of the full
  product (sampling never invents classes);
* class *counts* are scaled estimates (``|D| / n_pairs`` per hit);
* rare signatures may be missed entirely, in which case the inference is
  exact **for the sampled sub-instance** — the returned predicate is
  consistent with every label given, but may be distinguishable from the
  goal on unseen rare tuples.  ``coverage_probability`` quantifies the
  risk for a signature of a given frequency.
"""

from __future__ import annotations

import random

from ..relational.relation import Instance
from .index_build import index_from_signatures
from .signatures import SignatureIndex
from .specialize import signature_bits

__all__ = ["sampled_signature_index", "coverage_probability"]


def coverage_probability(
    frequency: float, n_pairs: int
) -> float:
    """Chance that a signature covering ``frequency`` of the product
    appears in a uniform sample of ``n_pairs`` pairs."""
    if not 0.0 <= frequency <= 1.0:
        raise ValueError("frequency must be within [0, 1]")
    if n_pairs < 0:
        raise ValueError("sample size must be non-negative")
    return 1.0 - (1.0 - frequency) ** n_pairs


def sampled_signature_index(
    instance: Instance,
    n_pairs: int,
    seed: int | None = None,
) -> SignatureIndex:
    """A :class:`SignatureIndex` estimated from ``n_pairs`` uniform pairs.

    Sampling is with replacement (cheap and unbiased); counts are scaled
    so that the index's ``total_weight`` approximates ``|D|``, keeping
    entropy magnitudes comparable to the exact index.
    """
    if n_pairs <= 0:
        raise ValueError("sample size must be positive")
    n_left = len(instance.left)
    n_right = len(instance.right)
    if n_left == 0 or n_right == 0:
        return SignatureIndex(instance, backend="python")
    if n_pairs >= instance.cartesian_size:
        return SignatureIndex(instance)
    rng = random.Random(seed)
    left_rows = instance.left.rows
    right_rows = instance.right.rows
    hits: dict[int, list] = {}
    for _ in range(n_pairs):
        pair = (
            left_rows[rng.randrange(n_left)],
            right_rows[rng.randrange(n_right)],
        )
        mask = signature_bits(instance, pair)
        entry = hits.get(mask)
        if entry is None:
            hits[mask] = [1, pair]
        else:
            entry[0] += 1

    # Route the estimate through the build pipeline's canonicalisation
    # (:func:`~repro.core.index_build.index_from_signatures`) so sampled
    # indexes take the same invariant-enforcing tail — ordering, packed
    # arrays, maximality — as every exact build.
    scale = instance.cartesian_size / n_pairs
    found = {
        mask: (max(1, round(raw_count * scale)), representative)
        for mask, (raw_count, representative) in hits.items()
    }
    return index_from_signatures(instance, found)
