"""The signature index — quotient of the Cartesian product by ``T``.

Two tuples with the same most-specific predicate ``T(t)`` are
interchangeable for the entire inference process: they are selected by
exactly the same predicates, so they have identical informativeness and
identical effect when labeled.  (This is also the observation behind the
paper's *join ratio*, which is defined over the distinct values of ``T``.)

The :class:`SignatureIndex` groups ``D = R × P`` into equivalence classes,
each carrying:

* ``mask`` — ``T(t)`` encoded as a bitmask over Ω (canonical order),
* ``count`` — how many Cartesian tuples share the signature,
* ``representative`` — the first such tuple in canonical order.

Every strategy then reasons over the (usually tiny) set of classes instead
of the (possibly huge) product.  Two construction back ends are provided:
a pure-Python reference, and the join-driven packed-bitset kernel of
:mod:`repro.core.index_build` — the one the service's builds run — which
sets each attribute pair's bit only where the two columns agree, a
chunk of packed 64-bit signature words at a time (so any Ω width is
supported and peak memory stays bounded by the chunk, not by
``|R|·|P|``).  They produce identical indexes (property-tested).

Beyond the classes themselves the index precomputes the array-native views
the hot path needs: the ``(|N|, n_words)`` packed mask matrix, the class
count vector, the cached total weight ``|D|``, and the ⊆-maximal class set
(found with a sort-by-popcount pruned scan instead of the quadratic
all-pairs test).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Mapping, Sequence

import numpy as np

from ..relational.predicate import JoinPredicate
from ..relational.relation import Instance, Row
from . import bitset
from .specialize import pairs_from_bits, signature_bits

__all__ = ["SignatureClass", "SignatureIndex", "ValueCodec"]

TuplePair = tuple[Row, Row]


@dataclass(frozen=True, slots=True)
class SignatureClass:
    """One equivalence class of the Cartesian product under ``T``."""

    class_id: int
    mask: int
    count: int
    representative: TuplePair

    @property
    def size(self) -> int:
        """``|T(t)|`` — the number of attribute pairs in the signature."""
        return self.mask.bit_count()


def _signatures_python(instance: Instance) -> dict[int, tuple[int, TuplePair]]:
    """Reference construction: iterate the full product in Python."""
    found: dict[int, tuple[int, TuplePair]] = {}
    for pair in instance.cartesian_product():
        mask = signature_bits(instance, pair)
        if mask in found:
            count, representative = found[mask]
            found[mask] = (count + 1, representative)
        else:
            found[mask] = (1, pair)
    return found


class ValueCodec:
    """Assigns dense integer codes to attribute values.

    Equality of codes must coincide with Python equality of values, so
    one codec (one global code table) must cover both relations of a
    build — the sharded pipeline in :mod:`repro.core.index_build` keeps
    a single codec alive across all streamed blocks for exactly this
    reason.
    """

    __slots__ = ("_codes",)

    def __init__(self) -> None:
        self._codes: dict[object, int] = {}

    def encode_rows(self, rows: Sequence[Row], arity: int) -> np.ndarray:
        """Encode ``rows`` as an ``(len(rows), arity)`` int64 matrix.

        Unseen values get fresh codes in row-major first-occurrence
        order.  Both passes over the cells run at C level: one
        ``dict.fromkeys`` collects the distinct values, one ``map`` of
        dict lookups reads the codes off.
        """
        codes = self._codes
        cells = itertools.chain.from_iterable
        distinct = dict.fromkeys(cells(rows))
        fresh = list(itertools.filterfalse(codes.__contains__, distinct))
        codes.update(zip(fresh, itertools.count(len(codes))))
        return np.fromiter(
            map(codes.__getitem__, cells(rows)),
            dtype=np.int64,
            count=len(rows) * arity,
        ).reshape(len(rows), arity)


def canonical_classes(
    found: Mapping[int, tuple[int, TuplePair]],
) -> tuple[SignatureClass, ...]:
    """The classes of a ``{mask: (count, representative)}`` histogram in
    canonical ``(|signature|, mask)`` order, with consecutive ids."""
    ordered = sorted(
        found.items(), key=lambda item: (item[0].bit_count(), item[0])
    )
    return tuple(
        SignatureClass(class_id, mask, count, representative)
        for class_id, (mask, (count, representative)) in enumerate(ordered)
    )


class SignatureIndex:
    """All distinct ``T`` signatures of an instance, with counts.

    Classes are ordered canonically by ``(|signature|, mask)`` so that
    strategy tie-breaking is deterministic.
    """

    __slots__ = (
        "_instance",
        "_classes",
        "_by_mask",
        "_omega_mask",
        "_maximal_ids",
        "_n_words",
        "_packed_masks",
        "_count_array",
        "_total_weight",
    )

    def __init__(
        self,
        instance: Instance,
        backend: Literal["auto", "numpy", "python"] = "auto",
    ):
        if backend == "auto":
            # The kernel wins past a few hundred product tuples; below
            # that its fixed encoding cost dominates.
            backend = "numpy" if instance.cartesian_size >= 512 else "python"
        if backend == "python":
            found = _signatures_python(instance)
        elif backend == "numpy":
            # Deferred: index_build builds on this module's classes.
            from .index_build import IndexBuilder

            found = IndexBuilder().histogram(instance)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self._install(instance, canonical_classes(found))

    @classmethod
    def from_classes(
        cls, instance: Instance, classes: Sequence[SignatureClass]
    ) -> "SignatureIndex":
        """An index over pre-built classes (approximate/sampled indexes).

        ``classes`` must already be in canonical ``(size, mask)`` order
        with consecutive ids — the invariants the constructor enforces.
        """
        index = cls.__new__(cls)
        index._install(instance, tuple(classes))
        return index

    @classmethod
    def from_arrays(
        cls,
        instance: Instance,
        classes: tuple[SignatureClass, ...],
        packed_masks: np.ndarray,
        count_array: np.ndarray,
        maximal_ids: Iterable[int],
        total_weight: int | None = None,
    ) -> "SignatureIndex":
        """An index over precomputed arrays, installed without copying.

        This is the zero-copy attach path of :mod:`repro.core.index_shm`:
        ``packed_masks`` / ``count_array`` may be read-only views over a
        shared-memory mapping, and the ⊆-maximal set is supplied rather
        than recomputed so the result is bit-for-bit the published index.
        The arrays must agree with ``classes`` (canonical order, same
        counts) — callers are expected to hold a serialized form that
        already went through the constructor once.
        """
        n_words = bitset.words_needed(len(instance.omega))
        if packed_masks.shape != (len(classes), n_words):
            raise ValueError(
                f"packed_masks shape {packed_masks.shape} does not match "
                f"({len(classes)}, {n_words})"
            )
        if count_array.shape != (len(classes),):
            raise ValueError(
                f"count_array shape {count_array.shape} does not match "
                f"({len(classes)},)"
            )
        index = cls.__new__(cls)
        index._instance = instance
        index._classes = classes
        index._by_mask = {c.mask: c.class_id for c in classes}
        index._omega_mask = (1 << len(instance.omega)) - 1
        index._n_words = n_words
        index._packed_masks = packed_masks
        index._count_array = count_array
        index._total_weight = (
            int(count_array.sum()) if total_weight is None else int(total_weight)
        )
        index._maximal_ids = frozenset(maximal_ids)
        return index

    def _install(
        self, instance: Instance, classes: tuple[SignatureClass, ...]
    ) -> None:
        """Set every derived structure from the final class tuple."""
        self._instance = instance
        self._classes = classes
        self._by_mask = {cls.mask: cls.class_id for cls in classes}
        self._omega_mask = (1 << len(instance.omega)) - 1
        self._n_words = bitset.words_needed(len(instance.omega))
        self._packed_masks = bitset.pack_masks(
            (cls.mask for cls in classes), self._n_words
        )
        self._count_array = np.array(
            [cls.count for cls in classes], dtype=np.int64
        )
        self._total_weight = int(self._count_array.sum())
        self._maximal_ids = self._compute_maximal_ids()

    def _compute_maximal_ids(self) -> frozenset[int]:
        """Classes whose signature has no strict superset among signatures.

        These are the ⊆-maximal nodes used by the top-down strategy.
        Scanning popcount groups largest-first prunes the quadratic
        all-pairs test: a strict superset always has a strictly larger
        popcount, and containment in *any* already-seen signature implies
        containment in an accepted maximal one, so each group only needs
        testing against the accepted maximal set.
        """
        if not self._classes:
            return frozenset()
        sizes = bitset.popcounts(self._packed_masks)
        maximal_ids: list[int] = []
        maximal_rows = np.empty((0, self._n_words), dtype=np.uint64)
        for size in np.unique(sizes)[::-1]:
            group_ids = np.nonzero(sizes == size)[0]
            group = self._packed_masks[group_ids]
            keep = ~bitset.subset_of_any(group, maximal_rows)
            survivors = group_ids[keep]
            maximal_ids.extend(int(class_id) for class_id in survivors)
            maximal_rows = np.concatenate([maximal_rows, group[keep]])
        return frozenset(maximal_ids)

    # --- basic accessors -------------------------------------------------

    @property
    def instance(self) -> Instance:
        """The indexed instance."""
        return self._instance

    @property
    def classes(self) -> tuple[SignatureClass, ...]:
        """All classes in canonical order."""
        return self._classes

    @property
    def omega_mask(self) -> int:
        """Bitmask with every position of Ω set (encodes Ω itself)."""
        return self._omega_mask

    @property
    def n_words(self) -> int:
        """Packed words per mask (``⌈|Ω| / 64⌉``, at least 1)."""
        return self._n_words

    @property
    def packed_masks(self) -> np.ndarray:
        """``(|N|, n_words)`` uint64 matrix of all class masks.

        Shared, not copied — treat as read-only.
        """
        return self._packed_masks

    @property
    def count_array(self) -> np.ndarray:
        """``(|N|,)`` int64 vector of class counts (read-only view)."""
        return self._count_array

    @property
    def maximal_class_ids(self) -> frozenset[int]:
        """Ids of the ⊆-maximal signature classes (top-down entry points)."""
        return self._maximal_ids

    @property
    def total_weight(self) -> int:
        """``|D|`` — the sum of class counts (cached at construction)."""
        return self._total_weight

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed array state (mask matrix + counts).

        For a shared-memory attached index these bytes live in the
        mapped segment, not in this process's private heap.
        """
        return int(self._packed_masks.nbytes + self._count_array.nbytes)

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self) -> Iterator[SignatureClass]:
        return iter(self._classes)

    def __getitem__(self, class_id: int) -> SignatureClass:
        return self._classes[class_id]

    def class_of_mask(self, mask: int) -> SignatureClass | None:
        """The class with the given signature mask, if present."""
        class_id = self._by_mask.get(mask)
        return None if class_id is None else self._classes[class_id]

    def class_of_tuple(self, tuple_pair: TuplePair) -> SignatureClass:
        """The class containing a concrete Cartesian tuple."""
        mask = signature_bits(self._instance, tuple_pair)
        class_id = self._by_mask.get(mask)
        if class_id is None:
            raise KeyError(
                f"tuple {tuple_pair!r} does not belong to the indexed product"
            )
        return self._classes[class_id]

    def predicate_of(self, class_id: int) -> JoinPredicate:
        """Decode the signature of ``class_id`` into a JoinPredicate."""
        return pairs_from_bits(self._instance, self._classes[class_id].mask)

    # --- paper-level statistics ------------------------------------------

    def join_ratio(self) -> float:
        """§5.3's *join ratio*: mean signature size over distinct signatures.

        An instance with no tuples has, by convention, ratio 0.
        """
        if not self._classes:
            return 0.0
        return sum(cls.size for cls in self._classes) / len(self._classes)
