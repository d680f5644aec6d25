"""Property tests: the signature kernel is bit-for-bit identical to the
pure-Python reference.

The contract under test: for every chunk size,

    ``IndexBuilder().build`` ≡ ``SignatureIndex(backend="numpy")`` ≡
    pure-Python reference

— same class ids, masks, counts, representatives, maximal set, and total
weight.  The kernel walks ``R`` in chunks of at most ``_CHUNK_WORDS``
packed words and folds the chunk histograms; no default-sized test
instance spans two chunks, so :func:`kernel_builds` shrinks
``_CHUNK_WORDS`` to split every build into chunk counts {1, 2, 7, |R|}.
Covered explicitly: Ω widths straddling the 64-bit word boundary
(63/64/65), empty relations, single-row relations, ``None`` cells, and
rows equal across types.  :class:`TestChunkBoundsMemory` checks the
bound the chunks exist for.

The kernel sets each attribute pair's bit by one of two branches — a
broadcast compare for pairs agreeing on more than
``1/_SCATTER_MAX_SHARE`` of the chunk, a scatter onto the agreeing
positions otherwise — so the random draws span value ranges where
either dominates, and :class:`TestKernelBranches` pins instances that
take both branches within one build.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IndexBuilder, SignatureIndex, bitset, index_build
from repro.core.index_build import _SCATTER_MAX_SHARE, index_from_signatures
from repro.core.signatures import ValueCodec
from repro.relational import Instance, Relation

from ..conftest import make_random_instance


def assert_identical(built: SignatureIndex, reference: SignatureIndex):
    """Bit-for-bit equality of two indexes over the same data."""
    assert [
        (c.class_id, c.mask, c.count, c.representative) for c in built
    ] == [
        (c.class_id, c.mask, c.count, c.representative) for c in reference
    ]
    assert built.maximal_class_ids == reference.maximal_class_ids
    assert built.total_weight == reference.total_weight
    assert built.omega_mask == reference.omega_mask
    assert built.n_words == reference.n_words
    assert np.array_equal(built.packed_masks, reference.packed_masks)
    assert np.array_equal(built.count_array, reference.count_array)


def kernel_branches(instance: Instance) -> set:
    """The branches a one-chunk build of ``instance`` takes: a pair
    agreeing on more than ``1/_SCATTER_MAX_SHARE`` of the product
    compares, any other agreeing pair scatters."""
    size = len(instance.left) * len(instance.right)
    taken = set()
    for i in range(instance.left.arity):
        for j in range(instance.right.arity):
            agree = sum(
                left[i] == right[j]
                for left in instance.left.rows
                for right in instance.right.rows
            )
            if agree:
                taken.add(
                    "compare" if agree * _SCATTER_MAX_SHARE > size
                    else "scatter"
                )
    return taken


#: Column kinds of :func:`mixed_instance`: a unique key (half of it
#: shared with the other side), a constant, a two-valued status column
#: (one value shared), and a wide random column.
_KINDS = ("key", "constant", "status", "wide")


def cycled(arity: int) -> tuple:
    return tuple(_KINDS[k % len(_KINDS)] for k in range(arity))


def mixed_instance(
    rng: random.Random,
    left_kinds: tuple,
    right_kinds: tuple,
    rows: int,
) -> Instance:
    """An instance whose builds take both kernel branches: key and wide
    columns scatter, constant and status columns compare."""

    def cell(kind: str, row: int, side: int) -> object:
        if kind == "key":
            return row + side * (rows // 2)
        if kind == "constant":
            return "c"
        if kind == "status":
            return "t" if row % 2 == 0 else ("s", "u")[side]
        return rng.randrange(60)

    def relation(name: str, prefix: str, kinds: tuple, side: int):
        return Relation.build(
            name,
            [f"{prefix}{k}" for k in range(1, len(kinds) + 1)],
            [
                tuple(cell(kind, row, side) for kind in kinds)
                for row in range(rows)
            ],
        )

    return Instance(
        relation("R", "A", left_kinds, 0),
        relation("P", "B", right_kinds, 1),
    )


#: Chunk counts every kernel build is split into (plus one chunk per row
#: of ``R``).
CHUNK_COUNTS = (1, 2, 7)


def chunk_words(instance: Instance, count: int) -> int:
    """A ``_CHUNK_WORDS`` that splits ``instance``'s build into about
    ``count`` chunks of whole rows of ``R``."""
    n_words = bitset.words_needed(
        max(1, instance.left.arity * instance.right.arity)
    )
    rows_per_chunk = max(1, -(-len(instance.left) // count))
    return rows_per_chunk * len(instance.right) * n_words


def kernel_builds(instance: Instance) -> list:
    """Every kernel build of ``instance`` under test: the constructor's
    ``"numpy"`` backend, then the builder at each chunk count."""
    builds = [SignatureIndex(instance, backend="numpy")]
    for count in sorted({*CHUNK_COUNTS, max(1, len(instance.left))}):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                index_build, "_CHUNK_WORDS", chunk_words(instance, count)
            )
            builds.append(IndexBuilder().build(instance))
    return builds


class TestChunkedEqualsReference:
    """Builds split into chunks of rows of ``R`` equal the reference."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_all_chunk_counts(self, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        instance = make_random_instance(
            rng,
            left_arity=data.draw(st.integers(1, 3)),
            right_arity=data.draw(st.integers(1, 3)),
            rows=data.draw(st.integers(1, 60)),
            values=data.draw(st.integers(1, 60)),
        )
        reference = SignatureIndex(instance, backend="python")
        for built in kernel_builds(instance):
            assert_identical(built, reference)

    @pytest.mark.parametrize(
        "left_arity,right_arity",
        [(7, 9), (8, 8), (5, 13)],  # |Ω| = 63 / 64 / 65
    )
    def test_omega_straddles_word_boundary(self, left_arity, right_arity):
        rng = random.Random(left_arity * 100 + right_arity)
        instance = make_random_instance(
            rng, left_arity, right_arity, rows=9, values=3
        )
        assert len(instance.omega) in (63, 64, 65)
        reference = SignatureIndex(instance, backend="python")
        for built in kernel_builds(instance):
            assert_identical(built, reference)

    def test_empty_relations(self):
        for left_rows, right_rows in (
            ((), ((1,),)),
            (((1,),), ()),
            ((), ()),
        ):
            instance = Instance(
                Relation.build("R", ["A1"], left_rows),
                Relation.build("P", ["B1"], right_rows),
            )
            reference = SignatureIndex(instance, backend="python")
            for built in kernel_builds(instance):
                assert_identical(built, reference)
                assert len(built) == 0

    def test_single_row_relations(self):
        instance = Instance(
            Relation.build("R", ["A1", "A2"], [(1, 2)]),
            Relation.build("P", ["B1"], [(1,)]),
        )
        reference = SignatureIndex(instance, backend="python")
        for built in kernel_builds(instance):
            assert_identical(built, reference)


class TestPythonEquality:
    """Cells compare by Python equality, whatever their types."""

    def test_none_cells_match_python_none_semantics(self):
        """``None == None`` agrees, as in Python (SQL's NULL = NULL
        would not)."""
        instance = Instance(
            Relation.build("L", ["A1"], [(None,), (1,)]),
            Relation.build("Q", ["B1"], [(None,), (2,)]),
        )
        reference = SignatureIndex(instance, backend="python")
        assert {cls.mask: cls.count for cls in reference} == {0: 3, 1: 1}
        for built in kernel_builds(instance):
            assert_identical(built, reference)

    def test_duplicates_collapse_like_python(self):
        """Duplicate and cross-type-equal rows (1 vs 1.0) collapse under
        Python set semantics; "1" stays apart."""
        instance = Instance(
            Relation.build(
                "L",
                ["A1", "A2"],
                [(1, "x"), (1.0, "x"), (2, "y"), (1, "x"), ("1", "x")],
            ),
            Relation.build("Q", ["B1"], [(1,), ("x",), (2,), (1.0,)]),
        )
        assert len(instance.left) == 3  # (1,'x'), (2,'y'), ('1','x')
        reference = SignatureIndex(instance, backend="python")
        for built in kernel_builds(instance):
            assert_identical(built, reference)


class TestKernelBranches:
    """Fixed instances whose builds take the compare and the scatter
    branch within one build, each equal to the pure-Python reference."""

    #: Left and right column kinds: with a constant column on both
    #: sides no product position is empty; without one, many are.
    CASES = {
        "no_empty_positions": (
            ("key", "constant", "status"),
            ("key", "constant", "status"),
        ),
        "with_empty_positions": (
            ("key", "constant", "status"),
            ("key", "status", "wide"),
        ),
    }

    @pytest.mark.parametrize("rows", [40, 97])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_key_constant_and_status_columns(self, case, rows):
        left_kinds, right_kinds = self.CASES[case]
        instance = mixed_instance(
            random.Random(rows), left_kinds, right_kinds, rows
        )
        assert kernel_branches(instance) == {"compare", "scatter"}
        reference = SignatureIndex(instance, backend="python")
        for built in kernel_builds(instance):
            assert_identical(built, reference)

    def test_values_present_on_one_side_only(self):
        """Left-only values (coded past every right code), right-only
        values, and values equal across types (1, True, 1.0) but not
        "1"."""
        rng = random.Random(17)
        left = Relation.build(
            "R",
            ["A1", "A2", "A3"],
            [
                (
                    rng.randrange(0, 40),
                    "c",
                    rng.choice([1, True, 1.0, "1", 2]),
                )
                for _ in range(50)
            ],
        )
        right = Relation.build(
            "P",
            ["B1", "B2"],
            [
                (rng.randrange(30, 70), rng.choice(["c", "d", 1]))
                for _ in range(50)
            ],
        )
        instance = Instance(left, right)
        assert kernel_branches(instance) == {"compare", "scatter"}
        reference = SignatureIndex(instance, backend="python")
        for built in kernel_builds(instance):
            assert_identical(built, reference)

    @pytest.mark.parametrize(
        "left_arity,right_arity",
        [(7, 9), (8, 8), (5, 13)],  # |Ω| = 63 / 64 / 65
    )
    def test_omega_straddles_word_boundary(self, left_arity, right_arity):
        instance = mixed_instance(
            random.Random(left_arity),
            cycled(left_arity),
            cycled(right_arity),
            rows=24,
        )
        assert len(instance.omega) in (63, 64, 65)
        assert kernel_branches(instance) == {"compare", "scatter"}
        reference = SignatureIndex(instance, backend="python")
        for built in kernel_builds(instance):
            assert_identical(built, reference)

    def test_wide_distinct_right_side_keeps_memory_linear(self):
        """Twelve right columns of distinct values: the shared codec holds
        ``12·|P|`` codes, yet the build's peak stays within the codec's own
        footprint plus a few copies of the right side's codes — a lookup
        indexed by global code would cost ``12 × 12·|P|`` slots."""
        width, n_rows = 12, 2000
        right = Relation.build(
            "P",
            [f"B{j}" for j in range(width)],
            [
                tuple(row * width + j for j in range(width))
                for row in range(n_rows)
            ],
        )
        left = Relation.build("R", ["A1", "A2", "A3"], [(5, 7, -1)])
        instance = Instance(left, right)
        codes_bytes = n_rows * width * np.dtype(np.int64).itemsize
        tracemalloc.start()
        try:
            ValueCodec().encode_rows(right.rows, width)
            _, encode_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            built = IndexBuilder().build(instance)
            _, build_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert build_peak <= encode_peak + 6 * codes_bytes
        assert_identical(built, SignatureIndex(instance, backend="python"))


class TestChunkBoundsMemory:
    """The chunk loop is what bounds a build's memory: with
    ``_CHUNK_WORDS`` shrunk, the tracemalloc peak at ``|R|`` and at
    ``4·|R|`` stays within the encoded codes plus a few chunks of packed
    words.  Without the chunks it is the product's words, 68× and 260×
    a chunk here."""

    #: Packed words per chunk while the test runs (128 KiB).
    CHUNK_WORDS = 1 << 14
    #: The kernel's working set per chunk: the words, the compare
    #: branch's temporaries, and the histogram's keys and sort order.
    CHUNK_COPIES = 8
    #: The codec's table, the right side's lookup and the histogram:
    #: bounded by the distinct values and classes, not by ``|R|``.
    SLACK_BYTES = 256 << 10

    @pytest.mark.parametrize("left_rows", [1000, 4000])
    def test_peak_within_codes_plus_chunks(self, monkeypatch, left_rows):
        monkeypatch.setattr(index_build, "_CHUNK_WORDS", self.CHUNK_WORDS)
        rng = random.Random(left_rows)
        kinds = ("key", "constant", "status", "wide")

        def cell(kind: str, row: int) -> object:
            if kind == "key":
                return row % 500
            if kind == "constant":
                return "c"
            if kind == "status":
                return row % 2
            return rng.randrange(60)

        def relation(name: str, prefix: str, rows: int) -> Relation:
            return Relation.build(
                name,
                [f"{prefix}{k}" for k in range(1, len(kinds) + 1)],
                [tuple(cell(kind, row) for kind in kinds) for row in range(rows)],
            )

        instance = Instance(
            relation("R", "A", left_rows), relation("P", "B", 256)
        )
        codes_bytes = 8 * (
            len(instance.left) * instance.left.arity
            + len(instance.right) * instance.right.arity
        )
        chunks = -(-len(instance.left) * len(instance.right) // self.CHUNK_WORDS)
        assert chunks >= 15  # the build really runs many chunks
        IndexBuilder().build(instance)  # first-call allocations
        tracemalloc.start()
        try:
            built = IndexBuilder().build(instance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = (
            codes_bytes
            + self.CHUNK_COPIES * 8 * self.CHUNK_WORDS
            + self.SLACK_BYTES
        )
        assert peak <= bound, f"peak {peak} B over {bound} B"
        assert_identical(built, SignatureIndex(instance, backend="python"))


class TestBuilderApi:
    def test_sampled_index_routes_through_pipeline(self):
        """`index_from_signatures` canonicalises exactly like the
        constructor (ordering, ids, maximality)."""
        rng = random.Random(9)
        instance = make_random_instance(rng, 2, 2, rows=12, values=3)
        reference = SignatureIndex(instance, backend="python")
        found = {
            cls.mask: (cls.count, cls.representative) for cls in reference
        }
        assert_identical(
            index_from_signatures(instance, found), reference
        )

    def test_invalid_builder_parameters(self):
        """One loop, no knobs: the builder takes no arguments, and a
        build takes only the instance."""
        instance = Instance(
            Relation.build("R", ["A1"], [(1,)]),
            Relation.build("P", ["B1"], [(1,)]),
        )
        with pytest.raises(TypeError):
            IndexBuilder(1)
        with pytest.raises(TypeError):
            IndexBuilder().build(instance, None)
        with pytest.raises(TypeError):
            IndexBuilder().histogram(instance, None)
