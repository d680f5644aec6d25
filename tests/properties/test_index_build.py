"""Property tests: the signature kernel is bit-for-bit identical to the
pure-Python reference.

The contract under test: for every shard size and source backend,

    sharded build ≡ ``SignatureIndex(backend="numpy")`` ≡ pure-Python
    reference

— same class ids, masks, counts, representatives, maximal set, and total
weight.  The constructor's ``"numpy"`` backend runs the same kernel as
:class:`IndexBuilder` in one shard.  Covered explicitly: shard counts
{1, 2, 7, |R|}, Ω widths straddling the 64-bit word boundary
(63/64/65), empty shards, empty relations, and single-row relations.

The shard kernel sets each attribute pair's bit by one of two branches —
a broadcast compare for pairs agreeing on more than
``1/_SCATTER_MAX_SHARE`` of the product, a scatter onto the agreeing
positions otherwise — so the random draws span value ranges where
either dominates, and :class:`TestKernelBranches` pins instances that
take both branches within one build.  The benchmark's own check builds
its reference with this same kernel; these tests are what compare it
against the pure-Python reference.
"""

from __future__ import annotations

import csv
import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IndexBuilder, SignatureIndex
from repro.core.index_build import (
    _SCATTER_MAX_SHARE,
    ShardSignatures,
    index_from_signatures,
    merge_shards,
    shard_signatures,
    signature_histogram,
)
from repro.core.signatures import ValueCodec
from repro.relational import (
    CsvSource,
    Instance,
    InstanceSource,
    Relation,
    SqliteSource,
    as_signature_source,
)
from repro.relational import sqlite_backend

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


def to_csv(relation: Relation) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([a.name for a in relation.schema])
    writer.writerows(relation.rows)
    return buffer.getvalue()


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


def shard_row_choices(n_rows: int) -> list:
    """Shard sizes realising shard counts {1, 2, 7, |R|} (plus auto)."""
    counts = {1, 2, 7, max(1, n_rows)}
    sizes: list = [None]
    for count in sorted(counts):
        sizes.append(max(1, -(-n_rows // count)) if n_rows else 1)
    return sorted({s for s in sizes if s is not None}) + [None]


def kernel_builds(instance: Instance, shard_sizes) -> list:
    """Every kernel build of ``instance`` under test: the constructor's
    ``"numpy"`` backend, then the builder at each of ``shard_sizes``."""
    return [SignatureIndex(instance, backend="numpy")] + [
        IndexBuilder(shard_rows=shard_rows).build(instance)
        for shard_rows in shard_sizes
    ]


class TestShardedEqualsMonolithic:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_all_shard_counts_and_workers(self, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        instance = make_random_instance(
            rng,
            left_arity=data.draw(st.integers(1, 3)),
            right_arity=data.draw(st.integers(1, 3)),
            rows=data.draw(st.integers(1, 60)),
            values=data.draw(st.integers(1, 60)),
        )
        reference = SignatureIndex(instance, backend="python")
        for built in kernel_builds(
            instance, shard_row_choices(len(instance.left))
        ):
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
        for shard_rows in (None, 1, 4):
            built = IndexBuilder(shard_rows=shard_rows).build(instance)
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
            for shard_rows in (None, 1, 3):
                built = IndexBuilder(shard_rows=shard_rows).build(instance)
                assert_identical(built, reference)
                assert len(built) == 0

    def test_single_row_relations(self):
        instance = Instance(
            Relation.build("R", ["A1", "A2"], [(1, 2)]),
            Relation.build("P", ["B1"], [(1,)]),
        )
        reference = SignatureIndex(instance, backend="python")
        for shard_rows in (None, 1, 5):
            assert_identical(
                IndexBuilder(shard_rows=shard_rows).build(instance),
                reference,
            )


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
        for built in kernel_builds(
            instance, shard_row_choices(len(instance.left))
        ):
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
        for built in kernel_builds(instance, (None, 1, 9)):
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
        for built in kernel_builds(instance, (None, 1, 5)):
            assert_identical(built, reference)

    def test_streaming_csv_source(self):
        instance = mixed_instance(
            random.Random(5),
            ("key", "constant", "status"),
            ("key", "status", "wide"),
            rows=60,
        )
        # CSV carries no types: the reference is the all-string data.
        left, right = (
            Relation.build(
                relation.name,
                [a.name for a in relation.schema],
                [tuple(map(str, row)) for row in relation.rows],
            )
            for relation in (instance.left, instance.right)
        )
        strings = Instance(left, right)
        assert kernel_branches(strings) == {"compare", "scatter"}
        reference = SignatureIndex(strings, backend="python")
        assert_identical(SignatureIndex(strings, backend="numpy"), reference)
        for shard_rows in (None, 7, 60):
            source = CsvSource.from_text(
                to_csv(left), to_csv(right), "R", "P"
            )
            built = IndexBuilder(shard_rows=shard_rows).build(source)
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


class TestMergeInvariants:
    def test_merge_of_empty_shard_list(self):
        merged = merge_shards([], n_words=2)
        assert len(merged) == 0
        assert signature_histogram(merged) == {}

    def test_explicit_empty_shards_are_transparent(self):
        """Interleaving genuinely empty shards never changes the result."""
        rng = random.Random(11)
        instance = make_random_instance(rng, 2, 2, rows=10, values=3)
        source = as_signature_source(instance)
        codec = ValueCodec()
        right_rows = source.right_rows()
        right_codes = codec.encode_rows(right_rows, instance.right.arity)
        shards = [ShardSignatures.empty(1)]
        for start, rows in source.iter_left_blocks(3):
            shards.append(
                shard_signatures(
                    codec.encode_rows(rows, instance.left.arity),
                    right_codes,
                    rows,
                    right_rows,
                    start,
                )
            )
            shards.append(ShardSignatures.empty(1))
        merged = merge_shards(shards, n_words=1)
        built = index_from_signatures(
            instance, signature_histogram(merged)
        )
        assert_identical(built, SignatureIndex(instance, backend="python"))

    def test_merge_is_shard_order_independent_except_representatives(self):
        """Counts/masks never depend on shard order; representatives are
        pinned by the *global* minimal ordinal, so even a shuffled merge
        returns the canonical representative."""
        rng = random.Random(23)
        instance = make_random_instance(rng, 2, 3, rows=14, values=2)
        source = as_signature_source(instance)
        codec = ValueCodec()
        right_rows = source.right_rows()
        right_codes = codec.encode_rows(right_rows, instance.right.arity)
        shards = [
            shard_signatures(
                codec.encode_rows(rows, instance.left.arity),
                right_codes,
                rows,
                right_rows,
                start,
            )
            for start, rows in source.iter_left_blocks(4)
        ]
        rng.shuffle(shards)
        merged = merge_shards(shards, n_words=1)
        built = index_from_signatures(
            instance, signature_histogram(merged)
        )
        assert_identical(built, SignatureIndex(instance, backend="python"))


class TestSourceBackendsAgree:
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_csv_stream_equals_monolithic(self, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        rows = data.draw(st.integers(0, 60))
        values = data.draw(st.integers(1, 60))
        left = Relation.build(
            "R",
            ["A1", "A2"],
            [
                (str(rng.randrange(values)), str(rng.randrange(3)))
                for _ in range(rows)
            ],
        )
        right = Relation.build(
            "P",
            ["B1", "B2", "B3"],
            [
                tuple(str(rng.randrange(values)) for _ in range(3))
                for _ in range(max(1, rows // 2))
            ],
        )
        instance = Instance(left, right)
        source = CsvSource.from_text(
            to_csv(left), to_csv(right), "R", "P"
        )
        built = IndexBuilder(
            shard_rows=data.draw(st.integers(1, 10))
        ).build(source)
        assert_identical(built, SignatureIndex(instance, backend="python"))

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_sqlite_pushdown_equals_monolithic(self, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        rows = data.draw(st.integers(0, 20))
        values: list = [0, 1, 2, "x", "y", "0"]
        left = Relation.build(
            "R",
            ["A1", "A2"],
            [
                (rng.choice(values), rng.choice(values))
                for _ in range(rows)
            ],
        )
        right = Relation.build(
            "P",
            ["B1", "B2"],
            [
                (rng.choice(values), rng.choice(values))
                for _ in range(max(1, rows // 2))
            ],
        )
        conn = sqlite_backend.connect_memory()
        sqlite_backend.store_instance(conn, Instance(left, right))
        source = SqliteSource(conn, "R", "P")
        loaded = source.instance()
        reference = SignatureIndex(loaded, backend="python")
        shard_rows = data.draw(st.integers(1, 8))
        assert_identical(
            IndexBuilder(shard_rows=shard_rows).build(source), reference
        )

    def test_sqlite_pushdown_wide_omega(self):
        """Ω = 72 from SQLite tables: masks span two packed words."""
        rng = random.Random(7)
        instance = make_random_instance(
            rng, left_arity=8, right_arity=9, rows=5, values=2
        )
        assert len(instance.omega) == 72
        conn = sqlite_backend.connect_memory()
        sqlite_backend.store_instance(conn, instance)
        source = SqliteSource(conn, "R", "P")
        assert_identical(
            IndexBuilder(shard_rows=2).build(source),
            SignatureIndex(source.instance(), backend="python"),
        )

    def test_sqlite_nulls_match_python_none_semantics(self):
        """Pre-existing tables may carry NULLs (store_relation refuses
        to write them): they load as None, and None == None agrees,
        unlike SQL's NULL = NULL."""
        conn = sqlite_backend.connect_memory()
        conn.execute('CREATE TABLE "L" ("A1")')
        conn.executemany('INSERT INTO "L" VALUES (?)', [(None,), (1,)])
        conn.execute('CREATE TABLE "Q" ("B1")')
        conn.executemany('INSERT INTO "Q" VALUES (?)', [(None,), (2,)])
        conn.commit()
        source = SqliteSource(conn, "L", "Q")
        reference = SignatureIndex(source.instance(), backend="python")
        assert {cls.mask: cls.count for cls in reference} == {0: 3, 1: 1}
        assert_identical(IndexBuilder(shard_rows=1).build(source), reference)

    def test_sqlite_typed_columns_match_python_equality(self):
        """Declared column types must not leak into signature equality:
        SQLite would coerce a TEXT column against an INTEGER column
        ('1' = 1 → true) where Python keeps '1' != 1."""
        conn = sqlite_backend.connect_memory()
        conn.execute('CREATE TABLE "L" ("A1" TEXT)')
        conn.executemany('INSERT INTO "L" VALUES (?)', [("1",), ("2",)])
        conn.execute('CREATE TABLE "Q" ("B1" INTEGER)')
        conn.executemany('INSERT INTO "Q" VALUES (?)', [(1,), (3,)])
        conn.commit()
        source = SqliteSource(conn, "L", "Q")
        loaded = source.instance()
        assert loaded.left.rows == (("1",), ("2",))
        assert loaded.right.rows == ((1,), (3,))
        reference = SignatureIndex(loaded, backend="python")
        assert {cls.mask: cls.count for cls in reference} == {0: 4}
        assert_identical(IndexBuilder(shard_rows=1).build(source), reference)

    def test_sqlite_collated_columns_dedup_like_python(self):
        """A NOCASE collation would merge 'a'/'A' in SQL grouping;
        the loaded rows keep them distinct, as Python does."""
        conn = sqlite_backend.connect_memory()
        conn.execute('CREATE TABLE "L" ("A1" TEXT COLLATE NOCASE)')
        conn.executemany(
            'INSERT INTO "L" VALUES (?)', [("a",), ("A",), ("a",)]
        )
        conn.execute('CREATE TABLE "Q" ("B1")')
        conn.executemany('INSERT INTO "Q" VALUES (?)', [("a",), ("b",)])
        conn.commit()
        source = SqliteSource(conn, "L", "Q")
        assert source.left_count() == 2  # 'a' and 'A', not merged
        loaded = source.instance()
        reference = SignatureIndex(loaded, backend="python")
        assert_identical(IndexBuilder(shard_rows=1).build(source), reference)

    def test_sqlite_reserved_looking_column_names(self):
        """Attributes named like SQL internals (ord, w0, first_row) are
        plain data columns."""
        conn = sqlite_backend.connect_memory()
        conn.execute('CREATE TABLE "L" ("ord", "w0", "first_row")')
        conn.executemany(
            'INSERT INTO "L" VALUES (?, ?, ?)',
            [(10, 1, 5), (20, 2, 5), (10, 1, 5)],
        )
        conn.execute('CREATE TABLE "Q" ("B1", "B2")')
        conn.executemany(
            'INSERT INTO "Q" VALUES (?, ?)', [(10, 1), (99, 5)]
        )
        conn.commit()
        source = SqliteSource(conn, "L", "Q")
        reference = SignatureIndex(source.instance(), backend="python")
        assert len(reference) > 1  # the data actually discriminates
        assert_identical(
            IndexBuilder(shard_rows=1).build(source), reference
        )

    def test_sqlite_rowid_column_falls_back_to_kernel(self):
        """An explicit column named rowid shadows the implicit one."""
        conn = sqlite_backend.connect_memory()
        conn.execute('CREATE TABLE "L" ("rowid", "A2")')
        conn.executemany(
            'INSERT INTO "L" VALUES (?, ?)', [(7, 1), (3, 2)]
        )
        conn.execute('CREATE TABLE "Q" ("B1")')
        conn.executemany('INSERT INTO "Q" VALUES (?)', [(1,), (3,)])
        conn.commit()
        source = SqliteSource(conn, "L", "Q")
        assert_identical(
            IndexBuilder(shard_rows=1).build(source),
            SignatureIndex(source.instance(), backend="python"),
        )

    def test_sqlite_duplicates_collapse_like_python(self):
        """Duplicate and cross-type-equal rows (1 vs 1.0) dedup under
        Python set semantics; "1" stays apart."""
        conn = sqlite_backend.connect_memory()
        conn.execute('CREATE TABLE "L" ("A1", "A2")')
        conn.executemany(
            'INSERT INTO "L" VALUES (?, ?)',
            [(1, "x"), (1.0, "x"), (2, "y"), (1, "x"), ("1", "x")],
        )
        conn.execute('CREATE TABLE "Q" ("B1")')
        conn.executemany(
            'INSERT INTO "Q" VALUES (?)', [(1,), ("x",), (2,), (1.0,)]
        )
        conn.commit()
        source = SqliteSource(conn, "L", "Q")
        loaded = source.instance()
        assert len(loaded.left) == 3  # (1,'x'), (2,'y'), ('1','x')
        assert_identical(
            IndexBuilder(shard_rows=1).build(source),
            SignatureIndex(loaded, backend="python"),
        )


class TestProgressAndRouting:
    def test_progress_reports_every_shard(self):
        rng = random.Random(3)
        instance = make_random_instance(rng, 2, 2, rows=10, values=5)
        n_rows = len(instance.left)
        total = -(-n_rows // 3)
        seen = []
        IndexBuilder(shard_rows=3).build(
            instance, progress=lambda done, total: seen.append((done, total))
        )
        assert seen == [(done, total) for done in range(1, total + 1)]

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
        with pytest.raises(ValueError):
            IndexBuilder(shard_rows=0)
        with pytest.raises(TypeError):
            IndexBuilder().build("not a source")

    def test_instance_source_roundtrip(self):
        rng = random.Random(1)
        instance = make_random_instance(rng, 2, 2, rows=6, values=3)
        source = InstanceSource(instance)
        assert source.instance() is instance
        assert source.left_count() == len(instance.left)
        blocks = list(source.iter_left_blocks(4))
        assert [start for start, _ in blocks] == [0, 4]
        assert sum(len(rows) for _, rows in blocks) == len(instance.left)
