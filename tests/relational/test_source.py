"""Behavioural tests for the pluggable signature sources.

The bit-for-bit build parity lives in
``tests/properties/test_index_build.py``; here we pin the source-level
contracts: streaming block iteration, de-duplication, schema discovery,
error handling, and SQLite's ordered loading.
"""

from __future__ import annotations

import pytest

from repro.core import IndexBuilder, SignatureIndex
from repro.relational import (
    CsvSource,
    Instance,
    InstanceSource,
    Relation,
    SqliteSource,
    as_signature_source,
    iter_csv_rows,
)
from repro.relational import sqlite_backend


LEFT_CSV = "A1,A2\n1,2\n3,4\n1,2\n5,6\n"  # duplicate (1,2) row
RIGHT_CSV = "B1\n1\n3\n"


def csv_source() -> CsvSource:
    return CsvSource.from_text(LEFT_CSV, RIGHT_CSV, "R", "P")


class TestCsvSource:
    def test_left_blocks_stream_deduplicated(self):
        blocks = list(csv_source().iter_left_blocks(2))
        assert blocks == [
            (0, (("1", "2"), ("3", "4"))),
            (2, (("5", "6"),)),
        ]

    def test_single_block_when_unbounded(self):
        blocks = list(csv_source().iter_left_blocks(None))
        assert len(blocks) == 1
        start, rows = blocks[0]
        assert start == 0 and len(rows) == 3

    def test_schemas_and_rows(self):
        source = csv_source()
        assert [a.name for a in source.left_schema] == ["A1", "A2"]
        assert [a.name for a in source.right_schema] == ["B1"]
        assert source.right_rows() == (("1",), ("3",))
        assert source.left_count() is None  # unknown until streamed

    def test_instance_matches_streamed_rows(self):
        source = csv_source()
        instance = source.instance()
        assert instance.left.rows == (("1", "2"), ("3", "4"), ("5", "6"))
        assert source.instance() is instance  # cached

    def test_drained_stream_feeds_instance_without_reparse(self):
        opens = {"count": 0}
        source = csv_source()
        open_left = source._open_left

        def counting_open():
            opens["count"] += 1
            return open_left()

        source._open_left = counting_open
        list(source.iter_left_blocks(2))  # drain once
        instance = source.instance()
        blocks = list(source.iter_left_blocks(1))
        assert opens["count"] == 1  # stream, instance and re-iteration share it
        assert instance.left.rows == (("1", "2"), ("3", "4"), ("5", "6"))
        assert [start for start, _ in blocks] == [0, 1, 2]

    def test_paths_roundtrip(self, tmp_path):
        left = tmp_path / "R.csv"
        right = tmp_path / "P.csv"
        left.write_text(LEFT_CSV)
        right.write_text(RIGHT_CSV)
        source = CsvSource(left, right)
        assert source.left_schema.name == "R"
        assert source.instance().right.rows == (("1",), ("3",))

    def test_ragged_row_raises_with_line_number(self):
        source = CsvSource.from_text(
            "A1,A2\n1,2\n3\n", RIGHT_CSV, "R", "P"
        )
        with pytest.raises(ValueError, match="line 3"):
            list(source.iter_left_blocks(10))

    def test_empty_csv_rejected(self):
        source = CsvSource.from_text("", RIGHT_CSV, "R", "P")
        with pytest.raises(ValueError, match="header"):
            source.left_schema

    def test_describe(self):
        description = csv_source().describe()
        assert description["kind"] == "CsvSource"
        assert description["left"] == "R"


class TestIterCsvRows:
    def test_header_then_rows_blank_lines_skipped(self):
        rows = list(iter_csv_rows(iter(["A,B\n", "\n", "1,2\n"])))
        assert rows == [("A", "B"), ("1", "2")]


class TestInstanceSource:
    def test_coercion(self):
        instance = Instance(
            Relation.build("R", ["A1"], [(1,)]),
            Relation.build("P", ["B1"], [(2,)]),
        )
        source = as_signature_source(instance)
        assert isinstance(source, InstanceSource)
        assert as_signature_source(source) is source
        with pytest.raises(TypeError):
            as_signature_source(42)

    def test_empty_left_yields_no_blocks(self):
        instance = Instance(
            Relation.build("R", ["A1"]),
            Relation.build("P", ["B1"], [(2,)]),
        )
        assert list(InstanceSource(instance).iter_left_blocks(4)) == []


class TestSqliteSource:
    @pytest.fixture
    def conn(self):
        connection = sqlite_backend.connect_memory()
        connection.execute('CREATE TABLE "R" ("A1", "A2")')
        connection.executemany(
            'INSERT INTO "R" VALUES (?, ?)',
            [(1, 2), (3, 4), (1, 2), (5, 6)],
        )
        connection.execute('CREATE TABLE "P" ("B1")')
        connection.executemany('INSERT INTO "P" VALUES (?)', [(1,), (3,)])
        connection.commit()
        return connection

    def test_counts_and_schema_discovery(self, conn):
        source = SqliteSource(conn, "R", "P")
        assert source.left_count() == 3  # duplicate collapsed
        assert [a.name for a in source.left_schema] == ["A1", "A2"]
        assert source.right_rows() == ((1,), (3,))

    def test_load_relation_ordered_first_occurrence(self, conn):
        relation = sqlite_backend.load_relation_ordered(conn, "R")
        assert relation.rows == ((1, 2), (3, 4), (5, 6))

    def test_view_falls_back_to_kernel_path(self, conn):
        """Views have no rowid: they load in scan order, and the
        builder runs the kernel over the loaded instance."""
        conn.execute('CREATE VIEW "RV" AS SELECT * FROM "R"')
        conn.execute('CREATE VIEW "PV" AS SELECT * FROM "P"')
        source = SqliteSource(conn, "RV", "PV")
        built = IndexBuilder(shard_rows=2).build(source)
        reference = SignatureIndex(source.instance(), backend="python")
        assert [(c.mask, c.count) for c in built] == [
            (c.mask, c.count) for c in reference
        ]

    def test_without_rowid_table_falls_back(self, conn):
        conn.execute(
            'CREATE TABLE "W" ("A1", PRIMARY KEY ("A1")) WITHOUT ROWID'
        )
        conn.execute('INSERT INTO "W" VALUES (1)')
        source = SqliteSource(conn, "W", "P")
        built = IndexBuilder().build(source)
        reference = SignatureIndex(source.instance(), backend="python")
        assert [
            (c.class_id, c.mask, c.count, c.representative) for c in built
        ] == [
            (c.class_id, c.mask, c.count, c.representative)
            for c in reference
        ]

    def test_iter_left_blocks_fallback(self, conn):
        source = SqliteSource(conn, "R", "P")
        blocks = list(source.iter_left_blocks(2))
        assert blocks == [(0, ((1, 2), (3, 4))), (2, ((5, 6),))]
