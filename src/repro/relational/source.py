"""Pluggable row sources for signature-index construction.

The :class:`~repro.core.index_build.IndexBuilder` never touches concrete
storage: it consumes a :class:`SignatureSource`, which answers "where do
the rows of ``R`` and ``P`` come from?".  Three backends cover the
spectrum from unit tests to products far beyond memory:

* :class:`InstanceSource` — an in-memory
  :class:`~repro.relational.relation.Instance` (the default; every other
  entry point funnels through :func:`as_signature_source`);
* :class:`CsvSource` — header-first CSV files or text, with the left
  relation *streamed* in blocks: rows of ``R`` are read, de-duplicated
  and handed to the builder a shard at a time, so the build's array
  working set (encoded codes, packed signature words) is bounded by the
  block size rather than ``|R|`` and the product ``R × P`` is never
  materialised anywhere — only the raw distinct rows themselves are
  retained (for exact de-duplication, and to hand the finished index
  its instance without re-parsing the file);
* :class:`SqliteSource` — tables (or views) in a SQLite database, read
  once in ``rowid`` order and then built like an in-memory instance.

Every source reproduces the exact set semantics of
:class:`~repro.relational.relation.Relation` — duplicate rows dropped,
first-occurrence order kept — so index builds are bit-for-bit identical
across backends (property-tested in
``tests/properties/test_index_build.py``).
"""

from __future__ import annotations

import io
import sqlite3
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

from .csv_io import iter_csv_rows
from .relation import Instance, Relation, Row
from .schema import RelationSchema
from .sqlite_backend import load_relation_ordered

__all__ = [
    "SignatureSource",
    "InstanceSource",
    "CsvSource",
    "SqliteSource",
    "as_signature_source",
]

LeftBlock = tuple[int, tuple[Row, ...]]


class SignatureSource(ABC):
    """Abstract supplier of the two relations of an index build.

    The builder's contract:

    * :meth:`right_rows` returns all of ``P`` (the side every shard
      needs in full — it is the smaller side in the paper's workloads);
    * :meth:`iter_left_blocks` yields ``R`` in canonical order as
      ``(start_index, rows)`` blocks, de-duplicated globally, so block
      ``k`` starts where block ``k-1`` stopped;
    * :meth:`instance` materialises the full
      :class:`~repro.relational.relation.Instance` — called once, after
      the signatures are computed, because the finished
      :class:`~repro.core.signatures.SignatureIndex` needs Ω and the
      relations for predicate decoding.
    """

    @property
    @abstractmethod
    def left_schema(self) -> RelationSchema:
        """Schema of ``R``."""

    @property
    @abstractmethod
    def right_schema(self) -> RelationSchema:
        """Schema of ``P``."""

    @abstractmethod
    def instance(self) -> Instance:
        """The fully materialised instance (cached by implementations)."""

    def left_count(self) -> int | None:
        """``|R|`` after de-duplication, or ``None`` when unknown until
        the stream is drained (pure streaming sources)."""
        return None

    @abstractmethod
    def right_rows(self) -> tuple[Row, ...]:
        """All rows of ``P``, de-duplicated, first-occurrence order."""

    @abstractmethod
    def iter_left_blocks(
        self, block_rows: int | None
    ) -> Iterator[LeftBlock]:
        """Yield ``(start_index, rows)`` blocks of de-duplicated ``R``
        rows in canonical order; ``None`` means one block with all rows.
        Empty blocks are never yielded."""

    def describe(self) -> dict[str, Any]:
        """A JSON-able summary for build status and benchmarks."""
        return {
            "kind": type(self).__name__,
            "left": self.left_schema.name,
            "right": self.right_schema.name,
        }


def _blocks_of(
    rows: tuple[Row, ...], block_rows: int | None
) -> Iterator[LeftBlock]:
    """Slice materialised rows into ``(start, rows)`` blocks (``None`` =
    one block, empty input = no blocks) — the shared tail of every
    random-access source's :meth:`iter_left_blocks`."""
    if not rows:
        return
    if block_rows is None:
        yield 0, rows
        return
    for start in range(0, len(rows), block_rows):
        yield start, rows[start : start + block_rows]


class InstanceSource(SignatureSource):
    """A source over an already-materialised in-memory instance."""

    def __init__(self, instance: Instance):
        self._instance = instance

    @property
    def left_schema(self) -> RelationSchema:
        return self._instance.left.schema

    @property
    def right_schema(self) -> RelationSchema:
        return self._instance.right.schema

    def instance(self) -> Instance:
        return self._instance

    def left_count(self) -> int:
        return len(self._instance.left)

    def right_rows(self) -> tuple[Row, ...]:
        return self._instance.right.rows

    def iter_left_blocks(
        self, block_rows: int | None
    ) -> Iterator[LeftBlock]:
        return _blocks_of(self._instance.left.rows, block_rows)


class CsvSource(SignatureSource):
    """A source streaming the left relation from header-first CSV.

    ``P`` is read (and cached) in full; ``R`` is re-opened and streamed
    block by block, de-duplicated on the fly.  The build's heavy
    allocations — encoded code matrices and packed signature words —
    only ever cover one block, which is what keeps ≫10⁷-tuple products
    buildable without a working set covering all of ``R``
    (the raw distinct row tuples are retained: exact de-duplication
    needs them, and a fully drained stream doubles as the row cache so
    :meth:`instance` never re-parses the file).  Values stay strings
    (CSV carries no types; the type-inferring reader needs whole
    columns and therefore cannot stream), matching an untyped
    :func:`~repro.relational.csv_io.read_csv`.
    """

    def __init__(
        self,
        left_path: str | Path,
        right_path: str | Path,
        left_name: str | None = None,
        right_name: str | None = None,
    ):
        left_path, right_path = Path(left_path), Path(right_path)
        self._init(
            lambda: left_path.open(newline=""),
            lambda: right_path.open(newline=""),
            left_name if left_name is not None else left_path.stem,
            right_name if right_name is not None else right_path.stem,
            str(left_path),
            str(right_path),
        )

    @classmethod
    def from_text(
        cls,
        left_text: str,
        right_text: str,
        left_name: str = "left",
        right_name: str = "right",
    ) -> "CsvSource":
        """A source over in-memory CSV text (service uploads, tests)."""
        source = cls.__new__(cls)
        source._init(
            lambda: io.StringIO(left_text, newline=""),
            lambda: io.StringIO(right_text, newline=""),
            left_name,
            right_name,
            f"CSV text ({left_name})",
            f"CSV text ({right_name})",
        )
        return source

    def _init(
        self,
        open_left: Callable[[], TextIO],
        open_right: Callable[[], TextIO],
        left_name: str,
        right_name: str,
        left_label: str,
        right_label: str,
    ) -> None:
        self._open_left = open_left
        self._open_right = open_right
        self._left_name = left_name
        self._right_name = right_name
        self._left_label = left_label
        self._right_label = right_label
        self._left_schema: RelationSchema | None = None
        self._left_rows: tuple[Row, ...] | None = None
        self._right: Relation | None = None
        self._instance: Instance | None = None

    @property
    def left_schema(self) -> RelationSchema:
        if self._left_schema is None:
            with self._open_left() as handle:
                header = next(iter_csv_rows(handle, self._left_label))
            self._left_schema = RelationSchema(self._left_name, header)
        return self._left_schema

    def left_count(self) -> int | None:
        # Unknown until the stream has been drained once.
        return None if self._left_rows is None else len(self._left_rows)

    @property
    def right_schema(self) -> RelationSchema:
        return self._right_relation().schema

    def _right_relation(self) -> Relation:
        if self._right is None:
            with self._open_right() as handle:
                rows = iter_csv_rows(handle, self._right_label)
                header = next(rows)
                self._right = Relation(
                    RelationSchema(self._right_name, header), rows
                )
        return self._right

    def right_rows(self) -> tuple[Row, ...]:
        return self._right_relation().rows

    def iter_left_blocks(
        self, block_rows: int | None
    ) -> Iterator[LeftBlock]:
        if self._left_rows is not None:
            yield from _blocks_of(self._left_rows, block_rows)
            return
        seen: set[Row] = set()
        ordered: list[Row] = []
        block: list[Row] = []
        start = 0
        with self._open_left() as handle:
            rows = iter_csv_rows(handle, self._left_label)
            header = next(rows)
            if self._left_schema is None:
                self._left_schema = RelationSchema(self._left_name, header)
            for row in rows:
                if row in seen:
                    continue
                seen.add(row)
                ordered.append(row)
                block.append(row)
                if block_rows is not None and len(block) >= block_rows:
                    yield start, tuple(block)
                    start += len(block)
                    block = []
            if block:
                yield start, tuple(block)
        # The stream was fully drained: the dedup set already pinned
        # every distinct row, so keeping them (in order) is free and
        # spares instance() a second parse of the file.
        self._left_rows = tuple(ordered)

    def instance(self) -> Instance:
        if self._instance is None:
            if self._left_rows is None:
                for _ in self.iter_left_blocks(None):
                    pass
            left = Relation(self.left_schema, self._left_rows)
            self._instance = Instance(left, self._right_relation())
        return self._instance


class SqliteSource(InstanceSource):
    """A source over two tables (or views) of a SQLite database.

    Both are read once, in ``rowid`` order
    (:func:`~repro.relational.sqlite_backend.load_relation_ordered`), so
    de-duplication keeps first-occurrence order, and the build runs the
    kernel over the loaded rows.  Signature equality is therefore Python
    equality of the loaded values — ``1 == 1.0 != "1"``, ``None ==
    None`` — whatever types or collations the columns declare.
    """

    def __init__(
        self,
        conn: sqlite3.Connection,
        left_table: str,
        right_table: str,
        left_attributes: list[str] | None = None,
        right_attributes: list[str] | None = None,
    ):
        super().__init__(
            Instance(
                load_relation_ordered(conn, left_table, left_attributes),
                load_relation_ordered(conn, right_table, right_attributes),
            )
        )


def as_signature_source(
    data: "SignatureSource | Instance",
) -> SignatureSource:
    """Coerce an :class:`Instance` (or pass a source through) — the
    builder's universal front door."""
    if isinstance(data, SignatureSource):
        return data
    if isinstance(data, Instance):
        return InstanceSource(data)
    raise TypeError(
        f"expected an Instance or SignatureSource, got {type(data).__name__}"
    )
