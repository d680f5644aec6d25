"""SQLite execution backend.

The inference algorithms operate on in-memory :class:`Relation` objects,
but a downstream user's data usually lives in a database.  This module
round-trips relations to SQLite tables and evaluates equijoins/semijoins as
SQL, which serves three purposes:

* loading real data into the inference machinery (``load_relation``;
  ``load_relation_ordered`` feeds
  :class:`~repro.relational.source.SqliteSource` index builds),
* persisting generated datasets (``store_relation``),
* cross-validating the pure-Python algebra against a real query engine
  (the test suite checks ``algebra.equijoin == sql_equijoin`` on random
  instances).

Values are stored as TEXT/INTEGER/REAL; ``None`` maps to SQL NULL.  SQL
equality over NULL differs from Python ``None == None``, so relations with
``None`` values are rejected at store time — the paper's model has no
nulls.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable

from .predicate import JoinPredicate
from .relation import Instance, Relation, Row
from .schema import RelationSchema

__all__ = [
    "connect_memory",
    "store_relation",
    "load_relation",
    "load_relation_ordered",
    "store_instance",
    "sql_equijoin",
    "sql_semijoin",
    "equijoin_query",
    "semijoin_query",
    "sqlite_quote",
]


def connect_memory() -> sqlite3.Connection:
    """A fresh in-memory SQLite database."""
    return sqlite3.connect(":memory:")


def sqlite_quote(identifier: str) -> str:
    """Quote an SQL identifier (relation/attribute names are validated
    against ``[A-Za-z_][A-Za-z0-9_]*`` by the schema layer, so this is
    belt-and-braces).  The one quoting rule of this backend — every
    module touching SQLite identifiers must route through it."""
    return '"' + identifier.replace('"', '""') + '"'


# Internal shorthand; the public name is part of the module contract.
_quote = sqlite_quote


def store_relation(conn: sqlite3.Connection, relation: Relation) -> None:
    """Create a table named after the relation and insert all rows."""
    for row in relation:
        if any(value is None for value in row):
            raise ValueError(
                "relations with NULL values cannot be stored: SQL NULL "
                "equality differs from the paper's equality semantics"
            )
    cols = ", ".join(_quote(a.name) for a in relation.schema)
    conn.execute(f"DROP TABLE IF EXISTS {_quote(relation.name)}")
    conn.execute(f"CREATE TABLE {_quote(relation.name)} ({cols})")
    placeholders = ", ".join("?" for _ in range(relation.arity))
    conn.executemany(
        f"INSERT INTO {_quote(relation.name)} VALUES ({placeholders})",
        relation.rows,
    )
    conn.commit()


def load_relation(
    conn: sqlite3.Connection,
    table: str,
    attributes: Iterable[str] | None = None,
    limit: int | None = None,
) -> Relation:
    """Load a SQLite table (optionally a column subset / row cap)."""
    if attributes is None:
        cursor = conn.execute(f"SELECT * FROM {_quote(table)} LIMIT 0")
        attributes = [description[0] for description in cursor.description]
    attributes = list(attributes)
    cols = ", ".join(_quote(a) for a in attributes)
    sql = f"SELECT {cols} FROM {_quote(table)}"
    if limit is not None:
        sql += f" LIMIT {int(limit)}"
    rows = conn.execute(sql).fetchall()
    return Relation(RelationSchema(table, attributes), rows)


def load_relation_ordered(
    conn: sqlite3.Connection,
    table: str,
    attributes: Iterable[str] | None = None,
) -> Relation:
    """Like :func:`load_relation` but in guaranteed ``rowid`` order.

    Plain ``SELECT *`` order is an SQLite implementation detail;
    ordering by ``rowid`` pins first-occurrence order, which is what
    :class:`~repro.relational.relation.Relation` keeps after
    de-duplication — and so which tuple represents each signature class
    of an index built over the loaded rows
    (:class:`~repro.relational.source.SqliteSource`).  Falls back to the
    unordered load for tables without a ``rowid`` (``WITHOUT ROWID``
    tables, and views, whose ``rowid`` reads NULL).
    """
    if attributes is None:
        cursor = conn.execute(f"SELECT * FROM {_quote(table)} LIMIT 0")
        attributes = [description[0] for description in cursor.description]
    attributes = list(attributes)
    cols = ", ".join(_quote(a) for a in attributes)
    try:
        rows = conn.execute(
            f"SELECT {cols} FROM {_quote(table)} ORDER BY rowid"
        ).fetchall()
    except sqlite3.OperationalError:
        return load_relation(conn, table, attributes)
    return Relation(RelationSchema(table, attributes), rows)


def store_instance(conn: sqlite3.Connection, instance: Instance) -> None:
    """Store both relations of an instance."""
    store_relation(conn, instance.left)
    store_relation(conn, instance.right)


def equijoin_query(instance: Instance, predicate: JoinPredicate) -> str:
    """The SQL text of ``R ⋈_θ P`` over the stored tables."""
    left, right = instance.left.name, instance.right.name
    select_cols = ", ".join(
        [f"{_quote(left)}.{_quote(a.name)}" for a in instance.left.schema]
        + [f"{_quote(right)}.{_quote(b.name)}" for b in instance.right.schema]
    )
    conditions = [
        f"{_quote(left)}.{_quote(a.name)} = {_quote(right)}.{_quote(b.name)}"
        for a, b in predicate.sorted_pairs()
    ]
    where = " AND ".join(conditions) if conditions else "1=1"
    return (
        f"SELECT {select_cols} FROM {_quote(left)} "
        f"CROSS JOIN {_quote(right)} WHERE {where}"
    )


def semijoin_query(instance: Instance, predicate: JoinPredicate) -> str:
    """The SQL text of ``R ⋉_θ P`` (EXISTS formulation)."""
    left, right = instance.left.name, instance.right.name
    select_cols = ", ".join(
        f"{_quote(left)}.{_quote(a.name)}" for a in instance.left.schema
    )
    conditions = [
        f"{_quote(left)}.{_quote(a.name)} = {_quote(right)}.{_quote(b.name)}"
        for a, b in predicate.sorted_pairs()
    ]
    where = " AND ".join(conditions) if conditions else "1=1"
    return (
        f"SELECT {select_cols} FROM {_quote(left)} WHERE EXISTS "
        f"(SELECT 1 FROM {_quote(right)} WHERE {where})"
    )


def sql_equijoin(
    conn: sqlite3.Connection,
    instance: Instance,
    predicate: JoinPredicate,
) -> set[tuple[Row, Row]]:
    """Evaluate the equijoin in SQLite; returns ``{(r_row, p_row)}``."""
    predicate.validate_for(instance)
    arity = instance.left.arity
    out = set()
    for joined in conn.execute(equijoin_query(instance, predicate)):
        out.add((tuple(joined[:arity]), tuple(joined[arity:])))
    return out


def sql_semijoin(
    conn: sqlite3.Connection,
    instance: Instance,
    predicate: JoinPredicate,
) -> set[Row]:
    """Evaluate the semijoin in SQLite; returns the set of R-rows."""
    predicate.validate_for(instance)
    return {
        tuple(row)
        for row in conn.execute(semijoin_query(instance, predicate))
    }
