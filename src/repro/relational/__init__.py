"""Relational substrate: schemas, relations, predicates, algebra, backends.

This package is the paper's §2 made executable — two relations with
disjoint attribute sets, equijoin and semijoin predicates over
``Ω = attrs(R) × attrs(P)``, and the standard set semantics of the
operators.
"""

from .algebra import (
    cartesian_product,
    equijoin,
    is_nullable,
    join_witnesses,
    project,
    select,
    selects,
    semijoin,
    semijoin_selects,
)
from .csv_io import read_csv, read_csv_text, write_csv
from .predicate import AttributePair, JoinPredicate
from .relation import Instance, Relation, Row
from .schema import Attribute, RelationSchema, SchemaError

__all__ = [
    "Attribute",
    "AttributePair",
    "Instance",
    "JoinPredicate",
    "Relation",
    "RelationSchema",
    "Row",
    "SchemaError",
    "cartesian_product",
    "equijoin",
    "is_nullable",
    "join_witnesses",
    "project",
    "read_csv",
    "read_csv_text",
    "select",
    "selects",
    "semijoin",
    "semijoin_selects",
    "write_csv",
]
