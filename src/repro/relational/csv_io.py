"""CSV import/export for relations.

CSV has no type information, so values round-trip as strings unless the
caller opts into ``infer_types=True``, which converts columns that are
uniformly integral (or uniformly float-like) to numbers.  The equality
semantics of the inference algorithms are type-sensitive (``"1" != 1``),
hence the explicit opt-in.  Reading validates the shape: an empty input
has no header, blank lines are skipped, and a ragged row is reported
with its line number.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Hashable

from .relation import Relation
from .schema import RelationSchema

__all__ = ["write_csv", "read_csv", "read_csv_text"]


def write_csv(relation: Relation, path: str | Path) -> None:
    """Write a relation (header + rows) to ``path``."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([attr.name for attr in relation.schema])
        writer.writerows(relation.rows)


def _convert_column(values: list[str]) -> list[Hashable]:
    """Convert a string column to int/float when every value parses."""
    try:
        return [int(v) for v in values]
    except ValueError:
        pass
    try:
        return [float(v) for v in values]
    except ValueError:
        return list(values)


def _read_csv_handle(
    handle, name: str, source: str, infer_types: bool
) -> Relation:
    """Read a header-first CSV handle into a relation.

    Blank physical rows are skipped, and a ragged row raises
    :class:`ValueError` with its physical line number
    (``reader.line_num`` tracks physical lines, so error positions stay
    right across blank lines and quoted fields containing newlines).
    """
    reader = csv.reader(handle)
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ValueError(f"{source} is empty; expected a header row")
    width = len(header)
    raw_rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise ValueError(
                f"{source} line {reader.line_num}: expected {width} "
                f"columns, got {len(row)}"
            )
        raw_rows.append(tuple(row))
    schema = RelationSchema(name, header)
    if not infer_types or not raw_rows:
        return Relation(schema, raw_rows)
    columns = [
        _convert_column([row[i] for row in raw_rows])
        for i in range(len(header))
    ]
    typed_rows = list(zip(*columns))
    return Relation(schema, typed_rows)


def read_csv(
    path: str | Path,
    relation_name: str | None = None,
    infer_types: bool = False,
) -> Relation:
    """Read a relation from a header-first CSV file.

    ``relation_name`` defaults to the file stem.
    """
    path = Path(path)
    name = relation_name if relation_name is not None else path.stem
    with path.open(newline="") as handle:
        return _read_csv_handle(handle, name, str(path), infer_types)


def read_csv_text(
    text: str,
    relation_name: str,
    infer_types: bool = False,
) -> Relation:
    """Read a relation from in-memory CSV text (header first).

    Same semantics as :func:`read_csv`; used by the service layer for
    uploaded relations.
    """
    return _read_csv_handle(
        io.StringIO(text, newline=""), relation_name, "CSV text", infer_types
    )
