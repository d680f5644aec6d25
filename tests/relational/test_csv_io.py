"""CSV import/export tests."""

import pytest

from repro.relational import Relation
from repro.relational.csv_io import read_csv, read_csv_text, write_csv


class TestRoundTrip:
    def test_string_round_trip(self, tmp_path):
        relation = Relation.build(
            "Cities", ["name", "country"], [("Lille", "FR"), ("NYC", "US")]
        )
        path = tmp_path / "cities.csv"
        write_csv(relation, path)
        assert read_csv(path, "Cities") == relation

    def test_relation_name_defaults_to_stem(self, tmp_path):
        relation = Relation.build("Whatever", ["a"], [("x",)])
        path = tmp_path / "renamed.csv"
        write_csv(relation, path)
        assert read_csv(path).name == "renamed"

    def test_numeric_round_trip_requires_type_inference(self, tmp_path):
        relation = Relation.build("Nums", ["a", "b"], [(1, 2.5), (3, 4.5)])
        path = tmp_path / "nums.csv"
        write_csv(relation, path)
        as_strings = read_csv(path, "Nums")
        assert as_strings.rows == (("1", "2.5"), ("3", "4.5"))
        typed = read_csv(path, "Nums", infer_types=True)
        assert typed == relation

    def test_mixed_column_stays_string(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("a\n1\nx\n")
        relation = read_csv(path, "Mixed", infer_types=True)
        assert relation.rows == (("1",), ("x",))

    def test_integer_column_prefers_int_over_float(self, tmp_path):
        path = tmp_path / "ints.csv"
        path.write_text("a\n1\n2\n")
        relation = read_csv(path, "Ints", infer_types=True)
        assert relation.rows == ((1,), (2,))

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        relation = read_csv(path, "HeaderOnly")
        assert len(relation) == 0
        assert relation.arity == 2

    def test_duplicate_rows_collapse_on_read(self, tmp_path):
        path = tmp_path / "dups.csv"
        path.write_text("a\nx\nx\n")
        assert len(read_csv(path, "Dups")) == 1


class TestValidation:
    @pytest.mark.parametrize(
        "text,line",
        [("A1,A2\n1,2\n3\n", 3), ("A1,A2\n1,2\n\n3\n", 4)],
        ids=["ragged", "ragged_after_blank_line"],
    )
    def test_ragged_row_raises_with_line_number(self, text, line):
        """Line numbers are physical: blank lines count."""
        with pytest.raises(ValueError, match=f"line {line}:"):
            read_csv_text(text, "R")

    def test_blank_lines_skipped(self):
        relation = read_csv_text("A,B\n\n1,2\n", "R")
        assert relation.rows == (("1", "2"),)

    def test_empty_csv_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_csv_text("", "R")
