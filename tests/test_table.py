"""Table / Schema / Column tests."""

import numpy as np
import pytest

from repro.core.table import Column, DataType, Schema, Table
from repro.errors import TableError


class TestDataType:
    def test_infer_string(self):
        assert DataType.infer(["a", None]) is DataType.STRING

    def test_infer_int(self):
        assert DataType.infer([1, 2, None]) is DataType.INT

    def test_infer_float_promotes_int(self):
        assert DataType.infer([1, 2.5]) is DataType.FLOAT

    def test_infer_empty_defaults_int(self):
        assert DataType.infer([]) is DataType.INT

    def test_infer_mixed_rejected(self):
        with pytest.raises(TableError):
            DataType.infer(["a", 1])

    def test_infer_bool_rejected(self):
        with pytest.raises(TableError):
            DataType.infer([True])

    def test_validate(self):
        DataType.STRING.validate("x")
        DataType.STRING.validate(None)
        with pytest.raises(TableError):
            DataType.STRING.validate(3)
        with pytest.raises(TableError):
            DataType.INT.validate(True)
        DataType.FLOAT.validate(3)  # ints fit float columns


class TestSchema:
    def test_lookup(self):
        schema = Schema([("a", DataType.INT), ("b", DataType.STRING)])
        assert schema.dtype("b") is DataType.STRING
        assert "a" in schema
        assert "c" not in schema
        assert schema.field_names == ["a", "b"]

    def test_unknown_field(self):
        schema = Schema([("a", DataType.INT)])
        with pytest.raises(TableError):
            schema.dtype("z")

    def test_duplicate_names_rejected(self):
        with pytest.raises(TableError):
            Schema([("a", DataType.INT), ("a", DataType.INT)])

    def test_equality(self):
        a = Schema([("x", DataType.INT)])
        b = Schema([("x", DataType.INT)])
        assert a == b


class TestTable:
    def _table(self) -> Table:
        return Table.from_columns({"s": ["a", "b", "c"], "n": [3, 1, 2]})

    def test_shape(self):
        table = self._table()
        assert table.n_rows == 3
        assert table.n_columns == 2
        assert table.field_names == ["s", "n"]

    def test_row_access(self):
        table = self._table()
        assert table.row(1) == ("b", 1)
        with pytest.raises(TableError):
            table.row(3)

    def test_iter_rows(self):
        assert list(self._table().iter_rows()) == [("a", 3), ("b", 1), ("c", 2)]

    def test_take_reorders(self):
        table = self._table().take(np.array([2, 0, 1]))
        assert list(table.iter_rows()) == [("c", 2), ("a", 3), ("b", 1)]

    def test_take_rejects_boolean_mask(self):
        for table in (self._table(), _coded(self._table())):
            with pytest.raises(TableError):
                table.take([True, False, True])
            with pytest.raises(TableError):
                table.take(np.array([True, False, True]))

    def test_take_rejects_negative_index(self):
        for table in (self._table(), _coded(self._table())):
            with pytest.raises(TableError):
                table.take([-1])

    def test_take_rejects_index_past_the_end(self):
        for table in (self._table(), _coded(self._table())):
            with pytest.raises(TableError):
                table.take([0, 3])
            assert table.take([]).n_rows == 0

    def test_ragged_rejected(self):
        with pytest.raises(TableError):
            Table([Column("a", [1]), Column("b", [1, 2])])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(TableError):
            Table([Column("a", [1]), Column("a", [2])])

    def test_equality(self):
        assert self._table() == self._table()
        assert self._table() != self._table().take([0, 2, 1])

    def test_sorted_rows_handles_nulls(self):
        table = Table.from_columns({"s": ["b", None, "a"]})
        assert table.sorted_rows() == [(None,), ("a",), ("b",)]

    def test_unknown_column(self):
        with pytest.raises(TableError):
            self._table().column("zz")

    def test_empty_table_rejected(self):
        with pytest.raises(TableError):
            Table([])


def _coded(table: Table) -> Table:
    """``table`` with every column in dictionary-coded form."""
    columns = []
    for name in table.field_names:
        column = table.column(name)
        distinct = sorted(set(column.values))
        codes = [distinct.index(value) for value in column.values]
        columns.append(Column.from_codes(name, codes, distinct, column.dtype))
    return Table(columns)


class TestCodedColumn:
    def _column(self) -> Column:
        return Column.from_codes(
            "s", np.array([2, 0, 1, 2]), [None, "a", "b"], DataType.STRING
        )

    def test_reads_like_a_list_column(self):
        column = self._column()
        assert len(column) == 4
        assert [column[row] for row in range(4)] == ["b", None, "a", "b"]
        assert column._values is None  # answered from the codes
        assert column.values == ["b", None, "a", "b"]
        table = Table([column])
        assert table == Table([Column("s", ["b", None, "a", "b"])])
        assert table.row(0) == ("b",)
        assert list(table.iter_rows()) == [("b",), (None,), ("a",), ("b",)]

    def test_typed_distinct_cells_are_python_numbers(self):
        column = Column.from_codes(
            "n", np.array([1, 0], dtype=np.uint8), np.array([5, 7]), DataType.INT
        )
        assert column.values == [7, 5]
        assert type(column[0]) is int and type(column.values[0]) is int
        as_float = Column.from_codes("f", [0], np.array([0.5]), DataType.FLOAT)
        assert type(as_float[0]) is float

    def test_take_shares_distinct_and_leaves_cells_alone(self):
        column = self._column()
        taken = column.take([3, 1])
        assert taken.distinct is column.distinct
        assert taken.codes.tolist() == [2, 0]
        assert column._values is None and taken._values is None
        assert taken.values == ["b", None]

    def test_distinct_values_drops_what_take_left_unused(self):
        column = self._column()
        assert column.distinct_values() == [None, "a", "b"]
        assert column.take([0, 3]).distinct_values() == ["b"]
        listed = Column("s", ["b", None, "b"])
        assert sorted(listed.distinct_values(), key=str) == [None, "b"]

    def test_empty(self):
        column = Column.from_codes("s", np.empty(0, dtype=np.int64), [], DataType.STRING)
        assert len(column) == 0 and column.values == []
        assert column.distinct_values() == []

    @pytest.mark.parametrize(
        "codes, distinct, dtype",
        [
            ([0, 1], ["b", "a"], DataType.STRING),  # unsorted
            ([0, 1], ["a", "a"], DataType.STRING),  # duplicated
            ([0, 1], ["a", None], DataType.STRING),  # NULL not first
            ([0], [None, None], DataType.STRING),
            ([0], ["a", 1], DataType.STRING),  # wrongly typed
            ([0], [1.5], DataType.INT),
            ([0], [True], DataType.INT),
            ([0], np.array([1.5]), DataType.INT),
            ([0], np.array([1]), DataType.STRING),
            ([0], np.array(["a"]), DataType.STRING),
            ([0], np.array([1], dtype=np.int32), DataType.INT),  # not int64/float64
            ([0, 1], np.array([2, 1]), DataType.INT),
            ([0, 1], np.array([1.0, float("nan")]), DataType.FLOAT),
            ([2], ["a", "b"], DataType.STRING),  # out of range
            ([-1], ["a", "b"], DataType.STRING),
            ([0], [], DataType.STRING),
            ([0.0], ["a"], DataType.STRING),  # not integer codes
            ([True], ["a", "b"], DataType.STRING),
            ([[0]], ["a"], DataType.STRING),
        ],
    )
    def test_from_codes_rejects(self, codes, distinct, dtype):
        with pytest.raises(TableError):
            Column.from_codes("x", codes, distinct, dtype)
