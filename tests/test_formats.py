"""Format backend tests: CSV, record-io, column-io round trips and scans."""

import pytest

from repro.core.table import DataType, Schema, Table
from repro.errors import TableError
from repro.formats import (
    ColumnIoBackend,
    CsvBackend,
    RecordIoBackend,
    read_columnio,
    write_columnio,
    write_csv,
    write_recordio,
)
from repro.sql.parser import parse_query


def _scanned(backend) -> Table:
    """The table a row backend's full scan reads back, in its schema."""
    rows = list(backend.scan_rows(None))
    columns = {
        name: [row[i] for row in rows]
        for i, name in enumerate(backend.schema.field_names)
    }
    return Table.from_columns(columns, backend.schema)


@pytest.fixture()
def tricky_table() -> Table:
    return Table.from_columns(
        {
            "s": ["plain", "with,comma", 'with"quote', "with\nnewline", None, "\\N"],
            "i": [0, -5, 2**40, None, 7, 9],
            "f": [1.5, -0.25, None, 3.0, 1e-9, 2.0],
        }
    )


class TestCsv:
    def test_round_trip(self, tricky_table, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(tricky_table, path)
        assert _scanned(CsvBackend(path, tricky_table.schema)) == tricky_table

    def test_null_vs_literal_backslash_n(self, tmp_path):
        table = Table.from_columns({"s": [None, "\\N", "x"]})
        path = str(tmp_path / "t.csv")
        write_csv(table, path)
        assert _scanned(CsvBackend(path, table.schema)) == table

    def test_header_mismatch_rejected(self, tricky_table, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(tricky_table, path)
        wrong = Schema([("other", DataType.STRING)])
        backend = CsvBackend(path, wrong)
        with pytest.raises(TableError):
            list(backend.scan_rows(None))

    def test_memory_is_file_size(self, tricky_table, tmp_path):
        import os

        path = str(tmp_path / "t.csv")
        write_csv(tricky_table, path)
        backend = CsvBackend(path, tricky_table.schema)
        query = parse_query("SELECT s FROM data")
        assert backend.memory_bytes(query) == os.path.getsize(path)

    def test_rows_total(self, tricky_table, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(tricky_table, path)
        assert CsvBackend(path, tricky_table.schema).rows_total() == 6


class TestRecordIo:
    def test_round_trip(self, tricky_table, tmp_path):
        path = str(tmp_path / "t.rio")
        write_recordio(tricky_table, path)
        assert _scanned(RecordIoBackend(path, tricky_table.schema)) == tricky_table

    def test_negative_ints_zigzag(self, tmp_path):
        table = Table.from_columns({"i": [-1, -(2**40), 0, 2**40]})
        path = str(tmp_path / "t.rio")
        write_recordio(table, path)
        assert _scanned(RecordIoBackend(path, table.schema)) == table

    def test_smaller_than_csv(self, tmp_path):
        import random

        random.seed(0)
        table = Table.from_columns(
            {"n": [random.randrange(1000) for __ in range(2000)]}
        )
        csv_size = write_csv(table, str(tmp_path / "t.csv"))
        rio_size = write_recordio(table, str(tmp_path / "t.rio"))
        assert rio_size < csv_size

    def test_truncated_file_rejected(self, tricky_table, tmp_path):
        path = str(tmp_path / "t.rio")
        write_recordio(tricky_table, path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-3])
        backend = RecordIoBackend(path, tricky_table.schema)
        with pytest.raises(Exception):
            list(backend.scan_rows(None))


class TestColumnIo:
    def test_round_trip(self, tricky_table, tmp_path):
        path = str(tmp_path / "t.cio")
        write_columnio(tricky_table, path)
        assert read_columnio(path) == tricky_table

    def test_multiple_blocks(self, tmp_path):
        table = Table.from_columns({"n": list(range(1000))})
        path = str(tmp_path / "t.cio")
        write_columnio(table, path, block_rows=64)
        assert read_columnio(path) == table

    def test_reads_only_referenced_columns(self, tricky_table, tmp_path):
        path = str(tmp_path / "t.cio")
        write_columnio(tricky_table, path)
        backend = ColumnIoBackend(path)
        narrow = backend.memory_bytes(parse_query("SELECT i FROM data"))
        wide = backend.memory_bytes(
            parse_query("SELECT s, i, f FROM data")
        )
        assert narrow < wide
        assert narrow == backend.column_compressed_bytes("i")

    def test_alternative_codec(self, tricky_table, tmp_path):
        path = str(tmp_path / "t.cio")
        write_columnio(tricky_table, path, codec="lzo")
        assert read_columnio(path) == tricky_table

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.cio")
        open(path, "wb").write(b"NOPE....")
        with pytest.raises(TableError):
            ColumnIoBackend(path)

    def test_unknown_column_rejected(self, tricky_table, tmp_path):
        path = str(tmp_path / "t.cio")
        write_columnio(tricky_table, path)
        with pytest.raises(TableError):
            ColumnIoBackend(path).read_column("zz")

    def test_schema_preserved(self, tricky_table, tmp_path):
        path = str(tmp_path / "t.cio")
        write_columnio(tricky_table, path)
        assert ColumnIoBackend(path).schema == tricky_table.schema


class TestBackendExecution:
    def test_wrong_table_name(self, tricky_table, tmp_path):
        from repro.errors import ExecutionError

        path = str(tmp_path / "t.csv")
        write_csv(tricky_table, path)
        backend = CsvBackend(path, tricky_table.schema)
        with pytest.raises(ExecutionError):
            backend.execute("SELECT COUNT(*) FROM wrong")

    def test_stats_reflect_full_scan(self, tricky_table, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(tricky_table, path)
        backend = CsvBackend(path, tricky_table.schema)
        result = backend.execute("SELECT COUNT(*) FROM data")
        assert result.stats.rows_scanned == tricky_table.n_rows
        assert result.stats.cells_scanned == tricky_table.n_rows * tricky_table.n_columns
