"""CSV: the row-wise text baseline of Table 1.

The whole file must be read and parsed for every query regardless of
which columns it touches, so ``memory_bytes`` reports the full file
size — "for CSV and record-io the entire data size is reported, since
these are row-wise formats".

NULL is encoded as the unquoted marker ``\\N`` (the MySQL dump
convention); a literal string ``\\N`` is escaped as ``\\\\N``.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Iterator

from repro.core.table import DataType, Schema, Table
from repro.errors import TableError
from repro.formats.backend import Backend
from repro.sql.ast_nodes import Query

_NULL = "\\N"
_ESCAPED_NULL = "\\\\N"


def write_csv(table: Table, path: str) -> int:
    """Write ``table`` to ``path``; returns the file size in bytes."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.field_names)
        for row in table.iter_rows():
            writer.writerow([_encode_value(value) for value in row])
    return os.path.getsize(path)


def _encode_value(value) -> str:
    if value is None:
        return _NULL
    if isinstance(value, str):
        return _ESCAPED_NULL if value == _NULL else value
    return repr(value)


def _decode_value(raw: str, dtype: DataType):
    if raw == _NULL:
        return None
    if dtype is DataType.STRING:
        return _NULL if raw == _ESCAPED_NULL else raw
    if dtype is DataType.INT:
        return int(raw)
    return float(raw)


class CsvBackend(Backend):
    """Full-scan SQL over a CSV file."""

    name = "csv"

    def __init__(self, path: str, schema: Schema, table_name: str = "data") -> None:
        super().__init__(table_name)
        self._path = path
        self._schema = schema
        self._n_rows: int | None = None

    @property
    def schema(self) -> Schema:
        return self._schema

    def scan_rows(self, query: Query | None) -> Iterator[tuple]:
        dtypes = [self._schema.dtype(name) for name in self._schema.field_names]
        with open(self._path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != self._schema.field_names:
                raise TableError(
                    f"CSV header {header} does not match schema "
                    f"{self._schema.field_names}"
                )
            count = 0
            for record in reader:
                count += 1
                yield tuple(
                    _decode_value(raw, dtype)
                    for raw, dtype in zip(record, dtypes)
                )
            self._n_rows = count

    def memory_bytes(self, query: Query) -> int:
        return os.path.getsize(self._path)

    def rows_total(self) -> int:
        if self._n_rows is None:
            self._n_rows = sum(1 for __ in self.scan_rows(None))
        return self._n_rows
