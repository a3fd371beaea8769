"""record-io: a binary row format on the protocol-buffer wire encoding.

The paper's second row-wise baseline is "record-io (binary format based
on protocol buffers)". This module implements that wire format from
scratch:

- each record is length-prefixed (varint) and contains one tagged
  entry per non-NULL field;
- a tag is ``(field_number << 3) | wire_type`` with the real protobuf
  wire types: 0 = varint (ints, zigzag-encoded), 1 = 64-bit (doubles),
  2 = length-delimited (UTF-8 strings);
- NULL fields are simply absent from the record.

Like CSV it is a row format: every query streams and decodes all
records, and ``memory_bytes`` reports the full file size.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterator

import numpy as np

from repro.compress.varint import (
    decode_varint,
    decode_zigzag,
    encode_varint,
    encode_varint_array,
    encode_zigzag,
    varint_lengths,
)
from repro.core.table import DataType, Schema, Table
from repro.errors import TableError
from repro.formats.backend import Backend
from repro.sql.ast_nodes import Query

_WIRE_VARINT = 0
_WIRE_FIXED64 = 1
_WIRE_BYTES = 2


def _column_pieces(values: list, dtype: DataType, field_number: int) -> list[bytes]:
    """Per-row encoded (tag + payload) pieces for one column.

    NULL rows map to ``b""``. Numeric payloads are produced by the bulk
    varint kernels — one vectorized pass per column, then per-row
    slicing of the blob — and are byte-identical to the per-value
    scalar encoders.
    """
    if dtype is DataType.INT:
        tag = bytes(encode_varint((field_number << 3) | _WIRE_VARINT))
        non_null = [int(v) for v in values if v is not None]
        try:
            arr = np.asarray(non_null, dtype=np.int64)
        except OverflowError:
            # Ints beyond int64: the scalar encoder handles any width.
            return [
                b"" if v is None else tag + encode_zigzag(int(v))
                for v in values
            ]
        zigzag = ((arr << np.int64(1)) ^ (arr >> np.int64(63))).view(np.uint64)
        blob = encode_varint_array(zigzag)
        bounds = np.zeros(arr.size + 1, dtype=np.int64)
        np.cumsum(varint_lengths(zigzag), out=bounds[1:])
        offsets = iter(bounds.tolist())
        end = next(offsets)
        pieces = []
        for v in values:
            if v is None:
                pieces.append(b"")
            else:
                start, end = end, next(offsets)
                pieces.append(tag + blob[start:end])
        return pieces
    if dtype is not DataType.STRING:
        tag = bytes(encode_varint((field_number << 3) | _WIRE_FIXED64))
        packed = np.asarray(
            [float(v) for v in values if v is not None], dtype="<f8"
        ).tobytes()
        pieces = []
        end = 0
        for v in values:
            if v is None:
                pieces.append(b"")
            else:
                start, end = end, end + 8
                pieces.append(tag + packed[start:end])
        return pieces
    tag = bytes(encode_varint((field_number << 3) | _WIRE_BYTES))
    pieces = []
    for v in values:
        if v is None:
            pieces.append(b"")
        else:
            raw = v.encode("utf-8")
            pieces.append(tag + encode_varint(len(raw)) + raw)
    return pieces


def write_recordio(table: Table, path: str) -> int:
    """Write ``table`` to ``path``; returns the file size in bytes.

    The numeric payloads of every column are produced in one
    bulk-kernel pass (see :func:`_column_pieces`), as are the record
    length prefixes.
    """
    columns = [
        _column_pieces(
            table.column(name).values, table.column(name).dtype, number
        )
        for number, name in enumerate(table.field_names, start=1)
    ]
    if columns:
        bodies = [b"".join(row_pieces) for row_pieces in zip(*columns)]
    else:
        bodies = [b""] * table.n_rows
    lengths = np.fromiter(
        map(len, bodies), dtype=np.int64, count=len(bodies)
    )
    prefix_blob = encode_varint_array(lengths)
    bounds = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(varint_lengths(lengths), out=bounds[1:])
    starts = bounds.tolist()
    with open(path, "wb") as handle:
        handle.write(
            b"".join(
                prefix_blob[starts[i] : starts[i + 1]] + body
                for i, body in enumerate(bodies)
            )
        )
    return os.path.getsize(path)


class RecordIoBackend(Backend):
    """Full-scan SQL over a record-io file."""

    name = "record-io"

    def __init__(self, path: str, schema: Schema, table_name: str = "data") -> None:
        super().__init__(table_name)
        self._path = path
        self._schema = schema
        self._n_rows: int | None = None

    @property
    def schema(self) -> Schema:
        return self._schema

    def scan_rows(self, query: Query | None) -> Iterator[tuple]:
        names = self._schema.field_names
        n_fields = len(names)
        with open(self._path, "rb") as handle:
            data = handle.read()
        pos = 0
        total = len(data)
        count = 0
        while pos < total:
            length, pos = decode_varint(data, pos)
            end = pos + length
            if end > total:
                raise TableError("truncated record-io record")
            values: list = [None] * n_fields
            while pos < end:
                tag, pos = decode_varint(data, pos)
                field_number = tag >> 3
                wire_type = tag & 0b111
                if not 1 <= field_number <= n_fields:
                    raise TableError(
                        f"record-io field number {field_number} out of range"
                    )
                if wire_type == _WIRE_VARINT:
                    value, pos = decode_zigzag(data, pos)
                elif wire_type == _WIRE_FIXED64:
                    (value,) = struct.unpack_from("<d", data, pos)
                    pos += 8
                elif wire_type == _WIRE_BYTES:
                    size, pos = decode_varint(data, pos)
                    value = data[pos : pos + size].decode("utf-8")
                    pos += size
                else:
                    raise TableError(f"unknown wire type {wire_type}")
                values[field_number - 1] = value
            count += 1
            yield tuple(values)
        self._n_rows = count

    def memory_bytes(self, query: Query) -> int:
        return os.path.getsize(self._path)

    def rows_total(self) -> int:
        if self._n_rows is None:
            self._n_rows = sum(1 for __ in self.scan_rows(None))
        return self._n_rows
