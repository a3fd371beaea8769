"""column-io: the Dremel-stand-in columnar streaming backend.

Dremel's key properties relative to the paper's store are: (a) data is
laid out per column, so a query only reads the columns it references,
(b) columns are generically compressed, and (c) every query is a full
scan that must decode the data before use — there are no ready-to-use
in-memory dictionaries and no partitioning to skip chunks.

File layout::

    magic 'CIO1'
    varint(header_len) header-JSON
    column blocks (concatenated)

Each column is split into blocks of ``block_rows`` rows. A block stores
a NULL bitmap followed by the non-null values (varint-length strings /
zigzag varint ints / raw 8-byte doubles), compressed with a registry
codec. The header records per-column block offsets so a scan touches
only the referenced columns — ``memory_bytes`` reports exactly those
columns' compressed bytes, which is how the paper accounts Dremel's
memory in Table 1.

The header (version 2) records a codec *per column*, so
``codec="auto"`` can let the encoding advisor
(:mod:`repro.compress.advisor`) pick a different pipeline for each
column — the chosen name plus the advisor's ``codec_choice`` record
land in that column's header entry. Any other header version —
including the file-wide-codec layout no writer here produces — is
rejected with :class:`~repro.errors.TableError`.

INT and FLOAT block bodies are encoded and decoded with the bulk
varint/zigzag kernels of :mod:`repro.compress.varint` (PR 5) — one
vectorized pass per block instead of one ``decode_zigzag`` call per
cell; STRING blocks keep the scalar walk because each value's length
prefix feeds the next read position.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator

import numpy as np

from repro.compress.advisor import (
    AdvisorConfig,
    choose_codec,
    profile_values,
    sample_window,
)
from repro.compress.registry import get_codec
from repro.compress.varint import (
    decode_varint,
    decode_zigzag_stream,
    encode_varint,
    encode_zigzag,
    encode_zigzag_array,
)
from repro.core.table import DataType, Schema, Table
from repro.errors import TableError
from repro.formats.backend import Backend
from repro.sql.ast_nodes import Query, referenced_fields
from repro.storage.bitset import BitSet

_MAGIC = b"CIO1"
_DEFAULT_BLOCK_ROWS = 8192


def _encode_block(values: list, dtype: DataType) -> bytes:
    n = len(values)
    bitmap = BitSet(n)
    non_null = []
    for index, value in enumerate(values):
        if value is None:
            continue
        bitmap.set(index)
        non_null.append(value)
    head = encode_varint(n) + bitmap.to_bytes()
    if dtype is DataType.INT:
        try:
            arr = np.asarray([int(v) for v in non_null], dtype=np.int64)
        except OverflowError:
            # Ints beyond int64: the scalar encoder handles any width.
            body = bytearray()
            for value in non_null:
                body += encode_zigzag(int(value))
            return head + bytes(body)
        return head + encode_zigzag_array(arr)
    if dtype is not DataType.STRING:
        packed = np.asarray([float(v) for v in non_null], dtype="<f8")
        return head + packed.tobytes()
    body = bytearray()
    for value in non_null:
        raw = value.encode("utf-8")
        body += encode_varint(len(raw))
        body += raw
    return head + bytes(body)


def _decode_block(data: bytes, dtype: DataType) -> list:
    n, pos = decode_varint(data, 0)
    bitmap_bytes = (n + 7) // 8
    bitmap = BitSet.from_bytes(data[pos : pos + bitmap_bytes], n)
    pos += bitmap_bytes
    present = bitmap.to_numpy().view(bool)  # 0/1 uint8 -> boolean mask
    count = int(np.count_nonzero(present))
    slots = np.full(n, None, dtype=object)
    if dtype is DataType.INT:
        decoded, pos = decode_zigzag_stream(data, count, pos)
        # Assign via list so slots hold Python ints, not np.int64.
        slots[present] = decoded.tolist()
        return slots.tolist()
    if dtype is not DataType.STRING:
        packed = np.frombuffer(data, dtype="<f8", count=count, offset=pos)
        slots[present] = packed.tolist()
        return slots.tolist()
    values: list = [None] * n
    for index in np.flatnonzero(present).tolist():
        size, pos = decode_varint(data, pos)
        values[index] = data[pos : pos + size].decode("utf-8")
        pos += size
    return values


def write_columnio(
    table: Table,
    path: str,
    codec: str = "zippy",
    block_rows: int = _DEFAULT_BLOCK_ROWS,
    advisor_config: AdvisorConfig | None = None,
) -> int:
    """Write ``table`` to ``path``; returns the file size in bytes.

    ``codec`` is either a registry codec name (applied to every
    column) or ``"auto"``, which runs the encoding advisor per column
    and records each choice in the version-2 header.
    """
    config = advisor_config if advisor_config is not None else AdvisorConfig()
    if codec != "auto":
        get_codec(codec)  # fail on unknown names before writing anything
    columns_meta = []
    blob = bytearray()
    for name in table.field_names:
        column = table.column(name)
        raw_blocks = []
        for start in range(0, max(table.n_rows, 1), block_rows):
            values = column.values[start : start + block_rows]
            if not values and table.n_rows:
                break
            raw_blocks.append(_encode_block(values, column.dtype))
        choice_meta = None
        if codec == "auto":
            profile = profile_values(column.values, config)
            sample = sample_window(b"".join(raw_blocks), config)
            choice = choose_codec(sample, config, profile=profile)
            column_codec = choice.codec
            choice_meta = choice.as_dict()
            choice_meta.pop("scores", None)  # too bulky for a file header
        else:
            column_codec = codec
        compressor = get_codec(column_codec)
        blocks = []
        raw_total = 0
        compressed_total = 0
        for raw in raw_blocks:
            compressed = compressor.compress(raw)
            blocks.append({"offset": len(blob), "size": len(compressed)})
            blob += compressed
            raw_total += len(raw)
            compressed_total += len(compressed)
        meta = {
            "name": name,
            "dtype": column.dtype.value,
            "codec": column_codec,
            "blocks": blocks,
        }
        if choice_meta is not None:
            choice_meta["actual_ratio"] = (
                raw_total / compressed_total if compressed_total else 0.0
            )
            meta["codec_choice"] = choice_meta
        columns_meta.append(meta)
    header = json.dumps(
        {
            "version": 2,
            "n_rows": table.n_rows,
            "block_rows": block_rows,
            "columns": columns_meta,
        }
    ).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(encode_varint(len(header)))
        handle.write(header)
        handle.write(bytes(blob))
    return os.path.getsize(path)


def read_columnio(path: str) -> Table:
    """Load a column-io file back into a Table."""
    backend = ColumnIoBackend(path)
    schema = backend.schema
    columns = {
        name: backend.read_column(name) for name in schema.field_names
    }
    return Table.from_columns(columns, schema=schema)


class ColumnIoBackend(Backend):
    """Full-scan SQL over a column-io file, reading only used columns."""

    name = "column-io"

    def __init__(self, path: str, table_name: str = "data") -> None:
        super().__init__(table_name)
        self._path = path
        with open(path, "rb") as handle:
            magic = handle.read(4)
            if magic != _MAGIC:
                raise TableError(f"not a column-io file: magic {magic!r}")
            prefix = handle.read(10)
            header_len, header_start = decode_varint(prefix, 0)
            handle.seek(4 + header_start)
            header = json.loads(handle.read(header_len).decode("utf-8"))
            self._data_start = 4 + header_start + header_len
        self._n_rows = header["n_rows"]
        version = header.get("version", 1)
        if version != 2:
            raise TableError(
                f"unsupported column-io header version {version} in {path}"
            )
        self._columns = {c["name"]: c for c in header["columns"]}
        self._order = [c["name"] for c in header["columns"]]
        self._codecs = {
            name: get_codec(meta["codec"])
            for name, meta in self._columns.items()
        }

    @property
    def schema(self) -> Schema:
        return Schema(
            [
                (name, DataType(self._columns[name]["dtype"]))
                for name in self._order
            ]
        )

    # -- column access -------------------------------------------------------
    def read_column(self, name: str) -> list:
        """Decode one full column (all blocks)."""
        try:
            meta = self._columns[name]
        except KeyError:
            raise TableError(f"no column {name!r} in {self._path}") from None
        dtype = DataType(meta["dtype"])
        codec = self._codecs[name]
        values: list = []
        with open(self._path, "rb") as handle:
            for block in meta["blocks"]:
                handle.seek(self._data_start + block["offset"])
                raw = codec.decompress(handle.read(block["size"]))
                values.extend(_decode_block(raw, dtype))
        return values

    def column_compressed_bytes(self, name: str) -> int:
        """Compressed on-disk footprint of one column."""
        return sum(block["size"] for block in self._columns[name]["blocks"])

    def column_codec(self, name: str) -> str:
        """The codec name this file's header records for ``name``."""
        try:
            return self._columns[name]["codec"]
        except KeyError:
            raise TableError(f"no column {name!r} in {self._path}") from None

    def _referenced_columns(self, query: Query | None) -> list[str]:
        if query is None:
            return list(self._order)
        names: set[str] = set()
        for item in query.select:
            # referenced_fields walks into aggregate arguments too.
            names |= referenced_fields(item.expr)
        if query.where is not None:
            names |= referenced_fields(query.where)
        for expr in query.group_by:
            names |= referenced_fields(expr)
        if query.having is not None:
            names |= referenced_fields(query.having)
        for item in query.order_by:
            names |= referenced_fields(item.expr)
        return [name for name in self._order if name in names]

    # -- Backend contract --------------------------------------------------------
    def scan_rows(self, query: Query | None) -> Iterator[tuple]:
        referenced = self._referenced_columns(query)
        decoded = {name: self.read_column(name) for name in referenced}
        for row_index in range(self._n_rows):
            yield tuple(
                decoded[name][row_index] if name in decoded else None
                for name in self._order
            )

    def memory_bytes(self, query: Query) -> int:
        return sum(
            self.column_compressed_bytes(name)
            for name in self._referenced_columns(query)
        )

    def rows_total(self) -> int:
        return self._n_rows
