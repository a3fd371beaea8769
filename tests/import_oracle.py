"""The import pipeline as it was before it was vectorised, and before it ran on codes.

Kept, bodies unchanged, as the byte-identity oracle of
``tests/test_import_equivalence.py``: :func:`build_reference_store`
mirrors the original ``DataStore.from_table`` step for step — scalar
``factorize`` per field over the cell lists (:func:`factorize_scalar`,
run again after the reorder, as the old code did), ``Table.take`` of
the cells, the
per-string-insert trie builder (:func:`reference_trie_bytes`), the
partitioner that splits row-index
arrays with one ``np.unique`` of the chunk's rows per field per split
(:func:`reference_partition_table`) and the ``np.unique`` chunk encode
(:func:`reference_column_chunk`), both as they stood in ``src/`` before
the write path counted instead of sorting. ``DataStore.from_table``
must serialise to exactly the same PDS2 stream, whichever form its
columns come in. :func:`build_dictionary` builds a column's dictionary
straight from its raw values, as the import once did; the dictionary
tests build theirs with it.
"""

from __future__ import annotations

import heapq
import os
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.datastore import DataStore, DataStoreOptions, FieldStore
from repro.core.table import Table
from repro.errors import PartitionError
from repro.partition.codes import _factorize_scalar_list
from repro.partition.composite import PartitionSpec
from repro.storage.chunk import ColumnChunk
from repro.storage.dictionary import (
    Dictionary,
    NumericDictionary,
    SortedStringDictionary,
    SortedTupleDictionary,
)
from repro.storage.elements import encode_elements
from repro.storage.serde import save_store
from repro.compress.varint import encode_varint
from repro.errors import DictionaryError
from repro.storage.trie import _HAS_SKIP, _TERMINAL, TrieDictionary, _nibbles


def factorize_scalar(column) -> tuple[np.ndarray, list[Any]]:
    """The column factorize as it was before it was vectorised."""
    return _factorize_scalar_list(column.values)


def _sorted_distinct(values: Iterable[Any]) -> tuple[list[Any], bool]:
    """Distinct non-null values in sorted order, plus a null flag."""
    distinct = set(values)
    has_null = None in distinct
    distinct.discard(None)
    if not distinct:
        return [], has_null
    kinds = {type(v) for v in distinct}
    if kinds <= {int, float} or kinds <= {bool}:
        return sorted(distinct), has_null
    if kinds == {str}:
        return sorted(distinct), has_null
    raise DictionaryError(
        f"column mixes incompatible types: {sorted(k.__name__ for k in kinds)}"
    )


def build_dictionary(values: Iterable[Any], optimized: bool = False) -> Dictionary:
    """Build the right dictionary for a column of raw values.

    ``optimized=False`` yields the "canonical" encodings of Section 2.3
    (sorted string array / plain 8-byte numerics). ``optimized=True``
    yields the Section 3 *OptDicts* encodings: the nibble trie for
    strings and offset-packed numerics.
    """
    distinct, has_null = _sorted_distinct(values)
    if distinct and isinstance(distinct[0], str):
        if optimized:
            return TrieDictionary.from_sorted(distinct, has_null=has_null)
        return SortedStringDictionary(distinct, has_null=has_null)
    if distinct and any(isinstance(v, float) for v in distinct):
        array = np.asarray(distinct, dtype=np.float64)
    else:
        array = np.asarray(distinct, dtype=np.int64)
    return NumericDictionary(array, has_null=has_null, optimized=optimized)


class _BuildNode:
    """Transient trie node used only during construction."""

    __slots__ = ("children", "terminal", "count", "skip")

    def __init__(self) -> None:
        self.children: dict[int, _BuildNode] = {}
        self.terminal = False
        self.count = 0
        self.skip: list[int] = []


def _pack_nibbles(nibbles: list[int]) -> bytes:
    """Pack nibbles two per byte (high first), zero-padding the tail."""
    out = bytearray()
    for i in range(0, len(nibbles), 2):
        high = nibbles[i]
        low = nibbles[i + 1] if i + 1 < len(nibbles) else 0
        out.append((high << 4) | low)
    return bytes(out)


def _build(values: list[str]) -> _BuildNode:
    root = _BuildNode()
    for value in values:
        node = root
        for nibble in _nibbles(value):
            child = node.children.get(nibble)
            if child is None:
                child = _BuildNode()
                node.children[nibble] = child
            node = child
        if node.terminal:
            raise DictionaryError(f"duplicate dictionary value {value!r}")
        node.terminal = True
    _compress(root)
    _finish(root)
    return root


def _compress(node: _BuildNode) -> None:
    """Collapse single-child non-terminal chains into skip sequences."""
    for nibble, child in list(node.children.items()):
        # Walk the maximal chain below this edge.
        skip: list[int] = []
        current = child
        while (
            not current.terminal
            and len(current.children) == 1
            and not current.skip
        ):
            (next_nibble, next_child), = current.children.items()
            skip.append(next_nibble)
            current = next_child
        if skip:
            current.skip = skip
            node.children[nibble] = current
        _compress(current)


def _finish(node: _BuildNode) -> int:
    count = 1 if node.terminal else 0
    for child in node.children.values():
        count += _finish(child)
    node.count = count
    return count


def _serialize(node: _BuildNode, out: bytearray) -> None:
    flags = (_TERMINAL if node.terminal else 0) | (
        _HAS_SKIP if node.skip else 0
    )
    out.append(flags)
    if node.skip:
        out += encode_varint(len(node.skip))
        out += _pack_nibbles(node.skip)
    mask = 0
    for nibble in node.children:
        mask |= 1 << nibble
    out += mask.to_bytes(2, "little")
    out += encode_varint(node.count)
    for nibble in sorted(node.children):
        child_bytes = bytearray()
        _serialize(node.children[nibble], child_bytes)
        out += encode_varint(len(child_bytes))
        out += child_bytes


def reference_trie_bytes(values: list[str]) -> bytes:
    """The trie of ``values`` by one insert per string, then compress and serialize.

    The equivalence oracle of ``repro.storage.trie._trie_bytes``.
    """
    out = bytearray()
    _serialize(_build(values), out)
    return bytes(out)


def _reference_dictionary(ordered: list[Any], optimized: bool) -> Dictionary:
    """``_dictionary_from_ordered`` with the pre-change trie builder."""
    has_null = bool(ordered) and ordered[0] is None
    non_null = ordered[1:] if has_null else list(ordered)
    if non_null and isinstance(non_null[0], str):
        if optimized:
            return TrieDictionary(
                reference_trie_bytes(non_null), len(non_null), has_null=has_null
            )
        return SortedStringDictionary(non_null, has_null=has_null)
    if non_null and isinstance(non_null[0], tuple):
        return SortedTupleDictionary(non_null, has_null=has_null)
    if non_null and any(isinstance(v, float) for v in non_null):
        array = np.asarray(non_null, dtype=np.float64)
    else:
        array = np.asarray(non_null, dtype=np.int64)
    return NumericDictionary(array, has_null=has_null, optimized=optimized)


@dataclass(order=True)
class _HeapChunk:
    """Heap entry: heaviest chunk first (negated size), FIFO tie-break."""

    neg_size: int
    tick: int
    rows: np.ndarray = field(compare=False)


def _range_split(
    codes: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Split ``rows`` on the value ranges of one field's codes.

    Picks the cut between distinct values that best balances the two
    sides. Returns None when the field has fewer than two distinct
    values among these rows.
    """
    chunk_codes = codes[rows]
    distinct, counts = np.unique(chunk_codes, return_counts=True)
    if distinct.size < 2:
        return None
    cumulative = np.cumsum(counts)
    total = cumulative[-1]
    # Cut after distinct[k]: left gets cumulative[k] rows. Choose the k
    # (excluding the last, which would be a no-op) closest to half.
    imbalance = np.abs(cumulative[:-1] - total / 2.0)
    k = int(np.argmin(imbalance))
    boundary = distinct[k]
    left_mask = chunk_codes <= boundary
    return rows[left_mask], rows[~left_mask]


def reference_partition_table(
    table: Table, spec: PartitionSpec, field_codes: list[np.ndarray]
) -> list[np.ndarray]:
    """``partition_table`` as it split rows, not a histogram."""
    all_rows = np.arange(table.n_rows, dtype=np.int64)
    if table.n_rows <= spec.max_chunk_rows:
        return [all_rows]

    tick = 0
    heap = [_HeapChunk(-table.n_rows, tick, all_rows)]
    done: list[np.ndarray] = []
    while heap:
        entry = heapq.heappop(heap)
        rows = entry.rows
        if rows.size <= spec.max_chunk_rows:
            done.append(rows)
            continue
        split = None
        for codes in field_codes:
            split = _range_split(codes, rows)
            if split is not None:
                break
        if split is None:
            # No field can distinguish these rows; keep as one chunk.
            done.append(rows)
            continue
        left, right = split
        for part in (left, right):
            tick += 1
            heapq.heappush(heap, _HeapChunk(-part.size, tick, part))
    # Stable order: by first row index, so chunk order tracks table order.
    done.sort(key=lambda chunk_rows: int(chunk_rows[0]) if chunk_rows.size else -1)
    return done


def reference_column_chunk(
    global_ids: np.ndarray, optimized: bool = True
) -> ColumnChunk:
    """``ColumnChunk.from_global_ids`` when ``np.unique`` was the only encode."""
    array = np.asarray(global_ids, dtype=np.uint32)
    chunk_dict, chunk_ids = np.unique(array, return_inverse=True)
    elements = encode_elements(
        chunk_ids.astype(np.uint32), int(chunk_dict.size), optimized=optimized
    )
    return ColumnChunk(chunk_dict, elements)


def build_reference_store(
    table: Table, options: DataStoreOptions | None = None
) -> DataStore:
    """Import ``table`` with the pre-vectorization scalar pipeline."""
    options = options or DataStoreOptions()
    partition_fields = (
        list(options.partition_fields) if options.partition_fields else []
    )
    for name in partition_fields:
        if name not in table:
            label = "reorder" if options.reorder_rows else "partition"
            raise PartitionError(f"{label} field {name!r} not in table")
    if partition_fields and options.reorder_rows:
        code_arrays = [
            factorize_scalar(table.column(name))[0] for name in partition_fields
        ]
        order = np.lexsort(tuple(reversed(code_arrays)))
        table = table.take(order)
    if partition_fields:
        spec = PartitionSpec(
            tuple(options.partition_fields), options.max_chunk_rows
        )
        chunk_rows = reference_partition_table(
            table,
            spec,
            field_codes=[
                factorize_scalar(table.column(name))[0] for name in spec.fields
            ],
        )
    else:
        chunk_rows = [np.arange(table.n_rows, dtype=np.int64)]
    fields: dict[str, FieldStore] = {}
    for name in table.field_names:
        codes, ordered = factorize_scalar(table.column(name))
        dictionary = _reference_dictionary(ordered, options.optimized_dicts)
        chunks = [
            reference_column_chunk(
                codes[rows], optimized=options.optimized_columns
            )
            for rows in chunk_rows
        ]
        fields[name] = FieldStore(name, dictionary, chunks)
    return DataStore(
        options,
        table.n_rows,
        [int(rows.size) for rows in chunk_rows],
        fields,
    )


def serialized_store_bytes(store: DataStore) -> bytes:
    """The exact PDS2 byte stream ``save_store`` would write."""
    with tempfile.TemporaryDirectory(prefix="repro-test-") as tmp:
        path = os.path.join(tmp, "store.pds")
        save_store(store, path)
        with open(path, "rb") as handle:
            return handle.read()
