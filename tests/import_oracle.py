"""The import pipeline as it was before it was vectorised, and before it ran on codes.

Kept, bodies unchanged, as the byte-identity oracle of
``tests/test_import_equivalence.py``: :func:`build_reference_store`
mirrors the original ``DataStore.from_table`` step for step — scalar
``factorize`` per field over the cell lists (run again after the
reorder, as the old code did), ``Table.take`` of the cells, the
per-string-insert trie builder. ``DataStore.from_table`` must serialise
to exactly the same PDS2 stream, whichever form its columns come in.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any

import numpy as np

from repro.core.datastore import DataStore, DataStoreOptions, FieldStore
from repro.core.table import Table
from repro.errors import PartitionError
from repro.partition.codes import factorize_scalar
from repro.partition.composite import PartitionSpec, partition_table
from repro.storage.chunk import ColumnChunk
from repro.storage.dictionary import (
    Dictionary,
    NumericDictionary,
    SortedStringDictionary,
    SortedTupleDictionary,
)
from repro.storage.serde import save_store
from repro.storage.trie import TrieDictionary, reference_trie_bytes


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
        chunk_rows = partition_table(
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
            ColumnChunk.from_global_ids(
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
