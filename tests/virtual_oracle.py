"""Virtual-field materialisation as it was before it took the import's path.

Kept, bodies unchanged, as the byte-identity oracle of
``tests/test_virtual_equivalence.py``: :class:`ReferenceVirtualStore`
carries the four materialisers ``DataStore`` once had — a constant, a
scalar ``evaluate`` per dictionary value of one field, a per-row loop
over a tuple-keyed dict for several fields, and ``np.unique(axis=0)``
plus a ``Dictionary.value`` per global-id for a composite — each with its
own per-chunk ``ColumnChunk.from_global_ids`` loop. The edits are
``factorize_values``, a one-line alias of ``factorize_list``, spelled
as what it called, ``_coerce`` (the datastore's bool -> int, which it no
longer calls per value), moved here unchanged, and the glue: ``DataStore._ensure`` looks specs up
in the catalog and names and adds the field, so ``_materialize`` only
dispatches and ``_register_virtual`` hands back what was built.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.datastore import DataStore, _dictionary_from_ordered
from repro.core.expr_eval import evaluate
from repro.errors import UnsupportedQueryError
from repro.partition.codes import factorize_list
from repro.sql.ast_nodes import (
    Aggregate,
    Expr,
    Literal,
    Star,
    referenced_fields,
    walk,
)
from repro.storage.chunk import ColumnChunk
from repro.storage.dictionary import Dictionary, SortedTupleDictionary


def _coerce(value: Any) -> Any:
    """Normalize evaluator outputs into storable dictionary values."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def reference_store(store: DataStore) -> "ReferenceVirtualStore":
    """A store over the same original fields that materialises the old way."""
    return ReferenceVirtualStore(
        store.options,
        store.n_rows,
        list(store.chunk_row_counts),
        {name: field for name, field in store.fields.items() if not field.virtual},
    )


class ReferenceVirtualStore(DataStore):
    """``DataStore`` with the four materialisers of before."""

    def _materialize(self, spec: tuple) -> tuple[Dictionary, list[ColumnChunk]]:
        kind, definition = spec
        if kind == "composite":
            return self._ensure_composite_locked(
                [self._ensure(member) for member in definition]
            )
        expr = definition.expr
        if isinstance(expr, Literal):
            return self._materialize_constant(expr)
        for node in walk(expr):
            if isinstance(node, (Aggregate, Star)):
                raise UnsupportedQueryError(
                    f"cannot materialize aggregate expression {definition}"
                )
        refs = sorted(referenced_fields(expr))
        for ref in refs:
            self._ensure(("field", ref))
        if not refs:
            return self._materialize_constant(expr)
        if len(refs) == 1:
            return self._materialize_single(expr, refs[0])
        return self._materialize_multi(expr, refs)

    def _register_virtual(
        self, dictionary: Dictionary, chunks: list[ColumnChunk]
    ) -> tuple[Dictionary, list[ColumnChunk]]:
        return dictionary, chunks

    def _materialize_constant(
        self, expr: Expr
    ) -> tuple[Dictionary, list[ColumnChunk]]:
        value = _coerce(evaluate(expr, lambda n: None))
        ordered = [value]
        dictionary = _dictionary_from_ordered(
            ordered, self.options.optimized_dicts
        )
        chunks = [
            ColumnChunk.from_global_ids(
                np.zeros(count, dtype=np.uint32),
                optimized=self.options.optimized_columns,
            )
            for count in self.chunk_row_counts
        ]
        return self._register_virtual(dictionary, chunks)

    def _materialize_single(
        self, expr: Expr, ref: str
    ) -> tuple[Dictionary, list[ColumnChunk]]:
        """Materialize an expression over one field.

        Computed once per *distinct value* of the input field — the
        reason Query 2's ``date(timestamp)`` is nearly free here.
        """
        source = self.field(ref)
        results = [
            _coerce(evaluate(expr, lambda __, v=value: v))
            for value in source.dictionary.values()
        ]
        codes, ordered = factorize_list(results)
        dictionary = _dictionary_from_ordered(ordered, self.options.optimized_dicts)
        chunks = [
            ColumnChunk.from_global_ids(
                codes[source.row_global_ids(i)].astype(np.uint32),
                optimized=self.options.optimized_columns,
            )
            for i in range(self.n_chunks)
        ]
        return self._register_virtual(dictionary, chunks)

    def _materialize_multi(
        self, expr: Expr, refs: list[str]
    ) -> tuple[Dictionary, list[ColumnChunk]]:
        """Materialize a multi-field expression (cached per gid tuple)."""
        sources = [self.field(ref) for ref in refs]
        value_arrays = [source.value_array() for source in sources]
        cache: dict[tuple[int, ...], Any] = {}
        per_chunk_results: list[list[Any]] = []
        for chunk_index in range(self.n_chunks):
            gid_arrays = [
                source.row_global_ids(chunk_index) for source in sources
            ]
            n = self.chunk_row_counts[chunk_index]
            out: list[Any] = [None] * n
            for row in range(n):
                key = tuple(int(g[row]) for g in gid_arrays)
                if key in cache:
                    out[row] = cache[key]
                else:
                    env = {
                        ref: value_arrays[j][key[j]]
                        for j, ref in enumerate(refs)
                    }
                    result = _coerce(evaluate(expr, env.__getitem__))
                    cache[key] = result
                    out[row] = result
            per_chunk_results.append(out)
        flat: list[Any] = [r for chunk in per_chunk_results for r in chunk]
        codes, ordered = factorize_list(flat)
        dictionary = _dictionary_from_ordered(ordered, self.options.optimized_dicts)
        chunks = []
        offset = 0
        for count in self.chunk_row_counts:
            chunk_codes = codes[offset : offset + count].astype(np.uint32)
            offset += count
            chunks.append(
                ColumnChunk.from_global_ids(
                    chunk_codes, optimized=self.options.optimized_columns
                )
            )
        return self._register_virtual(dictionary, chunks)

    def _ensure_composite_locked(
        self, member_names: list[str]
    ) -> tuple[Dictionary, list[ColumnChunk]]:
        members = [self.field(name) for name in member_names]
        stacked = np.concatenate(
            [
                np.stack(
                    [m.row_global_ids(i) for m in members],
                    axis=1,
                )
                for i in range(self.n_chunks)
            ]
        )
        unique_rows, inverse = np.unique(stacked, axis=0, return_inverse=True)
        values = [
            tuple(
                member.dictionary.value(int(gid))
                for member, gid in zip(members, row)
            )
            for row in unique_rows
        ]
        dictionary = SortedTupleDictionary(values, has_null=False)
        chunks = []
        offset = 0
        for count in self.chunk_row_counts:
            chunk_codes = inverse[offset : offset + count].astype(np.uint32)
            offset += count
            chunks.append(
                ColumnChunk.from_global_ids(
                    chunk_codes, optimized=self.options.optimized_columns
                )
            )
        return self._register_virtual(dictionary, chunks)
