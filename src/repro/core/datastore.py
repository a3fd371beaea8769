"""The PowerDrill datastore: import, virtual fields, query execution.

This is the paper's central artifact. A :class:`DataStore` is built
from a :class:`~repro.core.table.Table` in an import phase that

1. optionally *reorders* rows lexicographically by the partition fields
   (Section 3 "Reordering Rows"),
2. *partitions* them with composite range partitioning (Section 2.2),
3. encodes every column with the *double dictionary* layout of
   Section 2.3: one global dictionary per column, and per chunk a
   chunk-dictionary plus an elements array, with the Section 3
   optimized encodings when enabled.

Queries execute per Section 2.4: restriction analysis decides which
chunks are active (skipped / fully active / partially active), fully
active chunks can be served from the chunk-result cache (Section 6),
and scanned chunks run the vectorized ``counts[elements[row]]++``
group-by loop of :mod:`repro.core.engine`.

Expressions are never evaluated per-row at query time: any non-field
scalar expression is *materialized once* as a virtual field stored in
the same format as original columns (Section 5 "Complex Expressions"),
after which restrictions on it can skip chunks like any other field.
"""

from __future__ import annotations

import copy
import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.compress.advisor import (
    AdvisorConfig,
    choose_codec,
    profile_values,
    sample_window,
)
from repro.compress.registry import get_codec
from repro.core.engine import (
    ColumnarAggregator,
    CountDistinctAggregator,
    PresenceAggregator,
    RunGroups,
    _ExtremeAggregator,
    _PairAggregator,
    as_run_partial,
    build_aggregator,
    in_chunk_order,
)
from repro.core.executor import ExecutionStrategy, make_executor
from repro.core.expr_eval import (
    Vector,
    as_list,
    evaluate,
    evaluate_array,
    to_vector,
)
from repro.core.plan import GroupPlan, is_aggregation_query, plan_group_query
from repro.core.plan import query_fingerprint
from repro.core.plan import resolve_group_aliases
from repro.core.restriction import FULL, Restriction, compile_restriction, pick
from repro.core.result import QueryResult, ScanStats, finalize, resolve_output_expr
from repro.core.table import Column, Table
from repro.errors import (
    BindError,
    ChunkUnavailableError,
    ExecutionError,
    PartitionError,
    UnsupportedQueryError,
)
from repro.partition.codes import (
    depends_on_row_order,
    distinct_tuples,
    factorize,
    factorize_list,
)
from repro.partition.composite import PartitionSpec, partition_table
from repro.partition.reorder import order_from_codes, reorder_table
from repro.sketches.hashing import hash_units
from repro.sql.ast_nodes import (
    Aggregate,
    Expr,
    FieldRef,
    Query,
    Star,
    referenced_fields,
    walk,
)
from repro.monitoring import counters
from repro.sql.parser import parse_query
from repro.storage.cache import Cache, CacheStats, LruCache, make_cache
from repro.storage.chunk import ChunkDictIndex, ColumnChunk, encode_column_chunks
from repro.storage.dictionary import (
    Dictionary,
    NumericDictionary,
    SortedStringDictionary,
    SortedTupleDictionary,
)
from repro.storage.trie import TrieDictionary


@dataclass(frozen=True)
class DataStoreOptions:
    """Import/runtime knobs, mirroring the paper's optimization steps.

    The ablation benches toggle these to reproduce the Section 3
    tables: ``Basic`` = no partitioning, no optimized encodings;
    ``Chunks`` adds partitioning; ``OptCols`` adds element encodings;
    ``OptDicts`` adds trie/packed dictionaries; ``Reorder`` adds the
    lexicographic row reorder.
    """

    table_name: str = "data"
    partition_fields: tuple[str, ...] | None = None
    max_chunk_rows: int = 50_000
    reorder_rows: bool = False
    optimized_columns: bool = True
    optimized_dicts: bool = True
    cache_chunk_results: bool = True
    # Runtime knobs, down to ``degrade``: the chunk loop's fan-out, the
    # result cache's bound, whether a lost chunk fails the query. Store
    # files do not record them (see repro.storage.serde.options_to_dict),
    # so a loaded store starts with these defaults and configure_runtime.
    executor: str = "serial"
    workers: int | None = None
    # Cap on the auto-detected worker count (None = use every core).
    max_workers: int | None = None
    cache_policy: str = "lru"
    cache_capacity_bytes: float = 64 * 1024 * 1024
    # Graceful degradation (the paper's partial-result contract): when
    # True, chunks lost to worker death after the retry budget shrink
    # row_coverage instead of failing the query; strict mode raises
    # ChunkUnavailableError.
    degrade: bool = True
    # Encoding-advisor knobs (see repro.compress.advisor). codec=None
    # keeps the legacy PDS2 field sections byte-identical to older
    # stores; "auto" lets the advisor pick per field; any registered
    # codec name forces that codec for every field.
    codec: str | None = None
    advisor_mode: str = "stats"

    def __post_init__(self) -> None:
        # Build the advisor view eagerly: it validates its own knobs,
        # so bad values fail at option construction.
        if self.codec is not None and self.codec != "auto":
            get_codec(self.codec)  # unknown names raise CompressionError
        self.advisor_config()

    def advisor_config(self) -> AdvisorConfig:
        """The advisor-facing view of the encoding knobs."""
        return AdvisorConfig(mode=self.advisor_mode)


class FieldStore:
    """One column's storage: global dictionary + per-chunk data.

    ``dictionary`` and ``chunks`` are assigned once and never mutated;
    everything in ``_MEMO_ATTRS`` is derived from them on first use.
    Each memo fill is idempotent and published by a single attribute
    (or list-slot) assignment, so concurrent readers need no lock.
    """

    #: Lazily derived state: reset on construction / unpickle, dropped
    #: from pickles and deep copies, ignored by the test sanitizer
    #: (``tests/sanitizer.py``), never part of size_bytes().
    _MEMO_ATTRS = (
        "_value_array",
        "_entry_values",
        "_hash_units",
        "_chunk_dict_index",
        "_row_positions",
        "_size_bytes",
    )

    def __init__(
        self,
        name: str,
        dictionary: Dictionary,
        chunks: list[ColumnChunk],
        spec: tuple | None = None,
        chunk_dict_index: ChunkDictIndex | None = None,
    ) -> None:
        self.name = name
        self.dictionary = dictionary
        self.chunks = chunks
        # What the field is, whatever it is called: ``("field", column)``,
        # ``("expr", sql)`` or ``("composite", member specs)``. ``name`` is
        # a label picked in materialization order; the spec keys the
        # catalog and the chunk cache and crosses process boundaries.
        self.spec = spec or ("field", name)
        # Advisor verdict for this field's serialized section (None
        # means the legacy uncompressed framing). codec_choice keeps
        # the full CodecChoice record for describe/fsck surfacing.
        self.codec: str | None = None
        self.codec_choice: dict[str, Any] | None = None
        self._reset_memos()
        # A loader that decoded the chunk-dictionaries as one array has
        # the index already; anyone else leaves it to the first query.
        self._chunk_dict_index = chunk_dict_index

    def _reset_memos(self) -> None:
        self._value_array: np.ndarray | None = None
        self._entry_values: np.ndarray | None = None
        self._hash_units: np.ndarray | None = None
        self._chunk_dict_index: ChunkDictIndex | None = None
        self._row_positions: np.ndarray | None = None
        self._size_bytes: tuple[int, int, int] | None = None

    def __getstate__(self) -> dict:
        """Pickle / deep-copy the encoded data, never the derived memos."""
        state = dict(self.__dict__)
        for key in self._MEMO_ATTRS:
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_memos()

    @property
    def virtual(self) -> bool:
        """Derived from other fields, not imported."""
        return self.spec[0] != "field"

    # -- per-chunk row data -------------------------------------------------
    def row_global_ids(self, chunk_index: int) -> np.ndarray:
        """Per-row global-ids of one chunk, derived on every call."""
        return self.chunks[chunk_index].row_global_ids()

    def row_positions(self) -> np.ndarray:
        """Every row's CSR position, rows in chunk order (cached, read-only).

        ``elements[row] + chunk_dict_index().offsets[chunk]``: an index
        into the index's ``gids`` that names the row's chunk and chunk-id
        at once, so ``gids[positions]`` are the rows' global-ids and a
        run of chunks is a slice. What the kernels and the row masks read
        instead of one dense elements array per chunk.
        """
        positions = self._row_positions
        if positions is None:
            offsets = self.chunk_dict_index().offsets
            positions = np.empty(sum(c.n_rows for c in self.chunks), dtype=np.uint32)
            start = 0
            for chunk, offset in zip(self.chunks, offsets):
                stop = start + chunk.n_rows
                np.add(chunk.elements.as_array(), offset, out=positions[start:stop])
                start = stop
            positions.setflags(write=False)
            self._row_positions = positions
        return positions

    def chunk_dict_index(self) -> ChunkDictIndex:
        """Every chunk-dictionary of this field as one CSR column (cached).

        What restriction analysis classifies all chunks of a query
        through and the kernels key by; built the first time a query reads
        the field.
        """
        index = self._chunk_dict_index
        if index is None:
            index = ChunkDictIndex([chunk.chunk_dict for chunk in self.chunks])
            self._chunk_dict_index = index
        return index

    # -- dictionary-derived caches -------------------------------------------
    def value_array(self) -> np.ndarray:
        """All dictionary values as an object array indexed by gid."""
        if self._value_array is None:
            values, null = _dictionary_vector(self.dictionary)
            values = values.astype(object)
            values[null] = None
            self._value_array = values
        return self._value_array

    def numeric_values(self) -> np.ndarray:
        """Dictionary values as float64 (NaN for NULL), by global-id (not kept)."""
        values, null = _dictionary_vector(self.dictionary)
        if values.dtype.kind == "O":
            found = values[~null]
            if found.size:
                raise ExecutionError(
                    f"field {self.name!r} is not numeric "
                    f"(found {type(found[0]).__name__})"
                )
            values = np.zeros(values.size)
        values = values.astype(np.float64)
        values[null] = np.nan
        return values

    def entry_values(self) -> np.ndarray:
        """:meth:`numeric_values` of every CSR entry (cached), SUM/AVG's weights."""
        if self._entry_values is None:
            self._entry_values = self.numeric_values().take(self.chunk_dict_index().gids)
        return self._entry_values

    def hash_units(self) -> np.ndarray:
        """Per-gid value hashes in [0, 1), for KMV sketches."""
        if self._hash_units is None:
            self._hash_units = hash_units(self.dictionary.values())
        return self._hash_units

    # -- size accounting --------------------------------------------------------
    def _sizes(self) -> tuple[int, int, int]:
        """(dictionary, chunk-dictionaries, elements) encoded bytes (cached)."""
        sizes = self._size_bytes
        if sizes is None:
            sizes = self._size_bytes = (
                self.dictionary.size_bytes(),
                sum(chunk.dict_size_bytes() for chunk in self.chunks),
                sum(chunk.elements_size_bytes() for chunk in self.chunks),
            )
        return sizes

    def dictionary_size_bytes(self) -> int:
        return self._sizes()[0]

    def chunk_dicts_size_bytes(self) -> int:
        return self._sizes()[1]

    def elements_size_bytes(self) -> int:
        return self._sizes()[2]

    def size_bytes(self) -> int:
        """Total encoded footprint of this field."""
        return sum(self._sizes())


def _dictionary_vector(dictionary: Dictionary) -> Vector:
    """A dictionary by global-id as an ``evaluate_array`` column.

    Typed (int64 / float64) for a numeric dictionary, whose value array
    it is without a NULL (read-only, like every ``evaluate_array`` input),
    object otherwise; NULL is global-id 0 when the dictionary has it.
    """
    null = np.zeros(len(dictionary), dtype=bool)
    null[: int(dictionary.has_null)] = True
    if not isinstance(dictionary, NumericDictionary):
        return np.fromiter(dictionary.values(), dtype=object, count=len(null)), null
    if dictionary.has_null:
        return np.concatenate([[0], dictionary.raw_values()]), null
    return dictionary.raw_values(), null


def _coded(column: Column) -> Column:
    """``column`` as :func:`factorize` codes it."""
    return Column.from_codes(
        column.name, *factorize(column), column.dtype, validate=False
    )


def _dictionary_from_ordered(
    ordered: list[Any] | np.ndarray, optimized: bool, label: str = "a field"
) -> Dictionary:
    """Build a dictionary from sorted-distinct values (None first).

    ``label`` names the field in the error for ints beyond int64.
    """
    if isinstance(ordered, np.ndarray):  # typed, hence without NULL
        return NumericDictionary(ordered, has_null=False, optimized=optimized)
    has_null = bool(ordered) and ordered[0] is None
    non_null = ordered[1:] if has_null else list(ordered)
    if non_null and isinstance(non_null[0], str):
        if optimized:
            return TrieDictionary.from_sorted(non_null, has_null=has_null)
        return SortedStringDictionary(non_null, has_null=has_null)
    # Let numpy's single C pass infer int64 (all ints) vs float64 (any
    # float) instead of scanning isinstance per value; ints beyond
    # int64 come back as an object array and take the explicit-dtype
    # path, which rejects them.
    array = np.asarray(non_null) if non_null else np.empty(0, dtype=np.int64)
    if array.dtype not in (np.dtype(np.int64), np.dtype(np.float64)):
        if non_null and any(isinstance(v, float) for v in non_null):
            array = np.asarray(non_null, dtype=np.float64)
        else:
            try:
                array = np.asarray(non_null, dtype=np.int64)
            except OverflowError:
                types = sorted({type(v).__name__ for v in non_null})
                raise ExecutionError(
                    f"{label} has values of type {', '.join(types)} beyond int64"
                ) from None
    return NumericDictionary(array, has_null=has_null, optimized=optimized)


@dataclass
class ImportStats:
    """Per-phase measurements of one ``DataStore.from_table`` import.

    Timings are wall-clock seconds and exist for observability only —
    they never influence what gets built (measurement, not semantics).
    Sizes are the analytic encoded sizes the store reports elsewhere.
    The phases mirror the import pipeline: factorize (raw values ->
    codes + sorted distinct values), reorder (lexicographic row
    permutation), partition (composite range split), dictionary-build,
    and chunk-encode (chunk dicts + element arrays).
    """

    rows: int = 0
    columns: int = 0
    chunks: int = 0
    factorize_seconds: float = 0.0
    reorder_seconds: float = 0.0
    partition_seconds: float = 0.0
    dictionary_seconds: float = 0.0
    encode_seconds: float = 0.0
    advisor_seconds: float = 0.0
    total_seconds: float = 0.0
    dictionary_bytes: int = 0
    chunk_bytes: int = 0
    # Field name -> the advisor's CodecChoice record (plus the column
    # profile when the advisor ran in "auto" mode). Empty when the
    # import used the legacy codec-less framing.
    field_codecs: dict[str, Any] = field(default_factory=dict)

    def phase_seconds(self) -> dict[str, float]:
        """Phase name -> wall-clock seconds, in pipeline order."""
        return {
            "factorize": self.factorize_seconds,
            "reorder": self.reorder_seconds,
            "partition": self.partition_seconds,
            "dictionary": self.dictionary_seconds,
            "encode": self.encode_seconds,
            "advisor": self.advisor_seconds,
        }

    def rows_per_second(self) -> dict[str, float]:
        """Phase name -> rows/sec throughput (0.0 for unmeasured phases)."""
        out: dict[str, float] = {}
        for name, seconds in self.phase_seconds().items():
            out[name] = self.rows / seconds if seconds > 0 else 0.0
        out["total"] = self.rows / self.total_seconds if self.total_seconds > 0 else 0.0
        return out

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly view (CLI ``--output`` and the import bench)."""
        return {
            "rows": self.rows,
            "columns": self.columns,
            "chunks": self.chunks,
            "phase_seconds": self.phase_seconds(),
            "total_seconds": self.total_seconds,
            "dictionary_bytes": self.dictionary_bytes,
            "chunk_bytes": self.chunk_bytes,
            "rows_per_second": self.rows_per_second(),
            "field_codecs": dict(self.field_codecs),
        }

    def publish(self) -> None:
        """Publish this import's measurements as monitoring counters."""
        counters.increment("datastore.import.runs")
        counters.increment("datastore.import.rows", self.rows)
        counters.increment("datastore.import.chunks", self.chunks)
        for name, seconds in self.phase_seconds().items():
            counters.increment(
                f"datastore.import.{name}_micros", int(seconds * 1e6)
            )
        counters.increment(
            "datastore.import.total_micros", int(self.total_seconds * 1e6)
        )


class _ExprText(str):
    """An expression's rendered SQL, carrying the expression.

    The text is what an ``("expr", ...)`` spec compares and hashes by —
    never the AST, whose ``Literal(1) == Literal(1.0)``. The expression
    rides along so a worker that unpickles the spec can build the field.
    """

    def __new__(cls, expr: Expr) -> "_ExprText":
        text = super().__new__(cls, expr.sql())
        text.expr = expr
        return text

    def __reduce__(self) -> tuple:
        return _ExprText, (self.expr,)


#: The memo's bound: a ``drilldown`` cold replay's 396 texts, 55 pieces, 20 plans fit.
_MEMO_ENTRIES = 1024


@dataclass(frozen=True, eq=False)
class Prepared:
    """:meth:`DataStore.prepare`'s query, GROUP BY aliases resolved; with the
    chunk cache on, its WHERE rendered and a text's shape (its clause pieces
    but the WHERE) if parsed by piece; the service's fingerprint, lazily."""

    query: Query
    where_text: str | None = None
    shape: tuple[str, ...] | None = None

    @cached_property
    def fingerprint(self) -> str:
        return query_fingerprint(self.query)


class DataStore:
    """The column-store: holds encoded fields, answers SQL queries."""

    #: Per-process runtime state: built by :meth:`_build_runtime`,
    #: dropped by ``__getstate__``, never copied or pickled.
    _RUNTIME_ATTRS = (
        "executor",
        "_chunk_cache",
        "_memo",
        "_cache_lock",
        "_field_lock",
        "_arena",
        "_arena_handle",
    )

    def __init__(
        self,
        options: DataStoreOptions,
        n_rows: int,
        chunk_row_counts: list[int],
        fields: dict[str, FieldStore],
        import_stats: ImportStats | None = None,
    ) -> None:
        self.options = options
        self.n_rows = n_rows
        self.chunk_row_counts = chunk_row_counts
        # Where each chunk's rows start in chunk order, plus the end.
        self.row_starts = np.cumsum([0, *chunk_row_counts], dtype=np.int64)
        self.fields = fields
        self.import_stats = import_stats
        # The field catalog, spec -> name; the other way is FieldStore.spec.
        self._catalog = {store.spec: name for name, store in fields.items()}
        self._original_fields = [
            name for name, store in fields.items() if not store.virtual
        ]
        self._build_runtime()

    def _build_runtime(self, only: str | None = None) -> None:
        """Build the runtime state of ``_RUNTIME_ATTRS`` from the options.

        Called bare for a store new to this process (construction,
        unpickle, deep copy): everything is fresh and the cache empty.
        ``configure_runtime`` passes ``only="executor"`` or
        ``only="cache"`` to swap one object on a live store, whose
        locks and arena backing must survive.
        """
        if only is None:
            self._cache_lock = threading.Lock()
            # Serializes field materialization (``_ensure`` adds a field
            # and its catalog entry). Reentrant because a composite
            # ensures its member specs while holding it. A spec already
            # in the catalog takes no lock, so contention is
            # first-query-only.
            self._field_lock = threading.RLock()
            # Shared-memory/mmap arena backing (see
            # repro.storage.arena): set lazily when a process strategy
            # needs picklable tasks, or by an arena attach. The handle
            # is what pickles.
            self._arena: Any = None
            self._arena_handle: Any = None
        if only in (None, "executor"):
            self.executor: ExecutionStrategy = make_executor(
                self.options.executor,
                self.options.workers,
                self.options.max_workers,
            )
        if only in (None, "cache"):
            # Bounded, byte-weighted per-chunk result cache (Section
            # 6). get/put happen only on the merge thread, under
            # ``_cache_lock``; executor workers never touch it.
            self._chunk_cache: Cache = make_cache(
                self.options.cache_policy, self.options.cache_capacity_bytes
            )
            self._memo = LruCache(_MEMO_ENTRIES)  # see prepare and _plan

    # -- construction ------------------------------------------------------------
    @classmethod
    def from_table(
        cls, table: Table, options: DataStoreOptions | None = None
    ) -> "DataStore":
        """Run the import phase over ``table``.

        Every column is coded first — ``factorize``, once per field; a
        dictionary-coded column only drops the values no row uses — and
        from there on the pipeline sees codes alone: the lexicographic
        reorder permutes code arrays (codes are permutation-invariant
        ranks), the composite partitioner and the per-chunk encode read
        them. The one exception is a column whose dictionary keeps the
        first seen of cells that compare equal yet differ (``2`` and
        ``2.0``): the reorder factorizes it again, in its new row order.
        Per-phase wall-clock lands in the attached :class:`ImportStats`.
        """
        options = options or DataStoreOptions()
        stats = ImportStats(rows=table.n_rows, columns=len(table.field_names))
        total_started = time.perf_counter()
        partition_fields = (
            list(options.partition_fields) if options.partition_fields else []
        )
        label = "reorder" if options.reorder_rows else "partition"
        for name in partition_fields:
            if name not in table:
                raise PartitionError(f"{label} field {name!r} not in table")

        phase_started = time.perf_counter()
        source = table
        table = Table(
            [_coded(source.column(name)) for name in source.field_names]
        )
        stats.factorize_seconds += time.perf_counter() - phase_started

        phase_started = time.perf_counter()
        if partition_fields and options.reorder_rows:
            order = order_from_codes(
                [table.column(name).codes for name in partition_fields]
            )
            table = reorder_table(table, order)
            table = Table(
                [
                    _coded(source.column(name).take(order))
                    if depends_on_row_order(source.column(name))
                    else table.column(name)
                    for name in table.field_names
                ]
            )
        stats.reorder_seconds += time.perf_counter() - phase_started

        phase_started = time.perf_counter()
        if partition_fields:
            spec = PartitionSpec(
                tuple(options.partition_fields), options.max_chunk_rows
            )
            chunk_rows = partition_table(
                table,
                spec,
                field_codes=[table.column(name).codes for name in spec.fields],
            )
        else:
            chunk_rows = [np.arange(table.n_rows, dtype=np.int64)]
        # Rows in chunk order: every chunk is then a slice of a column.
        chunk_order = np.concatenate(chunk_rows)
        chunk_row_counts = [int(rows.size) for rows in chunk_rows]
        stats.partition_seconds += time.perf_counter() - phase_started

        fields: dict[str, FieldStore] = {}
        for name in table.field_names:
            column = table.column(name)
            phase_started = time.perf_counter()
            dictionary = _dictionary_from_ordered(
                column.distinct, options.optimized_dicts, f"field {name!r}"
            )
            stats.dictionary_seconds += time.perf_counter() - phase_started
            phase_started = time.perf_counter()
            chunks = encode_column_chunks(
                column.codes[chunk_order],
                chunk_row_counts,
                len(column.distinct),
                optimized=options.optimized_columns,
            )
            stats.encode_seconds += time.perf_counter() - phase_started
            stats.dictionary_bytes += dictionary.size_bytes()
            stats.chunk_bytes += sum(chunk.size_bytes() for chunk in chunks)
            fields[name] = FieldStore(name, dictionary, chunks)

        if options.codec is not None:
            phase_started = time.perf_counter()
            # Lazy import: serde imports this module to rebuild stores.
            from repro.storage.serde import encode_field_section

            advisor_cfg = options.advisor_config()
            for name, field_store in fields.items():
                section = encode_field_section(field_store)
                sample = sample_window(section, advisor_cfg)
                if options.codec == "auto":
                    profile = profile_values(table.column(name), advisor_cfg)
                    choice = choose_codec(sample, advisor_cfg, profile=profile)
                else:
                    profile = None
                    choice = choose_codec(
                        sample, advisor_cfg, candidates=(options.codec,)
                    )
                field_store.codec = choice.codec
                field_store.codec_choice = choice.as_dict()
                record = choice.as_dict()
                if profile is not None:
                    record["profile"] = profile.as_dict()
                stats.field_codecs[name] = record
            stats.advisor_seconds += time.perf_counter() - phase_started

        stats.chunks = len(chunk_row_counts)
        stats.total_seconds = time.perf_counter() - total_started
        stats.publish()
        return cls(
            options, table.n_rows, chunk_row_counts, fields, import_stats=stats
        )

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_row_counts)

    # -- runtime knobs -----------------------------------------------------------
    def configure_runtime(
        self,
        executor: str | None = None,
        workers: int | None = None,
        max_workers: int | None = None,
        cache_policy: str | None = None,
        cache_capacity_bytes: float | None = None,
    ) -> None:
        """Swap execution strategy / cache sizing on a live store.

        The encoding options are baked in at import time, but how the
        chunk loop fans out and how big the result cache may grow are
        per-process choices: a store file does not record them, so
        :func:`load_store` and :func:`load_arena_store` return a store
        with the default runtime (serial, LRU, 64 MiB), and the CLI
        applies its ``--workers`` / ``--cache-policy`` flags here.
        Replacing the cache drops all resident entries and empties the
        prepare memo (texts and clause pieces, and plans if the store
        caches chunk results); changing only the executor keeps both (no
        key depends on how partials are computed).
        """
        executor_updates: dict[str, Any] = {}
        if executor is not None:
            executor_updates["executor"] = executor
        if workers is not None:
            executor_updates["workers"] = workers
        if max_workers is not None:
            executor_updates["max_workers"] = max_workers
        cache_updates: dict[str, Any] = {}
        if cache_policy is not None:
            cache_updates["cache_policy"] = cache_policy
        if cache_capacity_bytes is not None:
            cache_updates["cache_capacity_bytes"] = cache_capacity_bytes
        if not executor_updates and not cache_updates:
            return
        self.options = replace(
            self.options, **executor_updates, **cache_updates
        )
        if executor_updates:
            self.executor.close()
            if self._arena is not None and self._arena.is_owner:
                # close() released every arena the old executor tracked;
                # drop the dangling reference so the next process-backed
                # query builds a fresh one.
                self._arena = None
                self._arena_handle = None
            self._build_runtime(only="executor")
        if cache_updates:
            with self._cache_lock:
                self._build_runtime(only="cache")

    def chunk_cache_stats(self) -> CacheStats:
        """Lifetime hit/miss/eviction counters of the chunk cache."""
        return self._chunk_cache.stats

    def _admit(self, entries: list[tuple[Any, Any, float]]) -> None:
        """Put ``(key, value, weight)`` entries into the chunk cache."""
        if not entries:
            return
        # One locked section, so the eviction delta is this query's own
        # even when queries run concurrently.
        with self._cache_lock:
            evictions_before = self._chunk_cache.stats.evictions
            for key, value, weight in entries:
                self._chunk_cache.put(key, value, weight=weight)
            evicted = self._chunk_cache.stats.evictions - evictions_before
        if evicted:
            counters.increment("datastore.chunk_cache.evictions", evicted)

    def _cached_leaf(self, text: str, build: Callable[[], Any]) -> Any:
        """A WHERE conjunct's compiled leaf, kept by its rendered text."""
        key = ("leaf", text)
        with self._cache_lock:
            leaf = self._chunk_cache.get(key)
        if leaf is None:
            leaf = build()
            self._admit([(key, leaf, leaf.size_bytes())])
        return leaf

    def _recall(self, key: tuple) -> Any:
        with self._cache_lock:
            return self._memo.get(key)

    def _remember(self, entries: list[tuple[tuple, Any]]) -> None:
        with self._cache_lock:
            for key, value in entries:
                self._memo.put(key, value)

    def prepare(self, query: Prepared | Query | str) -> Prepared:
        """Parse and bind, once per text; a :class:`Prepared` comes back as
        it is. A text's Prepared and clause pieces are memo entries,
        admitted once it has parsed and bound, chunk cache on or off."""
        if isinstance(query, Prepared):
            return query
        keyed = self.options.cache_chunk_results
        text = query if isinstance(query, str) else None
        if text is not None and (hit := self._recall(("sql", text))):
            return hit
        built, pieces, shape = [], [], None

        def clause(piece: str, build: Callable[[], Any]) -> Any:
            key = ("clause", piece)
            value = self._recall(key)
            if value is None:
                counters.increment("datastore.sql.clauses_parsed")
                value = build()
                built.append((key, value))
            pieces.append(piece)
            return value

        if text is not None:
            counters.increment("datastore.sql.parsed")
            query = parse_query(text, clause)
            if keyed and "".join(pieces) == text:  # by piece, none failed
                shape = tuple(p for p in pieces if p[:5].upper() != "WHERE")
        if query.table != self.options.table_name:
            raise ExecutionError(
                f"query targets table {query.table!r}, store holds "
                f"{self.options.table_name!r}"
            )
        parsed = resolve_group_aliases(query)
        where = parsed.where if keyed else None
        prepared = Prepared(parsed, None if where is None else where.sql(), shape)
        if text is not None:
            self._remember([*built, (("sql", text), prepared)])
        return prepared

    def __deepcopy__(self, memo: dict) -> "DataStore":
        """Deep-copy the encoded data; the clone gets fresh runtime state.

        Spelled out instead of left to ``__reduce_ex__`` because an
        arena-backed store reduces to an *attach*: a deep copy must own
        its columns, not share a segment it could outlive.
        """
        clone = self.__class__.__new__(self.__class__)
        clone.__setstate__(copy.deepcopy(self.__getstate__(), memo))
        return clone

    def __getstate__(self) -> dict:
        """Pickle the encoded data, not the per-process runtime.

        The executor (thread pool), the locks, the chunk-result cache
        (derived data, rebuilt on demand) and the arena mapping cannot
        cross a process boundary. Dropping them here is what makes a
        store safe to ship to a ProcessPool worker (every
        ``executor="process"`` test pickles one for real);
        ``__setstate__`` builds fresh runtime objects on the other side.
        """
        state = dict(self.__dict__)
        for key in self._RUNTIME_ATTRS:
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_runtime()

    def __reduce_ex__(self, protocol: int) -> Any:
        """Arena-backed stores pickle as an attach, not as data.

        When a shareable arena backs this store, the pickle is just
        ``attach_store(handle)`` — kilobytes instead of the column
        payload, and every task a worker unpickles resolves to that
        worker's one cached attached store. Stores without an arena
        fall back to the regular (full-value) protocol.
        """
        if self._arena_handle is not None and self._arena_handle.shareable:
            from repro.storage.arena import attach_store

            return (attach_store, (self._arena_handle,))
        return super().__reduce_ex__(protocol)

    # -- arena backing (see repro.storage.arena) ---------------------------------
    def adopt_arena(self, arena: Any, handle: Any) -> None:
        """Bind a built or attached chunk arena to this store.

        Called by :mod:`repro.storage.arena` after an attach (the store
        keeps the mapping alive and re-pickles by handle) and by
        :meth:`ensure_arena` after a build.
        """
        self._arena = arena
        self._arena_handle = handle

    @property
    def arena(self) -> Any:
        """The backing chunk arena, or None (read-only observability)."""
        return self._arena

    def ensure_arena(self) -> None:
        """Materialize this store into a shared-memory arena (idempotent).

        The engine calls this before fanning tasks out to a strategy that
        ``wants_picklable_tasks``; this store's executor unlinks the
        segment at :meth:`~ExecutionStrategy.close`.
        """
        if self._arena is None or self._arena_handle is None:
            from repro.storage.arena import ChunkArena

            arena = ChunkArena.build(self)
            self.adopt_arena(arena, arena.handle())
        if self._arena.is_owner:
            self.executor.track_arena(self._arena)

    def field(self, name: str) -> FieldStore:
        try:
            return self.fields[name]
        except KeyError:
            raise BindError(
                f"unknown field {name!r}; store has "
                f"{sorted(self._original_fields)}"
            ) from None

    # -- the field catalog (Section 5 "Complex Expressions") ----------------------
    def ensure_field(self, expr: Expr) -> str:
        """The name of the field computing ``expr``, materializing it if new.

        A bare field reference names an original column: the labels of
        materialized fields (``__v0``, ...) are not SQL.
        """
        if isinstance(expr, FieldRef):
            return self._ensure(("field", expr.name))
        return self._ensure(("expr", _ExprText(expr)))

    def ensure_composite_field(self, member_names: list[str]) -> str:
        """Combine several fields into one tuple-valued virtual field.

        Footnote 5: "multiple group-by fields are combined into one
        expression which is materialized in the datastore as an
        additional 'virtual' column."
        """
        return self._ensure(
            ("composite", tuple(self.field(name).spec for name in member_names))
        )

    def _ensure(self, spec: tuple) -> str:
        """The name of the field ``spec`` describes, materializing it if new.

        The one path that looks a field up or adds one. A catalog hit
        takes no lock: an entry is published by one assignment, after its
        field. A miss materializes under ``_field_lock``, so concurrent
        first touches build a field once. Adding a field invalidates
        nothing: every key that could name it is a spec.
        """
        name = self._catalog.get(spec)
        if name is not None:
            return name
        if spec[0] == "field":
            raise BindError(
                f"unknown field {spec[1]!r}; store has "
                f"{sorted(self._original_fields)}"
            )
        with self._field_lock:
            name = self._catalog.get(spec)
            if name is None:
                dictionary, chunks = self._materialize(spec)
                # The first free __vN: an original column may carry such a name.
                name = next(
                    f"__v{n}" for n in itertools.count() if f"__v{n}" not in self.fields
                )
                self.fields[name] = FieldStore(name, dictionary, chunks, spec)
                self._catalog[spec] = name
            return name

    def _materialize(self, spec: tuple) -> tuple[Dictionary, list[ColumnChunk]]:
        """Build a derived field the way the import builds a column.

        The rows of the fields ``spec`` reads hold few distinct tuples of
        global-ids. Each tuple gets its value once — the expression
        evaluated on it by :func:`evaluate_array`, or for a composite the
        tuple itself — and the values are ranked into the dictionary; the
        rows' global-ids then go through :func:`encode_column_chunks`.
        Over one field the tuples are that field's dictionary (the import
        keeps no value that no row holds), so its global-ids number them.
        """
        kind, definition = spec
        if kind == "composite":
            refs = [self._ensure(member) for member in definition]
        else:
            expr = definition.expr
            for node in walk(expr):
                if isinstance(node, (Aggregate, Star)):
                    raise UnsupportedQueryError(
                        f"cannot materialize aggregate expression {definition}"
                    )
            refs = [
                self._ensure(("field", ref)) for ref in sorted(referenced_fields(expr))
            ]
        sources = [self.field(ref) for ref in refs]
        row_gids = [
            np.concatenate([c.row_global_ids() for c in s.chunks]) for s in sources
        ]
        if kind == "expr" and len(sources) == 1:
            numbers, tuples = row_gids[0], [slice(None)]  # all of the dictionary
        else:
            numbers, __, tuples = distinct_tuples(row_gids, self.n_rows)
        if kind == "composite":  # tuples in global-id order, which is value order
            values = list(zip(*(
                list(map(source.dictionary.values().__getitem__, gids.tolist()))
                for source, gids in zip(sources, tuples)
            )))  # fmt: skip
            gid_of_tuple = np.arange(len(values))
            dictionary = SortedTupleDictionary(values)
        else:
            columns, n = {}, 1  # no field: one tuple, the empty one
            for ref, source, gids in zip(refs, sources, tuples):
                values, null = _dictionary_vector(source.dictionary)
                columns[ref] = values[gids], null[gids]
                n = len(columns[ref][1])
            results = as_list(evaluate_array(expr, columns, n))
            if bool in set(map(type, results)):  # a bool is stored as an int
                results = [int(v) if type(v) is bool else v for v in results]
            gid_of_tuple, ordered = factorize_list(results)
            dictionary = _dictionary_from_ordered(
                ordered, self.options.optimized_dicts, f"field {definition}"
            )
        chunks = encode_column_chunks(
            gid_of_tuple[numbers],
            self.chunk_row_counts,
            len(dictionary),
            optimized=self.options.optimized_columns,
        )
        return dictionary, chunks

    # -- size accounting -----------------------------------------------------------
    def total_size_bytes(self) -> int:
        """Encoded footprint of all original (non-virtual) fields."""
        return sum(
            self.fields[name].size_bytes() for name in self._original_fields
        )

    # -- query execution -------------------------------------------------------------
    def execute(self, query: Prepared | Query | str) -> QueryResult:
        """Run a query, returning its result table and scan statistics."""
        started = time.perf_counter()
        parsed, stats, kernel = self._run_pipeline(query, plans=True)
        table = kernel.answer(parsed)
        elapsed = time.perf_counter() - started
        # Exact coverage accounting for degraded results: every row the
        # supervisor lost is counted, nothing else is estimated.
        complete = stats.rows_unserved == 0 and stats.chunks_unserved == 0
        coverage = (
            (stats.rows_total - stats.rows_unserved) / stats.rows_total
            if stats.rows_total
            else 1.0
        )
        return QueryResult(
            table=table,
            stats=stats,
            elapsed_seconds=elapsed,
            complete=complete,
            row_coverage=coverage,
        )

    def execute_partials(self, query: Prepared | Query | str) -> tuple[ScanStats, Any]:
        """Execute the shard-local part of a distributed query.

        Returns ``(stats, partial)``: a grouped query's
        :class:`TreePartial`, which the computation tree folds level by
        level with the store's own aggregators (Section 4) and its root
        reads out as :meth:`execute` does; a plain projection's output
        rows, all of them, as dicts.
        """
        __, stats, kernel = self._run_pipeline(query)
        return stats, kernel.partial()

    def _run_pipeline(
        self, query: Prepared | Query | str, plans: bool = False
    ) -> "tuple[Query, ScanStats, _RunKernel | _Plan]":
        """The one query path (Section 2.4); both doors run through it.

        prepare → classify chunks → supervised fan-out → fold in chunk
        order → stats tail. Returns the resolved query, its scan
        statistics and the folded kernel; the callers differ only in
        what they read off the kernel (its answer, or mergeable shard
        partials). With ``plans``, a text whose WHERE keeps no chunk
        returns its shape's :class:`_Plan` instead, and builds no kernel
        once the memo holds it.
        """
        # Prepare, find or compile the restriction, pick the kernel. One
        # WHERE per click: with the chunk cache on, a WHERE's classification
        # and its conjuncts' compiled leaves are entries of it, beside the
        # partials they select, keyed on rendered text (1 and True differ).
        prepared = self.prepare(query)
        parsed = prepared.query
        stats = ScanStats(rows_total=self.n_rows, chunks_total=self.n_chunks)
        where_key = restriction = None
        if prepared.where_text is not None:
            where_key = ("where", prepared.where_text)
            with self._cache_lock:
                restriction = self._chunk_cache.get(where_key)
        if restriction is None:
            restriction = compile_restriction(
                parsed.where,
                self.row_starts,
                self.ensure_field,
                lambda name: self.field(name).dictionary,
                lambda name: self.field(name).chunk_dict_index(),
                lambda name, rows: pick(self.field(name).row_positions(), rows),
                None if where_key is None else self._cached_leaf,
            )
            counters.increment("datastore.restriction.compiled")
            if where_key is not None:
                self._admit([(where_key, restriction, restriction.size_bytes())])
        else:
            counters.increment("datastore.restriction.reused")
        accessed = set(restriction.fields)
        active = restriction.active
        if plans and prepared.shape is not None and not active.size:
            phase_started = time.perf_counter()
            shape = prepared.shape
            kernel = self._recall(("plan", shape)) or self._plan(parsed, shape)
            accessed.update(kernel.fields)
        else:
            kernel = self._kernel(parsed, accessed)
            phase_started = time.perf_counter()

        # Classify (merge thread): the restriction's active chunks, split
        # three ways as arrays: skipped, served from the cache, to scan.
        # Only FULL chunks are probed. With none active the plan alone
        # fixes the answer: no probe, fan-out or fold.
        if not active.size:
            stats.chunks_skipped, stats.rows_skipped = self.n_chunks, self.n_rows
            _charge(stats, "restriction_seconds", phase_started)
            return parsed, self._account(stats, accessed), kernel
        use_cache = (
            self.options.cache_chunk_results and kernel.signature is not None
        )
        full = restriction.verdicts[active] == FULL
        rows = self.row_starts[active + 1] - self.row_starts[active]
        hit = np.zeros(active.size, dtype=bool)
        ready: list[tuple[tuple[int, ...], Any]] = []  # (chunks, partials)
        if use_cache:
            probed = np.flatnonzero(full)
            keys = [(kernel.signature, chunk) for chunk in active[probed].tolist()]
            with self._cache_lock:
                found = [self._chunk_cache.get(key) for key in keys]
            for position, (__, chunk), cached in zip(probed.tolist(), keys, found):
                if cached is not None:
                    hit[position] = True
                    ready.append(((chunk,), [as_run_partial(p) for p in cached]))
            counters.increment("datastore.chunk_cache.hits", len(ready))
            counters.increment("datastore.chunk_cache.misses", len(keys) - len(ready))
        stats.chunks_skipped = self.n_chunks - active.size
        stats.chunks_cached = len(ready)
        stats.chunks_scanned = active.size - len(ready)
        stats.rows_skipped = self.n_rows - int(rows.sum())
        stats.rows_cached = int(rows[hit].sum()) if ready else 0
        stats.rows_scanned = self.n_rows - stats.rows_skipped - stats.rows_cached
        stats.active_chunks = tuple(active.tolist())
        stats.restriction_seconds += time.perf_counter() - phase_started

        # Fan-out: the pure run kernel runs over the execution strategy,
        # one call per run. Workers only read store state (see the
        # run_partial contract in repro.core.engine). Process strategies
        # pickle the kernel, so the store must be arena-backed first —
        # the pickle then carries an arena handle, not columns. A
        # multi-chunk run the supervisor could not serve is dispatched
        # once more, one chunk per run, so only a chunk that fails on
        # its own is lost.
        phase_started = time.perf_counter()
        scan = ~hit
        pending = self._runs(restriction, active[scan], (full & use_cache)[scan])
        if self.executor.wants_picklable_tasks and len(pending) > 1:
            self.ensure_arena()
        served: list[tuple[Run, Any]] = []
        lost: list[int] = []
        while True:
            outcome = self.executor.map_supervised(kernel, pending)
            unserved = set(outcome.unserved)
            retry: list[Run] = []
            for position, (run, partials) in enumerate(
                zip(pending, outcome.results)
            ):
                if position not in unserved:
                    served.append((run, partials))
                elif len(run.chunks) > 1:
                    retry.extend(
                        Run.of(restriction, [c], [k])
                        for c, k in zip(run.chunks, run.cacheable)
                    )
                else:
                    lost.append(run.chunks[0])
            if not retry:
                break
            pending = retry
        _charge(stats, kernel.scan_timer, phase_started)

        # Graceful degradation (the paper's partial-result contract,
        # applied to real worker death): chunks the supervisor could
        # not serve after its retry budget are excluded from the fold
        # and accounted exactly — or, in strict mode, fail the query.
        if lost:
            lost_rows = sum(self.chunk_row_counts[chunk] for chunk in lost)
            if not self.options.degrade:
                raise ChunkUnavailableError(
                    f"{len(lost)} chunk(s) unserved after the "
                    "executor's retry budget; "
                    "re-run with degrade=True to accept an incomplete "
                    f"result missing {lost_rows} of {self.n_rows} rows"
                )
            stats.chunks_unserved += len(lost)
            stats.rows_unserved += lost_rows
            stats.chunks_scanned -= len(lost)
            stats.rows_scanned -= lost_rows
            counters.increment("datastore.scan.degraded_queries")
            counters.increment("datastore.scan.chunks_unserved", len(lost))

        # Fold (merge thread): admit fresh FULL chunks to the cache, one
        # per-chunk slice each, and fold everything in ascending chunk
        # order — the deterministic merge order that makes parallel
        # bit-identical to serial, cache on or off.
        phase_started = time.perf_counter()
        admitted = []
        for run, partials in served:
            for k, chunk_index in enumerate(run.chunks):
                if run.cacheable[k]:
                    sliced = kernel.chunk_partials(partials, k)
                    weight = _partials_weight(sliced)
                    admitted.append(((kernel.signature, chunk_index), sliced, weight))
            ready.append((run.chunks, partials))
        self._admit(admitted)
        kernel.fold(ready)
        _charge(stats, kernel.fold_timer, phase_started)
        return parsed, self._account(stats, accessed), kernel

    def _kernel(self, parsed: Query, read: set[str]) -> "_RunKernel":
        """The query's kernel; ``read`` gains the fields it reads."""

        def ensure(expr: Expr) -> str:
            name = self.ensure_field(expr)
            read.add(name)
            return name

        kernel_class = (
            _GroupedKernel if is_aggregation_query(parsed) else _ProjectionKernel
        )
        kernel = kernel_class(self, parsed, ensure)
        # A multi-field GROUP BY reads a composite no expression names.
        read.update(field.name for field in kernel.fields if field is not None)
        return kernel

    def _plan(self, parsed: Query, shape: tuple[str, ...]) -> "_Plan":
        """The shape's ``("plan", shape)`` memo entry, built: the kernel,
        never folded, read out as the answer of a WHERE that keeps no chunk."""
        read: set[str] = set()
        kernel = self._kernel(parsed, read)
        plan = _Plan(tuple(sorted(read)), kernel.answer(parsed))
        counters.increment("datastore.plan.built")
        self._remember([(("plan", shape), plan)])
        return plan

    def _account(self, stats: ScanStats, accessed: set[str]) -> ScanStats:
        """The stats tail: what the query read, in fields, cells and bytes."""
        stats.fields_accessed = tuple(sorted(accessed))
        stats.cells_scanned = stats.rows_scanned * max(len(accessed), 1)
        stats.memory_bytes = sum(
            self.field(name).size_bytes() for name in accessed
        )
        return stats

    def _runs(
        self, restriction: Restriction, chunks: np.ndarray, cacheable: np.ndarray
    ) -> list["Run"]:
        """``chunks`` cut into at most ``executor.workers`` runs of about
        equal rows: one kernel call per query on the serial strategy."""
        bounds = [0, chunks.size]
        n_runs = min(self.executor.workers, chunks.size)
        if n_runs > 1:
            starts = self.row_starts
            rows = np.cumsum(starts[chunks + 1] - starts[chunks])
            targets = rows[-1] * np.arange(1, n_runs) / n_runs
            cuts = np.clip(np.searchsorted(rows, targets) + 1, 1, chunks.size - 1)
            bounds = sorted({*bounds, *cuts.tolist()})
        return [
            Run.of(restriction, chunks[a:b].tolist(), cacheable[a:b].tolist())
            for a, b in zip(bounds, bounds[1:])
            if a < b
        ]


class TreePartial(NamedTuple):
    """A grouped query's folded state in value space: what a shard, or a
    level of the computation tree (Section 4), hands up.

    ``values``: the present groups' values, ascending (None without a
    GROUP BY: one group). ``states``: per aggregator, group presence
    first, its :meth:`~repro.core.engine.ColumnarAggregator.state`
    columns, the first indexing ``values``. ``args``: for MIN / MAX and
    COUNT DISTINCT, the sorted distinct argument values that the last
    column codes, else None (a sketch ships its hashes as they are).
    """

    plan: GroupPlan
    values: np.ndarray | None
    states: list[tuple]
    args: list[np.ndarray | None]


class Run(NamedTuple):
    """One kernel call: ascending chunk indices to scan, the rows it keeps
    (see :meth:`Restriction.select`) and whether each chunk's partial may
    enter the chunk cache."""

    chunks: tuple[int, ...]
    rows: slice | np.ndarray
    cacheable: tuple[bool, ...]

    @classmethod
    def of(cls, restriction: Restriction, chunks: list, cacheable: list) -> "Run":
        """The run over ``chunks``, its rows cut from ``restriction``."""
        return cls(tuple(chunks), restriction.select(chunks), tuple(cacheable))


class _RunKernel:
    """The run seam of the query pipeline: a picklable task + a fold.

    :meth:`DataStore._run_pipeline` hands an instance to the execution
    strategy as the task callable — one call per :class:`Run`,
    returning that run's partials via :meth:`scan` — and afterwards
    feeds the partials of every served run (and of every cache hit, as
    a one-chunk run) to :meth:`fold` on the merge thread, which folds
    them in ascending chunk order. :meth:`rows` and
    :meth:`partial` then read the folded state out for
    ``execute`` and ``execute_partials``.

    Thread/serial strategies just call it; process strategies pickle
    it (nested functions cannot cross a process boundary), and the
    pickle swaps the live :class:`FieldStore` references in ``fields``
    for their specs (:attr:`FieldStore.spec`) while the store
    itself reduces to its arena handle. On unpickle — inside a worker —
    each spec is ensured on that worker's attached store, and a grouped
    kernel builds its aggregators from them. Everything else (the plan,
    output names) travels by value: deterministic virtual-field
    materialization guarantees the worker's global-id space matches.

    ``scan`` only reads store state (the ``run_partial`` contract,
    observed by the test suite's ``SanitizingExecutor``); all
    mutation happens at unpickle time, before any run is scanned, or
    in ``fold``, after the fan-out.
    """

    #: Chunk-cache key prefix for FULL chunks; None = never cached.
    signature: tuple | None = None
    #: The ScanStats timers the fan-out and the fold are charged to.
    scan_timer = "scan_seconds"
    fold_timer = "merge_seconds"

    def __init__(self, store: DataStore, fields: list[FieldStore | None]):
        self.store = store
        self.fields = fields

    def __call__(self, run: Run) -> Any:
        return self.scan(run)

    def answer(self, parsed: Query) -> Table:
        """The folded state read out and finalized: HAVING, ORDER BY and
        LIMIT, all three skipped for top-k survivors already in order."""
        rows, ordered = self.rows(parsed)
        return finalize(rows, parsed, ordered)

    @staticmethod
    def _selector(run: Run) -> Callable[[np.ndarray], np.ndarray]:
        """Picks the run's rows out of a per-row array (see :func:`pick`)."""
        return lambda values: pick(values, run.rows)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["fields"] = [
            field.spec if field is not None else None for field in self.fields
        ]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.fields = [
            self.store.field(self.store._ensure(spec)) if spec is not None else None
            for spec in state["fields"]
        ]


class _GroupedKernel(_RunKernel):
    """GROUP BY / aggregate queries: the ``counts[elements[row]]++`` loop.

    ``fields`` is the group field followed by one field per aggregate
    argument (None where there is no GROUP BY, and for ``COUNT(*)``).
    A run's partials are ``[presence, *one per aggregate]`` run
    partials; a FULL chunk's slice of them is cacheable under
    ``signature``: the group field's spec and the aggregates' text.
    """

    def __init__(self, store: DataStore, parsed: Query, ensure) -> None:
        self.plan = plan_group_query(parsed)
        group_names = [ensure(expr) for expr in self.plan.group_exprs]
        if len(group_names) > 1:
            group_field = store.field(store.ensure_composite_field(group_names))
        else:
            group_field = store.field(group_names[0]) if group_names else None
        fields = [group_field] + [
            None if isinstance(agg.arg, Star) else store.field(ensure(agg.arg))
            for agg in self.plan.aggregates
        ]
        self.signature = (
            group_field.spec if group_field else None,
            tuple(agg.sql() for agg in self.plan.aggregates),
        )
        super().__init__(store, fields)
        self._aggregate()

    @classmethod
    def folded(
        cls, plan: GroupPlan, fields: list, aggregators: list[ColumnarAggregator]
    ) -> "_GroupedKernel":
        """A kernel that scans nothing: a computation-tree level's
        ``aggregators`` (group presence first), its children's partials
        folded in, over ``fields`` that hold only dictionaries."""
        kernel = cls.__new__(cls)
        _RunKernel.__init__(kernel, None, fields)
        kernel.plan, (kernel.presence, *kernel.aggregators) = plan, aggregators
        return kernel

    def _aggregate(self) -> None:
        """Fresh aggregators over ``fields``: no per-entry table is pickled."""
        n_groups = len(self.fields[0].dictionary) if self.fields[0] else 1
        self.presence = PresenceAggregator(n_groups)
        self.aggregators = [
            build_aggregator(agg, n_groups, field)
            for agg, field in zip(self.plan.aggregates, self.fields[1:])
        ]

    def __getstate__(self) -> dict:
        # Pickled to fan out, before any fold: a worker builds its own aggregators.
        return {**super().__getstate__(), "presence": None, "aggregators": None}

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._aggregate()

    def _groups(self, run: Run, select: Callable) -> RunGroups:
        """The run's rows in the group field's CSR frame.

        When every chunk-dictionary from the run's first chunk to its last
        is one entry (no GROUP BY: global-id 0 everywhere), each chunk has
        one group and the run reads no rows: a chunk's span position is its
        slot and ``kept`` counts its rows (a zero-row chunk has no entry).
        """
        chunks = np.array(run.chunks)
        first, last = run.chunks[0], run.chunks[-1]
        group = self.fields[0]
        if group is None:
            gids = np.zeros(last - first + 1, dtype=np.uint32)
        else:
            index = group.chunk_dict_index()
            offsets = np.array(index.offsets[first : last + 2])
            gids = index.gids[offsets[0] : offsets[-1]]
            if (np.diff(offsets) != 1).any():
                base = offsets[0]
                return RunGroups(
                    np.subtract(select(group.row_positions()), base, dtype=np.intp),
                    gids,
                    offsets[chunks - first] - base,
                )
        edges = self.store.row_starts[[*run.chunks, last + 1]]
        if not isinstance(run.rows, slice):
            edges = run.rows.searchsorted(edges)
        return RunGroups(None, gids, chunks - first, np.diff(edges))

    def scan(self, run: Run) -> list:
        select = self._selector(run)
        groups = self._groups(run, select)
        groups = groups._replace(tally=groups.counts())  # one row tally per run
        presence = self.presence.run_partial(groups, None)
        partials = [presence]
        # Every row of one-group chunks: distinct pairs are chunk-dictionaries.
        chunks = np.array(run.chunks)
        sizes = np.diff(self.store.row_starts)[chunks]
        whole = groups.kept is not None and np.array_equal(groups.kept, sizes)
        positions: dict[str, np.ndarray] = {}  # one read of a field's rows
        for aggregator, field in zip(self.aggregators, self.fields[1:]):
            # COUNT(*) has no argument: its partial is the presence one.
            if field is None:
                partials.append(presence)
            elif whole and isinstance(aggregator, _PairAggregator):
                entries = field.chunk_dict_index().chunk_dicts(chunks)
                partials.append(aggregator.dictionary_partial(groups, *entries))
            else:
                if field.name not in positions:
                    positions[field.name] = select(field.row_positions())
                run_partial = aggregator.run_partial
                if isinstance(aggregator, _PairAggregator) and not any(run.cacheable):
                    run_partial = aggregator.run_pairs  # no slice to keep: one sort
                partials.append(run_partial(groups, positions[field.name]))
        return partials

    def chunk_partials(self, partials: list, k: int) -> list:
        """Chunk ``k`` of a run's partials, as the chunk cache holds them."""
        presence = self.presence.chunk_slice(partials[0], k)
        return [presence] + [
            presence
            if partial is partials[0]
            else aggregator.chunk_slice(partial, k)
            for aggregator, partial in zip(self.aggregators, partials[1:])
        ]

    def fold(self, ready: list[tuple[tuple[int, ...], list]]) -> None:
        if not ready:
            return
        for slot, aggregator in enumerate([self.presence, *self.aggregators]):
            aggregator.apply(
                in_chunk_order([(chunks, partials[slot]) for chunks, partials in ready])
            )

    def _present(self) -> np.ndarray:
        if self.fields[0] is None:
            return np.array([True])
        return self.presence.counts > 0

    def rows(self, parsed: Query) -> tuple[list[dict[str, Any]], bool]:
        """One output dict per present group, or per top-k survivor (True)."""
        plan, group_field = self.plan, self.fields[0]
        gids = np.flatnonzero(self._present())
        if not gids.size:
            return [], False
        columns = [agg.result_columns(gids) for agg in self.aggregators]
        # Late materialization: values are decoded (and group values
        # looked up) for the ORDER BY ... LIMIT survivors only.
        positions = None
        if len(plan.group_exprs) == 1:
            positions = self._topk(parsed, gids, columns)
        if positions is not None:
            gids = gids[positions]
            columns = [(values[positions], null[positions]) for values, null in columns]
        agg_results = [
            agg.decode(*column) for agg, column in zip(self.aggregators, columns)
        ]

        rows: list[dict[str, Any]] = []
        for position, gid in enumerate(gids.tolist()):
            env: dict[str, Any] = {}
            if group_field is not None:
                group_value = group_field.dictionary.value(gid)
                if len(plan.group_exprs) > 1:
                    for i, member in enumerate(group_value):
                        env[f"__group_{i}"] = member
                else:
                    env["__group_0"] = group_value
            for j, results in enumerate(agg_results):
                env[f"__agg_{j}"] = results[position]
            row = {
                name: evaluate(expr, env.__getitem__)
                for name, expr in plan.items
            }
            rows.append(row)
        return rows, positions is not None

    def _topk(self, parsed: Query, gids: np.ndarray, columns: list) -> np.ndarray | None:
        """:func:`_topk_positions` over the present groups: keys from the
        aggregators' result ``columns`` and the group *global-ids*."""
        plan, aggregators = self.plan, self.aggregators
        group_key = FieldRef("__group_0")

        def keys():
            """(expr, descending): explicit keys, then the implicit tie-break."""
            out_expr = dict(plan.items)
            select_sql_to_expr = {
                item.expr.sql(): expr
                for item, (__, expr) in zip(parsed.select, plan.items)
            }
            for item in parsed.order_by:
                rendered = item.expr.sql()
                if rendered in select_sql_to_expr:
                    yield select_sql_to_expr[rendered], item.descending
                elif isinstance(item.expr, FieldRef):
                    yield out_expr.get(item.expr.name), item.descending
                else:
                    yield None, item.descending
            yield from ((expr, False) for __, expr in plan.items)
            yield group_key, False

        decoded: dict[str, Vector] = {}  # __agg_j -> its final values, on demand

        def key_column(expr):
            """``expr`` over every group as one sortable array, or None."""
            if expr == group_key:
                return gids
            if isinstance(expr, FieldRef):  # __agg_j: the aggregate's own array
                values, null = columns[int(expr.name.removeprefix("__agg_"))]
                if null.any() or (values.dtype.kind == "f" and np.isnan(values).any()):
                    return None  # NULL / NaN ordering: take the general path
                return values
            refs = [node.name for node in walk(expr) if isinstance(node, FieldRef)]
            if any(name.startswith("__group") for name in refs):
                return None  # needs group values
            for name in refs:
                if name not in decoded:
                    j = int(name.removeprefix("__agg_"))
                    decoded[name] = columns[j]
                    if isinstance(aggregators[j], _ExtremeAggregator):  # best gids
                        decoded[name] = to_vector(aggregators[j].decode(*columns[j]))
            return _sortable(evaluate_array(expr, decoded, gids.size))

        return _topk_positions(parsed, gids.size, keys(), key_column, group_key)

    def partial(self) -> TreePartial:
        """The folded state as a :class:`TreePartial`: the group values by one
        take, argument global-ids coded over their distinct values."""
        present = np.flatnonzero(self._present())
        states, args = [], []
        for aggregator, field in zip(
            [self.presence, *self.aggregators], [None, *self.fields[1:]]
        ):
            *columns, keys = aggregator.state(present)
            arg = None
            if isinstance(aggregator, (_ExtremeAggregator, CountDistinctAggregator)):
                arg, keys = np.unique(keys, return_inverse=True)
                arg = field.value_array()[arg]
            states.append((*columns, keys))
            args.append(arg)
        group = self.fields[0]
        values = None if group is None else group.value_array()[present]
        return TreePartial(self.plan, values, states, args)


class _ProjectionKernel(_RunKernel):
    """Plain SELECT (no aggregates): ``fields`` = one per output column.

    A run's partial is the global-id of every row it keeps, one gather
    per column and no decode; the fold concatenates them in chunk order.
    Global-ids are ranks, so ORDER BY ... LIMIT k picks its k rows on
    them, and only the rows ``rows`` returns are decoded.
    """

    scan_timer = fold_timer = "projection_seconds"

    def __init__(self, store: DataStore, parsed: Query, ensure) -> None:
        self.names = [item.output_name() for item in parsed.select]
        fields = [store.field(ensure(item.expr)) for item in parsed.select]
        self.columns = [np.zeros(0, dtype=np.uint32) for __ in fields]
        super().__init__(store, fields)

    def scan(self, run: Run) -> list[np.ndarray]:
        select = self._selector(run)
        return [
            field.chunk_dict_index().gids.take(select(field.row_positions()))
            for field in self.fields
        ]

    def fold(self, ready: list[tuple[tuple[int, ...], list[np.ndarray]]]) -> None:
        runs = [columns for __, columns in sorted(ready, key=lambda item: item[0][0])]
        self.columns = [np.concatenate(pieces) for pieces in zip(self.columns, *runs)]

    def rows(self, parsed: Query) -> tuple[list[dict[str, Any]], bool]:
        """One output dict per kept row, or per top-k survivor (True)."""
        names = self.names
        keys = itertools.chain(  # lazy: resolved only if the shortcut applies
            (
                (resolve_output_expr(item.expr, parsed.select), item.descending)
                for item in parsed.order_by
            ),
            ((FieldRef(name), False) for name in names),
        )

        def key_column(key: Expr) -> np.ndarray | None:
            """An output column's gids; None for any other key, or NaN."""
            if not isinstance(key, FieldRef) or names.count(key.name) != 1:
                return None  # not one output column (finalize rejects twins)
            position = names.index(key.name)
            dictionary = self.fields[position].dictionary
            if isinstance(dictionary, NumericDictionary) and np.isnan(
                dictionary.raw_values()
            ).any():
                return None
            return self.columns[position].astype(np.int64)

        columns = self.columns
        positions = _topk_positions(parsed, columns[0].size, keys, key_column)
        if positions is not None:
            columns = [gids[positions] for gids in columns]
        return self._decode(columns), positions is not None

    def partial(self) -> list[dict[str, Any]]:
        return self._decode(self.columns)

    def _decode(self, columns: list[np.ndarray]) -> list[dict[str, Any]]:
        """Rows of the given gid columns: one gid -> value gather a column."""
        values = [
            field.value_array()[gids].tolist()
            for field, gids in zip(self.fields, columns)
        ]
        return [dict(zip(self.names, row)) for row in zip(*values)]


class _Plan(NamedTuple):
    """A ``("plan", shape)`` memo entry: the answer of a query whose WHERE
    keeps no chunk, which its shape alone fixes, and the fields its kernel
    reads. A :class:`Table` has no mutators, so every such answer shares it."""

    fields: tuple[str, ...]
    table: Table

    def answer(self, parsed: Query) -> Table:
        return self.table


def _charge(stats: ScanStats, timer: str, started: float) -> None:
    """Add the wall-clock since ``started`` to the named ScanStats timer."""
    setattr(stats, timer, getattr(stats, timer) + time.perf_counter() - started)


def _partials_weight(partials: Any) -> float:
    """Approximate resident bytes of one chunk's cached partials.

    Partials are nested tuples/lists of numpy arrays (see
    ``ColumnarAggregator.chunk_slice``); array payloads dominate, with a
    small flat overhead per container/scalar.
    """
    if isinstance(partials, np.ndarray):
        return float(partials.nbytes) + 64.0
    if isinstance(partials, (tuple, list)):
        return 64.0 + sum(_partials_weight(item) for item in partials)
    return 64.0


def _topk_positions(parsed, n, keys, key_column, unique=None):
    """The paper's top-k shortcut: pick LIMIT rows before value lookup.

    "After identifying the top 10 chunk-ids for table_name integers (by
    sorting all chunk-ids by their counts after the inner loop), the
    original table name string values need to be looked up in the
    dictionary" — i.e. only the groups or rows that survive ORDER BY ...
    LIMIT k are decoded.

    ``keys`` pairs each key with its descending flag, lazily: the ORDER BY
    keys (None where unresolved), then the implicit tie-break of
    :func:`repro.core.result.finalize`. ``key_column(key)`` is the key
    over all ``n`` rows as one array that orders as its values do
    (global-ids are ranks), or None; keys after ``unique``, which no two
    rows share, never decide. Returns the survivors' positions in the
    order the general path gives, which ``finalize`` then keeps, or None
    to take that path.
    """
    if parsed.limit is None or parsed.having is not None or parsed.limit >= n:
        return None
    columns: dict[Any, np.ndarray] = {}  # a repeated key cannot reorder anything
    for key, descending in keys:
        if key is None:
            return None
        if key in columns:
            continue
        column = key_column(key)
        if column is None:
            return None
        if descending:  # ~x = -x - 1 reverses ints and cannot overflow
            column = ~column if column.dtype.kind == "i" else -column
        columns[key] = column
        if key == unique:
            break
    if not parsed.limit:
        return np.zeros(0, dtype=np.intp)
    ordered = list(columns.values())[::-1]  # np.lexsort's last key leads
    cut = np.partition(ordered[-1], parsed.limit - 1)[parsed.limit - 1]
    rows = np.flatnonzero(ordered[-1] <= cut)  # all that may survive, in order
    return rows[np.lexsort([column[rows] for column in ordered])[: parsed.limit]]


def _sortable(vector: Vector) -> np.ndarray | None:
    """Evaluated key values as one array that sorts like them, or None.

    None for whatever an int64 / float64 column cannot order exactly as
    Python does: NULL, NaN, bool, ints beyond the dtype. Strings sort
    through their ranks.
    """
    column, null = vector
    if null.any() or column.dtype.kind == "b":
        return None
    if column.dtype.kind != "O":
        return None if np.isnan(column).any() else column
    values = column.tolist()
    kinds = set(map(type, values))
    if kinds == {str}:
        return np.unique(column, return_inverse=True)[1].astype(np.int64)
    if not kinds <= {int, float}:
        return None
    try:
        column = np.array(values, dtype=np.int64 if kinds == {int} else np.float64)
    except OverflowError:
        return None
    # Exact round trip: fails on NaN and on ints a float64 cannot hold.
    return column if column.tolist() == values else None
