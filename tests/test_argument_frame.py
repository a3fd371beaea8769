"""SUM / AVG / MIN / MAX / COUNT(x) read their argument in its CSR frame.

A run hands each aggregate its rows' CSR positions in the argument
field's chunk-dictionary index: SUM / AVG weigh them from a per-entry
table, MIN / MAX reduce them and translate only the winners. Random
tables (NULL and NaN arguments, a NaN cell being NULL; ``0`` / ``0.0``
/ ``-0.0``; one-row and zero-row chunks; one-entry chunk-dictionaries)
go through every door —
chunk cache on (twice, so hits fold too), off, two threads, shard
partials — and every chunk's partial must be the bits the gid-space
oracle (``tests/engine_oracle.py``) computes for it, and every answer
the one sqlite gives, compared as the benchmark compares them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bench.oracle import QueryClass, SqliteOracle
from repro.core.datastore import DataStore, DataStoreOptions, FieldStore, _GroupedKernel
from repro.core.engine import RunPairs
from repro.core.table import Table
from repro.storage.chunk import ColumnChunk

from tests import engine_oracle
from tests.test_engine import _assert_same_partial
from tests.test_query_pipeline import _through_partials

_AGGREGATES = (
    "COUNT(*) AS c, COUNT(latency) AS n, SUM(latency) AS s, "
    "AVG(latency) AS a, MIN(latency) AS lo, MAX(latency) AS hi"
)
#: GROUP BY: none (one group), ``country`` (one per chunk: the partition
#: field, so no row is read for it) or ``table_name`` (rows).
_GROUPS = (None, "country", "table_name")
#: WHERE clauses with the row predicate each stands for.
_WHERES = {
    None: None,
    "timestamp > 3": lambda row: row["timestamp"] > 3,
    "timestamp > 7 OR user_name = 'u0'": (
        lambda row: row["timestamp"] > 7 or row["user_name"] == "u0"
    ),
    "latency > 1": lambda row: row["latency"] is not None and row["latency"] > 1,
}
_LATENCIES = (None, math.nan, 0, 0.0, -0.0, 1, 2, -3, 2.5, -0.5, 7)


@st.composite
def _tables(draw):
    """Five columns as the benchmark's oracle takes them, ``latency``
    constant in some countries, plus where zero-row chunks go. A NaN
    cell is NULL, to the store as to sqlite."""
    values = draw(st.sampled_from([_LATENCIES, (None, math.nan)]))
    columns = {name: [] for name in ("timestamp", "table_name", "latency", "country", "user_name")}
    for country in ("x", "y", "z")[: draw(st.integers(1, 3))]:
        n_rows = draw(st.sampled_from([1, 2, 5, 30]))
        constant = draw(st.booleans())  # a one-entry chunk-dictionary
        latency = draw(st.sampled_from(values))
        for __ in range(n_rows):
            columns["timestamp"].append(draw(st.integers(0, 9)))
            columns["table_name"].append(draw(st.sampled_from("abcd")))
            columns["latency"].append(latency if constant else draw(st.sampled_from(values)))
            columns["country"].append(country)
            columns["user_name"].append(draw(st.sampled_from(["u0", "u1", "u2"])))
    empty = draw(st.lists(st.integers(0, 200), max_size=2))
    return Table.from_columns(columns), draw(st.sampled_from([1, 2, 5, 1000])), empty


def _store(table: Table, max_rows: int, empty: list[int], **runtime) -> DataStore:
    """``table`` partitioned by country, ``max_rows`` a chunk, with a
    zero-row chunk spliced in before each index of ``empty``."""
    options = DataStoreOptions(partition_fields=("country",), max_chunk_rows=max_rows, **runtime)
    built = DataStore.from_table(table, options)
    sizes = list(built.chunk_row_counts)
    chunks = {name: list(field.chunks) for name, field in built.fields.items()}
    for at in sorted(at % (len(sizes) + 1) for at in empty)[::-1]:
        sizes.insert(at, 0)
        for column in chunks.values():
            column.insert(at, ColumnChunk.from_global_ids(np.zeros(0, dtype=np.uint32)))
    fields = {
        name: FieldStore(name, field.dictionary, chunks[name])
        for name, field in built.fields.items()
    }
    return DataStore(options, built.n_rows, sizes, fields)


def _query(group: str | None, where: str | None) -> QueryClass:
    head = f"SELECT {group}, " if group else "SELECT "
    sql = f"{head}{_AGGREGATES} FROM data"
    if where:
        sql += f" WHERE {where}"
    if group:
        sql += f" GROUP BY {group}"
    key = group or "c"
    return QueryClass(
        name=f"{group}/{where}",
        sql=f"{sql} ORDER BY {key} LIMIT 100",
        oracle_sql=f"{sql} ORDER BY {key}",
        key=0,
        descending=False,
        limit=100,
    )


def _oracle_partials(store: DataStore, chunk: int, group: str | None, where) -> list:
    """The chunk's partial of each kernel slot, by the gid-space oracle:
    presence, then COUNT(*), COUNT, SUM, AVG, MIN and MAX."""
    arg = store.field("latency")
    names = ("timestamp", "latency", "user_name")
    rows = [
        dict(zip(names, values))
        for values in zip(
            *(
                [store.field(n).dictionary.value(int(g)) for g in store.field(n).row_global_ids(chunk)]
                for n in names
            )
        )
    ]
    mask = None if where is None else np.array([bool(where(row)) for row in rows], dtype=bool)
    arg_ids = arg.row_global_ids(chunk).astype(np.int64)
    if group is None:
        group_ids = np.zeros(arg_ids.size, dtype=np.int64)
    else:
        group_ids = store.field(group).row_global_ids(chunk).astype(np.int64)
    has_null = arg.dictionary.has_null
    presence = engine_oracle.presence(group_ids, mask)
    total = engine_oracle.total(group_ids, mask, arg_ids, has_null, arg.numeric_values())
    return [
        presence,
        presence,
        engine_oracle.count_value(group_ids, mask, arg_ids, has_null),
        total,
        total,
        engine_oracle.extreme(group_ids, mask, arg_ids, has_null, True),
        engine_oracle.extreme(group_ids, mask, arg_ids, has_null, False),
    ]


@pytest.fixture
def folds(monkeypatch):
    """Every ``(kernel, chunks, partials)`` a grouped fold receives."""
    seen = []
    fold = _GroupedKernel.fold

    def recorded(kernel, ready):
        seen.extend((kernel, chunks, partials) for chunks, partials in ready)
        return fold(kernel, ready)

    monkeypatch.setattr(_GroupedKernel, "fold", recorded)
    return seen


_db_names = itertools.count()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(drawn=_tables(), group=st.sampled_from(_GROUPS), where=st.sampled_from(list(_WHERES)))
def test_every_door_folds_the_oracles_partials_and_answers_as_sqlite(
    drawn, group, where, folds, tmp_path_factory
):
    table, max_rows, empty = drawn
    folds.clear()  # the fixture spans every example
    query = _query(group, where)
    path = tmp_path_factory.getbasetemp() / f"frame-{next(_db_names)}.sqlite"
    oracle = SqliteOracle(table, str(path))
    stores = {
        "cached": _store(table, max_rows, empty),
        "uncached": _store(table, max_rows, empty, cache_chunk_results=False),
        "threads": _store(table, max_rows, empty, executor="thread", workers=2),
    }
    try:
        answers = {}
        for name, store in stores.items():
            answers[name] = store.execute(query.sql).rows()
        answers["cached, warm"] = stores["cached"].execute(query.sql).rows()
        answers["partials"] = _through_partials(stores["uncached"], query.sql).rows()
        for door, rows in answers.items():
            assert oracle.problem(query, rows) is None, (door, oracle.problem(query, rows))
            assert repr(rows) == repr(answers["uncached"]), door
        store = stores["uncached"]  # every store holds the same chunks
        expected = {}
        for kernel, chunks, partials in folds:
            slots = [kernel.presence, *kernel.aggregators]
            for k, chunk in enumerate(chunks):
                if chunk not in expected:
                    expected[chunk] = _oracle_partials(store, chunk, group, _WHERES[where])
                for slot, (aggregator, partial) in enumerate(zip(slots, partials)):
                    assert not isinstance(partial, RunPairs)
                    _assert_same_partial(
                        aggregator.chunk_slice(partial, k),
                        expected[chunk][slot],
                        (query.name, chunk, slot),
                    )
    finally:
        stores["threads"].executor.close()
        oracle.close()
