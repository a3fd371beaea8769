"""Queries whose WHERE keeps no chunk, against stdlib ``sqlite3``.

Restriction analysis can prove every chunk away; the answer is then
fixed by the plan alone: one row of ``COUNT`` 0 and NULL aggregates
without a GROUP BY, no row with one. Each answer is read through every
door a query has (the store with its chunk cache on and off, the
simulated cluster's shard partials and the query service) and compared
with sqlite's over the same rows, an oracle this package did not write.
The errors such a query raises are the ones it raises when it scans.
With the chunk cache on, a text's answer is then its shape's memo entry,
``("plan", shape)``, once one query of that shape has built it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import re
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.table import Table
from repro.distributed.cluster import ClusterConfig, SimulatedCluster
from repro.errors import ExecutionError, UnsupportedQueryError
from repro.monitoring import counters
from repro.service import QueryCompleted, QueryFailed, QueryService, ServiceConfig
from repro.sql.parser import parse_query

from tests.sanitizer import assert_results_equal
from tests.test_query_pipeline import _work

_N = 60
_TABLE = Table.from_columns({
    "s": [None if i % 7 == 0 else "abcd"[i % 4] for i in range(_N)],
    "x": list(range(_N)),
    "y": [None if i % 5 == 0 else 0.25 * i for i in range(_N)],
})  # fmt: skip
_OPTIONS = DataStoreOptions(partition_fields=("s",), max_chunk_rows=8)

#: WHEREs every chunk's dictionaries rule out.
_WHERES = ["x > 1000", "s = 'zz'", "x < 0 AND s = 'a'", "y > 99.5 OR s IN ('q')"]

#: (query, its sqlite translation where the dialects differ); {w} is the WHERE.
_CASES = [
    (
        "SELECT COUNT(*) AS n, COUNT(x) AS nx, SUM(x) AS sx, AVG(y) AS ay, "
        "MIN(s) AS lo, MAX(y) AS hi, COUNT(DISTINCT s) AS ds FROM data WHERE {w}",
        None,
    ),
    (
        "SELECT APPROX_COUNT_DISTINCT(s) AS a FROM data WHERE {w}",
        "SELECT COUNT(DISTINCT s) AS a FROM data WHERE {w}",
    ),
    ("SELECT s, COUNT(*) AS n, SUM(x) AS sx FROM data WHERE {w} GROUP BY s", None),
    (
        "SELECT s, MAX(y) AS m FROM data WHERE {w} GROUP BY s "
        "ORDER BY m DESC LIMIT 2",
        None,
    ),
    ("SELECT COUNT(*) AS n FROM data WHERE {w} HAVING COUNT(*) = 0", None),
    ("SELECT COUNT(*) AS n FROM data WHERE {w} HAVING COUNT(*) > 0", None),
    ("SELECT COUNT(*) + 1 AS n FROM data WHERE {w}", None),
    ("SELECT s, x FROM data WHERE {w} ORDER BY x DESC LIMIT 3", None),
]

#: Errors a query raises whether or not a chunk is active.
_ERRORS = [
    (
        "SELECT s, x, COUNT(*) AS n FROM data WHERE {w} GROUP BY s",
        UnsupportedQueryError,
    ),
    ("SELECT SUM(s) AS t FROM data WHERE {w}", ExecutionError),
    (
        "SELECT s, COUNT(*) AS n FROM data WHERE {w} GROUP BY s HAVING SUM(x) > 1",
        UnsupportedQueryError,
    ),
    (
        "SELECT s, COUNT(*) AS n FROM data WHERE {w} GROUP BY s ORDER BY SUM(x)",
        UnsupportedQueryError,
    ),
    ("SELECT COUNT(*) AS n, SUM(x) AS n FROM data WHERE {w}", UnsupportedQueryError),
]


def _sqlite(table: Table, sql: str) -> tuple[list[tuple], list[str]]:
    """sqlite's rows and column names for ``sql`` over ``table`` as ``data``."""
    with contextlib.closing(sqlite3.connect(":memory:")) as db:
        names = table.field_names
        db.execute(f"CREATE TABLE data ({', '.join(names)})")
        db.executemany(
            f"INSERT INTO data VALUES ({', '.join('?' * len(names))})",
            table.iter_rows(),
        )
        cursor = db.execute(sql)
        return cursor.fetchall(), [column[0] for column in cursor.description]


def _store(table: Table, cache: bool) -> DataStore:
    return DataStore.from_table(
        table, dataclasses.replace(_OPTIONS, cache_chunk_results=cache)
    )


class _ServiceError(Exception):
    """A query the service answered with :class:`QueryFailed`."""


@pytest.fixture(scope="module")
def doors():
    """Each way a query is answered: name -> ``sql -> QueryResult``."""
    cached, uncached = _store(_TABLE, True), _store(_TABLE, False)
    cluster = SimulatedCluster.build(
        _TABLE, n_shards=3, store_options=_OPTIONS, config=ClusterConfig(seed=5)
    )

    with QueryService(_store(_TABLE, True), ServiceConfig(workers=1)) as service:

        def served(sql: str):
            outcome = service.run("t", sql)
            if isinstance(outcome, QueryFailed):
                raise _ServiceError(outcome.error)
            assert isinstance(outcome, QueryCompleted)
            return outcome.result

        yield {
            "cache on": cached.execute,
            "cache off": uncached.execute,
            "cluster": lambda sql: cluster.execute(sql)[0],
            "service": served,
        }


@pytest.mark.parametrize("where", _WHERES)
@pytest.mark.parametrize("case", _CASES, ids=range(len(_CASES)))
def test_no_chunk_answers_match_sqlite(doors, case, where):
    sql, translated = case
    expected, names = _sqlite(_TABLE, (translated or sql).format(w=where))
    for name, door in doors.items():
        result = door(sql.format(w=where))
        assert result.stats.active_chunks == (), name
        assert result.stats.rows_scanned == result.stats.cells_scanned == 0, name
        assert result.column_names == names, name
        assert_results_equal(result.rows(), expected, context=name)


@pytest.mark.parametrize("case", _ERRORS, ids=range(len(_ERRORS)))
def test_no_chunk_queries_raise_what_scanning_ones_do(doors, case):
    sql, error = case
    for where in ("x > 1000", "x > 10"):  # no chunk active, then some
        with pytest.raises(error) as raised:
            doors["cache on"](sql.format(w=where))
        for name, door in doors.items():
            expected = _ServiceError if name == "service" else error
            with pytest.raises(expected, match=re.escape(str(raised.value))):
                door(sql.format(w=where))


# -- the all-skipped row: a property over small random stores -----------------

_SHAPES = _CASES + [
    ("SELECT s, y FROM data WHERE {w}", None),
    (
        "SELECT s, AVG(x) AS a, COUNT(*) AS n FROM data WHERE {w} GROUP BY s "
        "HAVING n > 1",
        None,
    ),
]


@st.composite
def _tables(draw) -> Table:
    n = draw(st.integers(min_value=0, max_value=40))
    cells = st.one_of(st.none(), st.integers(min_value=0, max_value=50))
    xs = draw(st.lists(cells, min_size=n, max_size=n))
    ss = draw(st.lists(st.sampled_from([None, "a", "b", "c"]), min_size=n, max_size=n))
    return Table.from_columns({"s": ss, "x": xs, "y": [0.5 * (x or 0) for x in xs]})


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    table=_tables(),
    max_chunk_rows=st.integers(min_value=1, max_value=12),
    threshold=st.one_of(st.integers(-5, 50), st.integers(50, 90)),  # past 50: no chunk
    shape=st.sampled_from(_SHAPES),
)
def test_no_chunk_queries_skip_everything(table, max_chunk_rows, threshold, shape):
    options = DataStoreOptions(partition_fields=("s",), max_chunk_rows=max_chunk_rows)
    uncached_options = dataclasses.replace(options, cache_chunk_results=False)
    stores = [
        DataStore.from_table(table, options),
        DataStore.from_table(table, uncached_options),
    ]
    where = f"x > {threshold} AND s IN ('a', 'b')"
    sql, translated = shape
    cached, uncached = [store.execute(sql.format(w=where)) for store in stores]
    if cached.stats.active_chunks:
        return
    stats, n_rows, n_chunks = cached.stats, stores[0].n_rows, stores[0].n_chunks
    assert (
        stats.rows_total, stats.rows_skipped, stats.rows_cached, stats.rows_scanned,
        stats.chunks_total, stats.chunks_skipped, stats.chunks_cached,
        stats.chunks_scanned, stats.cells_scanned, stats.chunks_unserved,
        stats.rows_unserved,
    ) == (n_rows, n_rows, 0, 0, n_chunks, n_chunks, 0, 0, 0, 0, 0)  # fmt: skip
    assert stats.fields_accessed == uncached.stats.fields_accessed
    assert stats.memory_bytes == uncached.stats.memory_bytes
    assert cached.table.schema == uncached.table.schema
    assert cached.content_equal(uncached)
    assert cached.rows() == uncached.rows()
    expected, __ = _sqlite(table, (translated or sql).format(w=where))
    assert_results_equal(cached.rows(), expected)


# -- the memo's ("plan", shape) entry: what a shape's first no-chunk query built

#: Shapes a plan keeps the answer of, an expression GROUP BY and a
#: multi-field one (its composite is a field only the kernel names) too.
_PLANNED = [sql for sql, __ in _SHAPES] + [
    "SELECT upper(s) AS u, COUNT(*) AS n FROM data WHERE {w} GROUP BY u",
    "SELECT s, x, MIN(y) AS m FROM data WHERE {w} GROUP BY s, x ORDER BY m LIMIT 2",
]


def _plans_built() -> int:
    return counters.get("datastore.plan.built")


def _shape(store: DataStore, text: str) -> tuple:
    shape = store.prepare(text).shape
    assert shape is not None, text
    return shape


@pytest.mark.parametrize("sql", _PLANNED, ids=range(len(_PLANNED)))
def test_a_plan_entry_answers_as_a_store_that_keeps_nothing(sql):
    cached, uncached = _store(_TABLE, True), _store(_TABLE, False)
    built = _plans_built()
    for where in _WHERES:  # x, then s, then both restricted: new fields each
        hit, expected = (store.execute(sql.format(w=where)) for store in (cached, uncached))
        assert _plans_built() == built + 1, where  # the first WHERE built it
        assert hit.column_names == expected.column_names
        assert hit.table.schema == expected.table.schema
        assert hit.rows() == expected.rows()
        assert _work(hit.stats) == _work(expected.stats)
        assert hit.stats.restriction_seconds > 0
    assert ("plan", _shape(cached, sql.format(w=_WHERES[0]))) in cached._memo


def test_doors_but_a_text_on_the_query_path_build_no_plan(doors):
    """A parsed query, shard partials, the cluster and a store keeping
    nothing answer as before; none builds or reads a plan."""
    cached = _store(_TABLE, True)
    text = _PLANNED[0].format(w=_WHERES[0])
    built = _plans_built()
    expected = _store(_TABLE, False).execute(text)
    for door in ("cache off", "cluster"):
        assert doors[door](text).rows() == expected.rows(), door
    assert cached.execute(parse_query(text)).rows() == expected.rows()
    stats, partial = cached.execute_partials(text)
    assert _work(stats) == _work(expected.stats)
    # No GROUP BY: one group, its presence state one zero count.
    assert partial.values is None
    assert [column.tolist() for column in partial.states[0]] == [[0], [0]]
    assert _plans_built() == built
    assert ("plan", _shape(cached, text)) not in cached._memo


def test_a_served_text_reads_its_shapes_plan():
    """Through the service, result cache off, a text reaches the store as
    the store prepared it, shape and all: a shape's first no-chunk text
    builds its plan, later WHEREs build none and answer as ``execute``
    does. A parsed ``Query`` builds none."""
    store, uncached = _store(_TABLE, True), _store(_TABLE, False)
    config = ServiceConfig(workers=1, enable_result_cache=False)
    with QueryService(store, config) as service:
        for sql in _PLANNED[:3]:
            built = _plans_built()
            for where in _WHERES:
                text = sql.format(w=where)
                outcome = service.run("t", text)
                assert isinstance(outcome, QueryCompleted), text
                expected = uncached.execute(text)
                assert outcome.result.column_names == expected.column_names
                assert outcome.result.rows() == expected.rows(), text
                assert _work(outcome.result.stats) == _work(expected.stats)
                assert _plans_built() == built + 1, text
        text = _PLANNED[3].format(w=_WHERES[0])
        built = _plans_built()
        outcome = service.run("t", parse_query(text))
        assert outcome.result.rows() == uncached.execute(text).rows()
        assert _plans_built() == built
        assert ("plan", _shape(store, text)) not in store._memo


@pytest.mark.parametrize("case", _ERRORS, ids=range(len(_ERRORS)))
def test_a_failing_shape_admits_no_plan(case):
    sql, error = case
    store, built, messages = _store(_TABLE, True), _plans_built(), set()
    for where in _WHERES[:2] * 2:
        with pytest.raises(error) as raised:
            store.execute(sql.format(w=where))
        messages.add(str(raised.value))
        assert ("plan", _shape(store, sql.format(w=where))) not in store._memo
    assert len(messages) == 1
    assert _plans_built() == built


def test_a_plan_goes_with_its_cache():
    """A plan is a memo entry: a chunk cache that keeps nothing leaves it
    be; dropped with a new cache, it is built again; swapping the executor
    keeps it."""
    tiny = DataStore.from_table(
        _TABLE, dataclasses.replace(_OPTIONS, cache_capacity_bytes=1)
    )
    uncached = _store(_TABLE, False)
    texts = [sql.format(w=where) for sql in _PLANNED[:4] for where in _WHERES[:2]]
    built = _plans_built()
    for text in texts:
        assert tiny.execute(text).rows() == uncached.execute(text).rows(), text
    assert _plans_built() == built + len(texts) // 2  # one per shape
    store, text = _store(_TABLE, True), texts[0]
    for configure, rebuilt in (
        (lambda: None, 0),
        (lambda: store.configure_runtime(executor="serial"), 0),
        (lambda: store.configure_runtime(cache_policy="lru"), 1),
        (lambda: store.configure_runtime(cache_capacity_bytes=1 << 20), 1),
    ):
        store.execute(text)
        built = _plans_built()
        configure()
        assert store.execute(text).rows() == uncached.execute(text).rows()
        assert _plans_built() == built + rebuilt
