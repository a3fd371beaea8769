"""The two doors into the store run one pipeline.

``DataStore.execute`` and ``execute_partials`` (the cluster's shard
task), for grouped and projection queries alike, all go through
``DataStore._run_pipeline``: same preparation, same chunk
classification, same supervised fan-out, same fold. So the doors must
agree on the answer *and* on the work they report, and a projection
query must degrade exactly like a grouped one.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys
import threading
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.datastore import DataStore
from repro.core.result import QueryResult, ScanStats, finalize
from repro.core.table import Table
from repro.core.plan import resolve_group_aliases
from repro.distributed.tree import ComputationTree
from repro.errors import ChunkUnavailableError, ExecutionError, SqlSyntaxError
from repro.monitoring import counters
from repro.sql.ast_nodes import BinaryOp, Query
from repro.sql.parser import parse_query
from repro.storage.cache import policy_names
from repro.workload.queries import (
    QUERY_1,
    QUERY_2,
    QUERY_3,
    DrillDownConfig,
    generate_drilldown_session_groups,
)

from tests.conftest import make_store, run_of
from tests.process_chaos import ChaosPlan
from tests.test_process_supervision import _SUPERVISION, _chaos, _process_store

#: The nine query classes of the benchmark's ``full_scan`` workload.
FULL_SCAN_SHAPES = {
    "q1": QUERY_1,
    "q2": QUERY_2,
    "q3": QUERY_3,
    "multi_agg": (
        "SELECT country, COUNT(*) AS c, SUM(latency) AS s, MIN(latency) AS lo, "
        "MAX(latency) AS hi FROM data GROUP BY country ORDER BY c DESC LIMIT 10"
    ),
    "distinct": (
        "SELECT table_name, COUNT(*) AS c, COUNT(DISTINCT user_name) AS u "
        "FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10"
    ),
    "user_avg": (
        "SELECT user_name, AVG(latency) AS a, COUNT(DISTINCT table_name) AS t "
        "FROM data GROUP BY user_name ORDER BY a DESC LIMIT 10"
    ),
    "filter": (
        "SELECT country, COUNT(*) AS c, AVG(latency) AS a FROM data "
        "WHERE latency > 500 GROUP BY country ORDER BY c DESC LIMIT 10"
    ),
    "approx": (
        "SELECT country, APPROX_COUNT_DISTINCT(table_name, 1024) AS t "
        "FROM data GROUP BY country ORDER BY t DESC LIMIT 10"
    ),
    "project": (
        "SELECT table_name, country, latency FROM data "
        "WHERE latency > 5000 ORDER BY latency DESC LIMIT 20"
    ),
}

_PROJECTION = "SELECT country, latency FROM data WHERE latency > 100"

#: Every ScanStats field that counts work (the ``*_seconds`` timers are
#: measurement, not semantics).
WORK_COUNTERS = tuple(
    field.name
    for field in dataclasses.fields(ScanStats)
    if not field.name.endswith("_seconds")
)


def _work(stats) -> dict:
    return {name: getattr(stats, name) for name in WORK_COUNTERS}


def _through_partials(store: DataStore, query: str | Query):
    """What a one-shard cluster answers: the shard's partial, read out by
    the computation tree's root."""
    parsed = parse_query(query) if isinstance(query, str) else query
    parsed = resolve_group_aliases(parsed)
    stats, partial = store.execute_partials(query)
    if isinstance(partial, list):  # projection: already output rows
        table = finalize(partial, parsed)
    else:
        table = ComputationTree(1).merge_levels([partial])[0].answer(parsed)
    return QueryResult(table=table, stats=stats, elapsed_seconds=0.0)


def _assert_doors_agree(store: DataStore, query: str, footprint=None) -> None:
    """``footprint``: a parent's active chunks, which must cover the query's."""
    # Each door runs on an emptied chunk cache, so both see the same
    # cold store (twin stores would double the build cost).
    store._chunk_cache.clear()
    direct = store.execute(query)
    if footprint is not None:
        assert set(direct.stats.active_chunks) <= set(footprint)
    store._chunk_cache.clear()
    partial = _through_partials(store, parse_query(query))
    assert direct.content_equal(partial)
    assert _work(direct.stats) == _work(partial.stats)
    assert direct.complete


@pytest.mark.parametrize("name", sorted(FULL_SCAN_SHAPES))
def test_full_scan_shapes_agree_through_every_door(log_store, name):
    _assert_doors_agree(log_store, FULL_SCAN_SHAPES[name])


@pytest.mark.parametrize("name", sorted(FULL_SCAN_SHAPES))
def test_a_serial_scan_is_one_kernel_call(log_table, name, monkeypatch):
    """Cache off, serial strategy: the whole scan is one run, one item."""
    store = make_store(log_table, cache_chunk_results=False)
    handed = []
    map_supervised = store.executor.map_supervised

    def counted(fn, items):
        handed.append(list(items))
        return map_supervised(fn, items)

    monkeypatch.setattr(store.executor, "map_supervised", counted)
    result = store.execute(FULL_SCAN_SHAPES[name])
    assert [len(items) for items in handed] == [1]
    assert handed[0][0].chunks == result.stats.active_chunks


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_drilldown_session_agrees_through_every_door(
    log_table, log_store, seed
):
    """Each click refines the previous one: restriction analysis alone
    keeps its queries inside the parent click's footprint."""
    [session] = generate_drilldown_session_groups(
        log_table,
        DrillDownConfig(
            n_sessions=1, clicks_per_session=3, queries_per_click=3, seed=seed
        ),
    )
    footprint = None
    for click in session:
        for query in click:
            _assert_doors_agree(log_store, query, footprint)
        footprint = log_store.execute(click[0]).stats.active_chunks


# -- one WHERE per click: a click's queries share one classification -----------

#: SELECT shapes a click puts around its one WHERE.
_CLICK_SHAPES = (
    "SELECT country, COUNT(*) AS c FROM data WHERE {where} GROUP BY country",
    "SELECT table_name, SUM(latency) AS s, COUNT(*) AS c FROM data "
    "WHERE {where} GROUP BY table_name ORDER BY c DESC LIMIT 5",
    "SELECT user_name, latency FROM data WHERE {where}",
    "SELECT COUNT(DISTINCT user_name) AS u, MAX(latency) AS hi FROM data WHERE {where}",
    "SELECT date(timestamp) AS d, COUNT(*) AS c FROM data WHERE {where} GROUP BY d",
)


def _where_key(query: str) -> tuple:
    return ("where", parse_query(query).where.sql())


def _assert_same_answer_and_footprint(result, reference, query) -> None:
    assert result.content_equal(reference), query
    ours, theirs = result.stats, reference.stats
    assert ours.active_chunks == theirs.active_chunks, query
    assert ours.chunks_skipped == theirs.chunks_skipped, query
    assert ours.rows_skipped == theirs.rows_skipped, query
    assert ours.fields_accessed == theirs.fields_accessed, query
    # The reference scans what the caching store may serve from its cache.
    assert ours.rows_cached + ours.rows_scanned == theirs.rows_scanned, query
    assert theirs.rows_cached == 0


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    thresholds=st.lists(st.sampled_from([0, 50, 500, 5000]), min_size=3, max_size=3),
    doors=st.lists(st.sampled_from(["execute", "partials"]), min_size=5, max_size=5),
)
def test_a_clicks_queries_share_one_classification(log_table, seed, thresholds, doors):
    """Every query of a click agrees with a store that remembers nothing,
    and stays inside the footprint of the click it refines."""
    store = make_store(log_table)
    reference_store = make_store(log_table, cache_chunk_results=False)
    [session] = generate_drilldown_session_groups(
        log_table,
        DrillDownConfig(n_sessions=1, clicks_per_session=3, queries_per_click=1, seed=seed),
    )
    footprint = range(store.n_chunks)
    # Ascending thresholds: each click refines the one before it, so its
    # footprint covers the next one's.
    for [click_query], threshold in zip(session, sorted(thresholds)):
        conjuncts = [f"latency > {threshold}"]
        if (generated := parse_query(click_query).where) is not None:
            conjuncts.append(generated.sql())
        where = " AND ".join(conjuncts)
        new_where = _where_key(_CLICK_SHAPES[0].format(where=where)) not in store._chunk_cache
        reused_before = counters.get("datastore.restriction.reused")
        for shape, door in zip(_CLICK_SHAPES, doors):
            query = shape.format(where=where)
            reference = reference_store.execute(query)
            if door == "execute":
                result = store.execute(query)
            else:
                result = _through_partials(store, parse_query(query))
            _assert_same_answer_and_footprint(result, reference, query)
            assert set(result.stats.active_chunks) <= set(footprint), query
        # The first query classified (unless a click before left the same
        # WHERE behind), the others found its entry — the first click's
        # last one too, though it materialises date(timestamp).
        reused = counters.get("datastore.restriction.reused") - reused_before
        assert reused == len(_CLICK_SHAPES) - new_where
        assert len(reference_store._chunk_cache) == 0
        footprint = reference.stats.active_chunks


def test_int_and_float_literals_classify_apart(log_table):
    """``1`` and ``1.0`` compare and hash equal as AST literals; the
    dictionary probes tell them apart, and so do the entries' keys."""
    store = make_store(log_table)
    reference_store = make_store(log_table, cache_chunk_results=False)
    latency = next(
        v for v in store.field("latency").dictionary.values() if v is not None
    )
    queries = [
        f"SELECT country, COUNT(*) AS c FROM data WHERE latency IN ({literal!r}) "
        "GROUP BY country"
        for literal in (int(latency), float(latency))
    ]
    as_int, as_float = (parse_query(query).where for query in queries)
    assert as_int == as_float and hash(as_int) == hash(as_float)
    for query in queries * 2:
        _assert_same_answer_and_footprint(
            store.execute(query), reference_store.execute(query), query
        )
    assert _where_key(queries[0]) != _where_key(queries[1])
    assert all(_where_key(query) in store._chunk_cache for query in queries)


def test_materialising_a_field_mid_click_keeps_the_classification(log_table):
    store = make_store(log_table)
    reference_store = make_store(log_table, cache_chunk_results=False)
    first, second, third = (
        shape.format(where="latency > 500 AND NOT country IN ('US')")
        for shape in _CLICK_SHAPES[:3]
    )
    store.execute(first)
    cached = len(store._chunk_cache)
    store.ensure_field(parse_query("SELECT date(timestamp) FROM data").select[0].expr)
    assert len(store._chunk_cache) == cached
    references = [reference_store.execute(query) for query in (second, third)]
    compiled_before = counters.get("datastore.restriction.compiled")
    reused_before = counters.get("datastore.restriction.reused")
    results = [store.execute(query) for query in (second, third)]
    # Both found the entry the first query left.
    assert counters.get("datastore.restriction.reused") == reused_before + 2
    assert counters.get("datastore.restriction.compiled") == compiled_before
    for query, result, reference in zip((second, third), results, references):
        _assert_same_answer_and_footprint(result, reference, query)


def test_a_click_that_materialises_a_field_classifies_once(log_table):
    """Twenty queries on a fresh store, the fifth the first to need
    date(timestamp): one compile, nineteen reuses."""
    store = make_store(log_table)
    before = [counters.get(f"datastore.restriction.{n}") for n in ("compiled", "reused")]
    for shape in _CLICK_SHAPES * 4:
        store.execute(shape.format(where="latency > 500"))
    after = [counters.get(f"datastore.restriction.{n}") for n in ("compiled", "reused")]
    assert [b - a for a, b in zip(before, after)] == [1, 19]


def test_a_cache_too_small_for_the_classification_still_answers(log_table):
    store = make_store(log_table, cache_capacity_bytes=256)
    reference_store = make_store(log_table, cache_chunk_results=False)
    names = ("datastore.sql.parsed", "datastore.restriction.leaves_compiled")
    before = [counters.get(name) for name in names]
    for shape in _CLICK_SHAPES[:4] * 2:
        query = shape.format(where="latency > 500 AND table_name IN ('no_such_table')")
        other = shape.format(where="latency > 50")
        for sql in (query, other):
            _assert_same_answer_and_footprint(
                store.execute(sql), reference_store.execute(sql), sql
            )
    assert store.chunk_cache_stats().evictions > 0
    # Every chunk-cache entry outweighs the cache, so each put evicts the
    # one before: each of the 16 executions compiles its 2 or 1 leaves
    # again (8 x 3), as often as the reference store does. The memo, which
    # the chunk cache's size does not touch, parses the 8 texts once each,
    # in the reference store too, which caches no chunk result.
    after = [counters.get(name) for name in names]
    assert [a - b for a, b in zip(after, before)] == [8 + 8, 2 * 24]


def test_a_scan_gathers_its_rows_once_and_counts_them_once(log_table, monkeypatch):
    """One run reads each field's row positions once and tallies its rows
    once: COUNT(*) is the presence partial (the same arrays), and COUNT(x)
    and SUM over a NULL-free argument read the presence tally (one
    bincount without weights, not three). Each chunk's slice of a slot is
    what the slot computes for that chunk alone, and the cached weights are
    pinned: COUNT DISTINCT's slices hold uint32 pairs, not int64."""
    import numpy as np

    from repro.core.datastore import FieldStore, _GroupedKernel, _partials_weight
    from repro.core.plan import resolve_group_aliases

    store = make_store(log_table)
    parsed = resolve_group_aliases(
        parse_query(
            "SELECT country, COUNT(latency) AS n, COUNT(*) AS c, SUM(latency) AS s, "
            "COUNT(DISTINCT user_name) AS u FROM data GROUP BY country"
        )
    )
    kernel = _GroupedKernel(store, parsed, store.ensure_field)
    rng = np.random.default_rng(3)
    masks = [
        None if chunk_index % 3 == 0 else rng.random(rows) < 0.4
        for chunk_index, rows in enumerate(store.chunk_row_counts)
    ]
    chunks = tuple(range(store.n_chunks))
    positions, reads = FieldStore.row_positions, []
    bincount, tallies = np.bincount, []

    def counted_positions(field):
        reads.append(field.name)
        return positions(field)

    def counted_bincount(x, weights=None, minlength=0):
        tallies.append(weights is None)
        return bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(FieldStore, "row_positions", counted_positions)
    monkeypatch.setattr(np, "bincount", counted_bincount)
    partials = kernel.scan(run_of(store, chunks, masks, [True] * len(chunks)))
    monkeypatch.setattr(np, "bincount", bincount)
    assert sorted(reads) == ["country", "latency", "user_name"]
    assert tallies == [True, False]  # the tally, then SUM's weighted one
    assert partials[2] is partials[0] and partials[1] is not partials[0]
    weights = []
    for k, chunk_index in enumerate(chunks):
        mask = masks[chunk_index]
        alone = kernel.scan(run_of(store, (chunk_index,), (mask,), (True,)))
        ours = kernel.chunk_partials(partials, k)
        theirs = kernel.chunk_partials(alone, 0)
        assert ours[2] is ours[0]
        assert _partials_weight(ours) == _partials_weight(theirs)
        weights.append((_partials_weight(ours), _partials_weight(ours[-1])))
        for shared, own in zip(ours, theirs):
            assert [a.tobytes() for a in shared] == [a.tobytes() for a in own]
            assert [a.dtype for a in shared] == [a.dtype for a in own]
    assert [sum(column) for column in zip(*weights)] == [64752.0, 9432.0]


def test_a_warm_uncached_pass_parses_nothing_and_gathers_no_argument_gid(log_table):
    """A store that caches no chunk result, its nine ``full_scan`` classes
    and a text whose WHERE keeps no chunk, warm: no text parses again, the
    memo holds texts and clause pieces, no plan, and SUM / AVG / MIN / MAX
    read ``latency`` at its rows' CSR positions. What goes through its
    CSR column is MIN's and MAX's 59 winners (one per chunk and country)
    and the 11 rows ``project`` keeps; at the parent, every scanned row
    of q2, multi_agg, filter and user_avg too."""
    import numpy as np

    store = make_store(log_table, cache_chunk_results=False)
    nothing = FULL_SCAN_SHAPES["multi_agg"].replace(" GROUP BY", " WHERE latency < 0 GROUP BY")
    texts = {**FULL_SCAN_SHAPES, "nothing": nothing}
    for text in texts.values():
        store.execute(text)
    sizes: list[int] = []

    class Gathers(np.ndarray):
        """A CSR column that records how many entries each gather reads."""

        def take(self, indices, *args, **kwargs):
            sizes.append(np.size(indices))
            return np.asarray(self).take(indices, *args, **kwargs)

        def __getitem__(self, key):
            if isinstance(key, np.ndarray) and key.dtype.kind in "iu":
                sizes.append(key.size)
            return np.asarray(self)[key]

    index = store.field("latency").chunk_dict_index()
    index.gids = index.gids.view(Gathers)
    parsed, gathered = counters.get("datastore.sql.parsed"), {}
    for name, text in texts.items():
        store.execute(text)
        gathered[name], sizes[:] = list(sizes), []
    assert counters.get("datastore.sql.parsed") == parsed
    assert {key[0] for key in store._memo._entries} == {"sql", "clause"}
    assert {name: s for name, s in gathered.items() if s} == {
        "multi_agg": [59, 59],
        "project": [11],
    }


# -- … and the chunk cache keeps texts and conjuncts, never their answers ------


def _conjunct(sql: str):
    return parse_query(f"SELECT latency FROM data WHERE {sql}").where


_ONE = _conjunct("(latency / latency) IN (1)")
#: Conjunct twins: equal, and equally hashed, as ASTs; apart as rendered
#: text. The last pair has no SQL text (a Query door only): every row
#: has 1.0 and no dictionary probe finds True, so its answers differ too.
_TWINS = (
    (_conjunct("latency IN (7)"), _conjunct("latency IN (7.0)")),
    (_conjunct("latency IN (0.0)"), _conjunct("latency IN (-0.0)")),
    (_ONE, dataclasses.replace(_ONE, values=(True,))),
)


def _served_work(stats: ScanStats) -> dict:
    """Every work counter, what the chunk cache served counted as
    scanned: a store that caches nothing scans those chunks."""
    work = _work(stats)
    for unit in ("rows", "chunks"):
        work[f"{unit}_scanned"] += work.pop(f"{unit}_cached")
    work["cells_scanned"] += stats.rows_cached * max(len(stats.fields_accessed), 1)
    return work


_DOORS = ("text", "query", "partials")


def _answer(store: DataStore, query: Query, door: str) -> QueryResult:
    """``execute(text)``, ``execute(Query)`` or ``execute_partials(text)``
    and a root finalize; no SQL text spells True, so it goes as a Query."""
    text = query.sql()
    sent = query if door == "query" or "(True)" in text else text
    return _through_partials(store, sent) if door == "partials" else store.execute(sent)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    twins=st.sampled_from(_TWINS),
    capacity=st.sampled_from([8192, 64 * 1024 * 1024]),
    policies=st.lists(st.sampled_from([None, *policy_names()]), min_size=3, max_size=3),
    doors=st.lists(st.sampled_from(_DOORS), min_size=6, max_size=6),
)
@example(seed=1, twins=_TWINS[2], capacity=8192, policies=[None] * 3, doors=_DOORS * 2)
def test_a_cached_store_does_an_uncached_stores_work(
    log_table, seed, twins, capacity, policies, doors
):
    """Drill-down sessions whose clicks add a twin conjunct each (the
    first, then both) and repeat every text: the store that keeps texts,
    conjuncts and WHEREs in its chunk cache answers and counts like one
    that keeps nothing, evicting mid-click or swapping its cache between
    clicks."""
    first, second = twins
    assert first == second and hash(first) == hash(second)
    assert first.sql() != second.sql()
    store = make_store(log_table, cache_capacity_bytes=capacity)
    reference_store = make_store(log_table, cache_chunk_results=False)
    [session] = generate_drilldown_session_groups(
        log_table,
        DrillDownConfig(
            n_sessions=1, clicks_per_session=3, queries_per_click=3, seed=seed
        ),
    )
    extras = (first, BinaryOp("AND", first, second), BinaryOp("AND", first, second))
    for click, extra, policy in zip(session, extras, policies):
        if policy is not None:
            store.configure_runtime(cache_policy=policy)
        for text, door in zip(click * 2, doors):
            parsed = parse_query(text)
            where = extra
            if parsed.where is not None:
                where = BinaryOp("AND", parsed.where, extra)
            query = dataclasses.replace(parsed, where=where)
            result = _answer(store, query, door)
            reference = reference_store.execute(query)
            assert result.content_equal(reference), query
            assert _served_work(result.stats) == _served_work(reference.stats), query
            assert reference.stats.rows_cached == 0
    assert len(reference_store._chunk_cache) == 0


def test_a_failure_is_never_cached(log_table):
    """A text that does not parse or targets another table raises the
    same typed error every time, parsed every time, and leaves no entry."""
    store = make_store(log_table)
    failures = [
        ("SELECT country FROM data WHERE", SqlSyntaxError),
        ("SELECT country FROM elsewhere WHERE latency > 5", ExecutionError),
    ]
    for text, error in failures * 2:
        parsed_before = counters.get("datastore.sql.parsed")
        with pytest.raises(error):
            store.execute(text)
        with pytest.raises(error):
            store.execute_partials(text)
        assert counters.get("datastore.sql.parsed") == parsed_before + 2
    assert len(store._chunk_cache) == 0


def test_the_memo_keeps_what_texts_make_by_count(log_table):
    """The prepare memo: bounded by entries, least recently used first
    out; emptied by a new cache, an unpickle and a deep copy; as busy in
    a store that caches no chunk result; never fed by a text that fails;
    and a Prepared handed back in answers and counts as its text."""
    from repro.core import datastore as datastore_module

    def parsed(run) -> int:
        before = counters.get("datastore.sql.parsed")
        run()
        return counters.get("datastore.sql.parsed") - before

    store = make_store(log_table)
    bound = datastore_module._MEMO_ENTRIES
    texts = [f"SELECT country FROM data LIMIT {n}" for n in range(bound)]
    for text in texts:  # one head piece, then a LIMIT piece and the text each
        store.prepare(text)
    assert len(store._memo) == bound
    assert ("clause", "SELECT country FROM data ") in store._memo
    assert parsed(lambda: store.prepare(texts[-1])) == 0
    assert parsed(lambda: store.prepare(texts[0])) == 1  # evicted, parsed again
    store.configure_runtime(cache_policy="lru")
    assert len(store._memo) == 0
    store.prepare(texts[0])
    for clone in (pickle.loads(pickle.dumps(store)), copy.deepcopy(store)):
        assert len(clone._memo) == 0 and len(store._memo) == 3

    forgetful = make_store(log_table, cache_chunk_results=False)
    assert parsed(lambda: [forgetful.execute(texts[1]) for __ in range(3)]) == 1
    assert len(forgetful._memo) == 3

    store.configure_runtime(cache_policy="lru")
    for text, error in (
        ("SELECT country FROM data WHERE", SqlSyntaxError),
        ("SELECT country FROM elsewhere WHERE latency > 5", ExecutionError),
    ):
        with pytest.raises(error):
            store.prepare(text)
    assert len(store._memo) == 0

    twin = make_store(log_table)
    click = [shape.format(where="latency > 500") for shape in _CLICK_SHAPES]
    for text in [*click, "SELECT COUNT(*) AS c FROM data WHERE latency < 0"]:
        prepared = twin.prepare(text)
        assert twin.prepare(prepared) is prepared
        ours, theirs = store.execute(text), twin.execute(prepared)
        assert ours.content_equal(theirs), text
        assert _work(ours.stats) == _work(theirs.stats), text
        ours, theirs = store.execute_partials(text), twin.execute_partials(prepared)
        assert _work(ours[0]) == _work(theirs[0]), text


# -- … and on the work the parent commit did -----------------------------------
# Restriction analysis classifies every chunk of a query in one vector
# pass (PR 15); which chunks it skips, serves from the cache or scans may
# not move, so the counters below are literals recorded at the commit
# before it (PARENT_* at the end of this file), not a second run.


def _work_row(stats: ScanStats) -> tuple:
    """Every work counter, in ``WORK_COUNTERS`` order."""
    return tuple(_work(stats).values())


def _drilldown_work(log_table, seed: int) -> list[tuple]:
    """A fresh store's work over one session: three clicks, each refining
    the one before, then the first click again, warm."""
    store = make_store(log_table)
    [session] = generate_drilldown_session_groups(
        log_table,
        DrillDownConfig(
            n_sessions=1, clicks_per_session=3, queries_per_click=3, seed=seed
        ),
    )
    return [
        _work_row(store.execute(query).stats)
        for click in [*session, session[0]]
        for query in click
    ]


@pytest.mark.parametrize("name", sorted(FULL_SCAN_SHAPES))
def test_full_scan_shapes_do_the_work_the_parent_did(log_table, name):
    # A fresh store: virtual-field names and the chunk cache start empty.
    result = make_store(log_table).execute(FULL_SCAN_SHAPES[name])
    assert _work_row(result.stats) == PARENT_FULL_SCAN_WORK[name]


@pytest.mark.parametrize("seed", [1, 23, 37])
def test_drilldown_sessions_do_the_work_the_parent_did(log_table, seed):
    assert _drilldown_work(log_table, seed) == PARENT_DRILLDOWN_WORK[seed]


def test_zero_row_store_with_a_where():
    """One chunk, no rows: classified (as skipped) through the same path."""
    store = DataStore.from_table(Table.from_columns({"v": [], "w": []}))
    grouped = store.execute(
        "SELECT v, COUNT(*) AS c FROM data WHERE w > 1 AND NOT v IN ('a') GROUP BY v"
    )
    projected = store.execute("SELECT v, w FROM data WHERE w IS NULL OR v = 'a'")
    for result in (grouped, projected):
        assert result.table.n_rows == 0 and result.complete
        assert _work_row(result.stats) == (*[0] * 4, 1, 1, *[0] * 5, (), ("v", "w"), 32)


def test_a_click_probes_the_chunk_cache_as_the_parent_did(log_table):
    """Hits and misses are published once per query, by count: a click's
    totals, cold then warm, are the parent's per-chunk increments."""
    store = make_store(log_table)
    countries = [v for v in store.field("country").dictionary.values() if v]
    tables = [v for v in store.field("table_name").dictionary.values() if v]
    where = (
        f"country IN ('{countries[0]}', '{countries[2]}') "
        f"OR table_name IN ('{tables[1]}') OR latency > 9000"
    )
    click = [
        f"SELECT {group}, {metric} AS m FROM data WHERE {where} GROUP BY {group}"
        for group in ("country", "table_name", "user_name")
        for metric in ("COUNT(*)", "COUNT(latency)", "COUNT(DISTINCT user_name)")
        + tuple(f"{name}(latency)" for name in ("SUM", "AVG", "MIN", "MAX"))
    ][:20]
    names = ("datastore.chunk_cache.hits", "datastore.chunk_cache.misses")
    totals = []
    for __ in range(2):
        before = [counters.get(name) for name in names]
        for query in click:  # the classify phase is still charged
            assert store.execute(query).stats.restriction_seconds > 0
        totals.append(tuple(counters.get(n) - b for n, b in zip(names, before)))
    assert totals == [(0, 40), (40, 0)]
    # Every probe of the chunk cache: the partials' 40 misses cold and 40
    # hits warm, the WHERE entry's 1 miss and 19 + 20 hits, and the one
    # compile's 3 leaf misses. Texts, clause pieces and plans are memo
    # entries; the chunk cache keeps only data-sized ones.
    stats = store.chunk_cache_stats()
    assert (stats.hits, stats.misses) == (79, 44)


def test_warm_chunk_cache_is_counted_the_same_by_both_doors(log_table):
    """FULL chunks admitted by ``execute`` are hits for ``execute_partials``."""
    store = make_store(log_table)
    cold = store.execute(QUERY_1)
    warm_stats, __ = store.execute_partials(QUERY_1)
    warm = store.execute(QUERY_1)
    assert cold.stats.chunks_cached == 0
    assert warm.stats.chunks_cached == cold.stats.chunks_scanned > 0
    assert _work(warm_stats) == _work(warm.stats)


def test_concurrent_queries_publish_their_own_evictions(log_table):
    """Thread clients against a bare store: the published eviction
    counter equals what the cache evicted, no delta counted twice."""
    store = make_store(log_table, cache_capacity_bytes=4096)
    queries = [
        f"SELECT {group}, {metric} FROM data GROUP BY {group}"
        for group in ("country", "table_name", "user_name")
        for metric in ("COUNT(*)", "SUM(latency)", "MAX(latency)")
    ]
    for query in queries:  # materialize nothing while threads run
        store.execute(query)
    published_before = counters.get("datastore.chunk_cache.evictions")
    evicted_before = store.chunk_cache_stats().evictions
    errors: list[Exception] = []

    def client(offset: int) -> None:
        try:
            for step in range(len(queries)):
                store.execute(queries[(offset + step) % len(queries)])
        except Exception as error:  # surfaced by the assert below
            errors.append(error)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=client, args=(offset,))
            for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    evicted = store.chunk_cache_stats().evictions - evicted_before
    assert evicted > 0
    assert (
        counters.get("datastore.chunk_cache.evictions") - published_before
        == evicted
    )


# -- projection fans out, so it degrades like a grouped query ------------------


@contextmanager
def _killing_one_chunk(**overrides):
    """A process store plus a run-it function whose executor SIGKILLs
    the worker on every attempt at one active chunk of the query."""
    supervision = dataclasses.replace(_SUPERVISION, max_retries=0)
    store = _process_store(supervision, **overrides)

    def run(target: int):
        plan = ChaosPlan(faults=((target, "kill"),), persistent=(target,))
        with _chaos(store, plan):
            return store.execute(_PROJECTION)

    try:
        yield store, run
    finally:
        store.executor.close()  # unlinks the shared-memory arena


def _chunk_rows(store: DataStore, chunk_index: int, names) -> list[tuple]:
    """One chunk's rows of the fields ``names``, decoded one by one."""
    columns = [
        [field.dictionary.value(int(g)) for g in field.row_global_ids(chunk_index)]
        for field in map(store.field, names)
    ]
    return list(zip(*columns))


def test_projection_degrades_with_exact_coverage():
    from collections import Counter

    with _killing_one_chunk() as (store, run):
        expected = store.execute(_PROJECTION)
        target = expected.stats.active_chunks[1]
        result = run(target)
        # The oracle for "everything but the lost chunk's rows, and
        # nothing else": the full answer minus that chunk's matching rows.
        dropped = [
            row
            for row in _chunk_rows(store, target, ("country", "latency"))
            if row[1] is not None and row[1] > 100
        ]
    lost = store.chunk_row_counts[target]
    assert not result.complete
    assert result.stats.chunks_unserved == 1
    assert result.stats.rows_unserved == lost
    assert result.row_coverage == (store.n_rows - lost) / store.n_rows
    assert result.stats.chunks_scanned == expected.stats.chunks_scanned - 1
    assert dropped
    assert Counter(result.rows()) == Counter(expected.rows()) - Counter(dropped)
    assert result.table.n_rows == expected.table.n_rows - len(dropped)


def test_projection_strict_mode_raises_chunk_unavailable():
    with _killing_one_chunk(degrade=False) as (store, run):
        target = store.execute(_PROJECTION).stats.active_chunks[1]
        with pytest.raises(ChunkUnavailableError):
            run(target)


# -- the work counters of the parent commit (cf0d273) --------------------------
# One row per query, in WORK_COUNTERS order: rows total / skipped / cached /
# scanned, chunks total / skipped / cached / scanned, cells scanned, chunks /
# rows unserved, active chunks, fields accessed, memory bytes.

# fmt: off
_ALL_CHUNKS = tuple(range(57))

PARENT_FULL_SCAN_WORK: dict[str, tuple] = {
    "approx": (4000, 0, 0, 4000, 57, 0, 0, 57, 8000, 0, 0, _ALL_CHUNKS, ("country", "table_name"), 30228),
    "distinct": (4000, 0, 0, 4000, 57, 0, 0, 57, 8000, 0, 0, _ALL_CHUNKS, ("table_name", "user_name"), 43830),
    "filter": (4000, 0, 0, 4000, 57, 0, 0, 57, 8000, 0, 0, _ALL_CHUNKS, ("country", "latency"), 22565),
    "multi_agg": (4000, 0, 0, 4000, 57, 0, 0, 57, 8000, 0, 0, _ALL_CHUNKS, ("country", "latency"), 22565),
    "project": (4000, 3268, 0, 732, 57, 47, 0, 10, 2196, 0, 0, (10, 12, 27, 38, 39, 43, 47, 53, 55, 56), ("country", "latency", "table_name"), 51874),
    "q1": (4000, 0, 0, 4000, 57, 0, 0, 57, 4000, 0, 0, _ALL_CHUNKS, ("country",), 919),
    "q2": (4000, 0, 0, 4000, 57, 0, 0, 57, 8000, 0, 0, _ALL_CHUNKS, ("__v0", "latency"), 31486),
    "q3": (4000, 0, 0, 4000, 57, 0, 0, 57, 4000, 0, 0, _ALL_CHUNKS, ("table_name",), 29309),
    "user_avg": (4000, 0, 0, 4000, 57, 0, 0, 57, 12000, 0, 0, _ALL_CHUNKS, ("latency", "table_name", "user_name"), 65476),
}

PARENT_DRILLDOWN_WORK: dict[int, list[tuple]] = {
    1: [
        (4000, 2629, 0, 1371, 57, 40, 0, 17, 4113, 0, 0, (29, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56), ("__v0", "country", "latency"), 32405),
        (4000, 2629, 0, 1371, 57, 40, 0, 17, 2742, 0, 0, (29, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56), ("country", "table_name"), 30228),
        (4000, 2629, 0, 1371, 57, 40, 0, 17, 2742, 0, 0, (29, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56), ("__v0", "country"), 10759),
        (4000, 3916, 0, 84, 57, 56, 0, 1, 252, 0, 0, (43,), ("country", "latency", "table_name"), 51874),
        (4000, 3916, 0, 84, 57, 56, 0, 1, 252, 0, 0, (43,), ("country", "latency", "table_name"), 51874),
        (4000, 3916, 0, 84, 57, 56, 0, 1, 168, 0, 0, (43,), ("country", "table_name"), 30228),
        (4000, 4000, 0, 0, 57, 57, 0, 0, 0, 0, 0, (), ("country", "latency", "table_name"), 51874),
        (4000, 4000, 0, 0, 57, 57, 0, 0, 0, 0, 0, (), ("country", "latency", "table_name"), 51874),
        (4000, 4000, 0, 0, 57, 57, 0, 0, 0, 0, 0, (), ("__v0", "country", "latency", "table_name"), 61714),
        (4000, 2629, 1371, 0, 57, 40, 17, 0, 0, 0, 0, (29, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56), ("__v0", "country", "latency"), 32405),
        (4000, 2629, 1371, 0, 57, 40, 17, 0, 0, 0, 0, (29, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56), ("country", "table_name"), 30228),
        (4000, 2629, 1371, 0, 57, 40, 17, 0, 0, 0, 0, (29, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56), ("__v0", "country"), 10759),
    ],
    23: [
        (4000, 0, 0, 4000, 57, 0, 0, 57, 4000, 0, 0, _ALL_CHUNKS, ("user_name",), 14521),
        (4000, 0, 0, 4000, 57, 0, 0, 57, 8000, 0, 0, _ALL_CHUNKS, ("country", "latency"), 22565),
        (4000, 0, 0, 4000, 57, 0, 0, 57, 8000, 0, 0, _ALL_CHUNKS, ("latency", "user_name"), 36167),
        (4000, 2988, 0, 1012, 57, 44, 0, 13, 2024, 0, 0, (1, 3, 4, 8, 18, 24, 27, 30, 32, 34, 41, 52, 56), ("__v0", "table_name"), 39149),
        (4000, 2988, 0, 1012, 57, 44, 0, 13, 2024, 0, 0, (1, 3, 4, 8, 18, 24, 27, 30, 32, 34, 41, 52, 56), ("country", "table_name"), 30228),
        (4000, 2988, 0, 1012, 57, 44, 0, 13, 3036, 0, 0, (1, 3, 4, 8, 18, 24, 27, 30, 32, 34, 41, 52, 56), ("__v0", "latency", "table_name"), 60795),
        (4000, 3591, 0, 409, 57, 52, 0, 5, 1227, 0, 0, (1, 8, 41, 52, 56), ("country", "latency", "table_name"), 51874),
        (4000, 3591, 0, 409, 57, 52, 0, 5, 1636, 0, 0, (1, 8, 41, 52, 56), ("country", "latency", "table_name", "user_name"), 66395),
        (4000, 3591, 0, 409, 57, 52, 0, 5, 1227, 0, 0, (1, 8, 41, 52, 56), ("country", "latency", "table_name"), 51874),
        # The replayed first click is served from the chunk cache:
        # materialising __v0 in the second click dropped none of its entries.
        (4000, 0, 4000, 0, 57, 0, 57, 0, 0, 0, 0, _ALL_CHUNKS, ("user_name",), 14521),
        (4000, 0, 4000, 0, 57, 0, 57, 0, 0, 0, 0, _ALL_CHUNKS, ("country", "latency"), 22565),
        (4000, 0, 4000, 0, 57, 0, 57, 0, 0, 0, 0, _ALL_CHUNKS, ("latency", "user_name"), 36167),
    ],
    37: [
        (4000, 3702, 0, 298, 57, 53, 0, 4, 894, 0, 0, (3, 4, 29, 34), ("__v0", "country", "latency"), 32405),
        (4000, 3702, 0, 298, 57, 53, 0, 4, 894, 0, 0, (3, 4, 29, 34), ("country", "latency", "user_name"), 37086),
        (4000, 3702, 0, 298, 57, 53, 0, 4, 894, 0, 0, (3, 4, 29, 34), ("__v0", "country", "latency"), 32405),
        (4000, 4000, 0, 0, 57, 57, 0, 0, 0, 0, 0, (), ("country", "latency", "user_name"), 37086),
        (4000, 4000, 0, 0, 57, 57, 0, 0, 0, 0, 0, (), ("__v0", "country", "latency"), 32405),
        (4000, 4000, 0, 0, 57, 57, 0, 0, 0, 0, 0, (), ("country", "latency", "user_name"), 37086),
        (4000, 4000, 0, 0, 57, 57, 0, 0, 0, 0, 0, (), ("country", "user_name"), 15440),
        (4000, 4000, 0, 0, 57, 57, 0, 0, 0, 0, 0, (), ("country", "table_name"), 30228),
        (4000, 4000, 0, 0, 57, 57, 0, 0, 0, 0, 0, (), ("country", "latency", "user_name"), 37086),
        (4000, 3702, 221, 77, 57, 53, 3, 1, 231, 0, 0, (3, 4, 29, 34), ("__v0", "country", "latency"), 32405),
        (4000, 3702, 221, 77, 57, 53, 3, 1, 231, 0, 0, (3, 4, 29, 34), ("country", "latency", "user_name"), 37086),
        (4000, 3702, 221, 77, 57, 53, 3, 1, 231, 0, 0, (3, 4, 29, 34), ("__v0", "country", "latency"), 32405),
    ],
}
# fmt: on
