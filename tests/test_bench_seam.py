"""Tier-1 guard of the seam ``bench/`` observes the query path through.

``bench/trace.py`` records its per-layer table from *outside*: it
replaces five module globals of ``repro.core.datastore`` and a handful
of methods with span-recording wrappers. If the pipeline stops calling
one of them through that namespace, the benchmark keeps running and
silently reports zeros — so the same patches are installed here and
every span is required to show up. The second half pins the shape the
patches rely on: one query pipeline, hence one call site of each
patched function.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core import datastore as datastore_module
from repro.monitoring import counters
from repro.sql.parser import parse_query
from repro.workload.queries import QUERY_1

from tests import restriction_oracle
from tests.conftest import make_store
from tests.test_restriction import _tree

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT) not in sys.path:  # ``bench`` is a top-level package there
    sys.path.insert(0, str(_ROOT))

_PROJECTION = (
    "SELECT table_name, latency FROM data WHERE latency > 500 "
    "ORDER BY latency DESC LIMIT 5"
)
_COMMON_SPANS = {
    "sql.parse",
    "plan.resolve",
    "restriction.compile",
    "datastore.execute",
    "datastore.finalize",
    "executor.map",
}


@pytest.fixture
def tracer():
    from bench.trace import Tracer, install_layer_patches

    tracer = Tracer()
    install_layer_patches(tracer)
    tracer.enabled = True
    try:
        yield tracer
    finally:
        tracer.unpatch_all()


@pytest.mark.parametrize(
    "query, spans",
    [
        (QUERY_1, _COMMON_SPANS | {"plan.group"}),
        (_PROJECTION, _COMMON_SPANS),
    ],
    ids=["grouped", "projection"],
)
def test_every_layer_patch_sees_the_query(log_table, tracer, query, spans):
    store = make_store(log_table)
    store.execute(query)
    calls = {name: span.calls for name, span in tracer.aggregate().items()}
    assert {name: calls.get(name, 0) for name in spans} == dict.fromkeys(spans, 1)
    assert ("plan.group" in calls) == ("plan.group" in spans)
    # The query path reads the restriction's arrays, never a chunk's view.
    assert tracer.tallies["restriction.decide"].calls == 0


def test_patches_are_removed_again(tracer):
    tracer.unpatch_all()
    for name in ("parse_query", "compile_restriction", "finalize"):
        assert not hasattr(getattr(datastore_module, name), "__wrapped__")
    assert not hasattr(datastore_module.DataStore.execute, "__wrapped__")


def _call_sites(tree: ast.AST, name: str) -> list[str]:
    """Enclosing function of each call to ``name`` / ``….name``."""
    sites = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func  # Name (``f(…)``) or Attribute (``x.f(…)``)
            if name in (getattr(callee, "id", None), getattr(callee, "attr", None)):
                sites.append(function.name)
    return sites


def test_the_query_path_has_not_forked_again():
    tree = ast.parse(Path(datastore_module.__file__).read_text(encoding="utf-8"))
    assert _call_sites(tree, "compile_restriction") == ["_run_pipeline"]
    assert _call_sites(tree, "map_supervised") == ["_run_pipeline"]
    assert _call_sites(tree, "make_executor") == ["_build_runtime"]
    assert _call_sites(tree, "decide") == []  # the query path reads arrays


# -- the work gate: classification is O(leaves) numpy passes, not O(chunks) ----


def _restricted_queries(store) -> list[str]:
    """Ten queries, three WHERE leaves each, over the same three fields."""
    countries = [v for v in store.field("country").dictionary.values() if v]
    tables = [v for v in store.field("table_name").dictionary.values() if v]
    return [
        "SELECT country, COUNT(*) AS c FROM data WHERE "
        f"country IN ('{countries[i % len(countries)]}', '{countries[-1 - i]}') "
        f"AND latency > {100 * i} AND NOT table_name IN ('{tables[i]}') "
        "GROUP BY country"
        for i in range(10)
    ]


@pytest.fixture
def passes(monkeypatch):
    """Records every leaf's vector pass, every row-vector gather a leaf
    makes and every chunk-dictionary index built."""
    from repro.core.restriction import _Leaf
    from repro.storage.chunk import ChunkDictIndex

    # The objects themselves are kept, so no two of them share an id().
    seen = SimpleNamespace(leaves=[], row_vectors=[], indexes=[])
    leaf_outcomes, leaf_row_vectors = _Leaf.outcomes, _Leaf.row_vectors

    def counted_outcomes(leaf):
        seen.leaves.append(leaf)
        return leaf_outcomes(leaf)

    def counted_row_vectors(leaf, rows, positions_of):
        seen.row_vectors.append(leaf)
        return leaf_row_vectors(leaf, rows, positions_of)

    def counted_index(chunk_dicts):
        seen.indexes.append(ChunkDictIndex(chunk_dicts))
        return seen.indexes[-1]

    monkeypatch.setattr(_Leaf, "outcomes", counted_outcomes)
    monkeypatch.setattr(_Leaf, "row_vectors", counted_row_vectors)
    monkeypatch.setattr(datastore_module, "ChunkDictIndex", counted_index)
    return seen


def test_one_vector_pass_per_leaf_one_index_per_field(log_table, tracer, passes):
    store = make_store(log_table)
    queries = _restricted_queries(store)
    store.execute(queries[0])
    assert len(passes.leaves) == 3  # one pass per WHERE leaf
    for query in queries[1:]:
        store.execute(query)
    assert len(passes.leaves) == len({id(leaf) for leaf in passes.leaves}) == 30
    # A leaf gathers the rows of every undecided chunk at once, or nothing.
    assert len({*map(id, passes.row_vectors)}) == len(passes.row_vectors) <= 30
    assert tracer.tallies["restriction.decide"].calls == 0
    restricted = [store.field(n) for n in ("country", "latency", "table_name")]
    assert sorted(map(id, passes.indexes)) == sorted(
        id(field._chunk_dict_index) for field in restricted
    )


def test_concurrent_first_touch_classifies_identically(log_table, passes):
    reference_store = make_store(log_table, cache_chunk_results=False)
    queries = _restricted_queries(reference_store)[:4]
    expected = [reference_store.execute(query) for query in queries]
    store = make_store(log_table, cache_chunk_results=False)
    results: dict[int, list] = {}
    barrier = threading.Barrier(4)

    def client(worker: int) -> None:
        barrier.wait(timeout=60)
        rotated = queries[worker:] + queries[:worker]
        results[worker] = [(q, store.execute(q)) for q in rotated]

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for answered in results.values():
        for query, result in answered:
            reference = expected[queries.index(query)]
            assert result.content_equal(reference)
            assert result.stats.active_chunks == reference.stats.active_chunks
            assert result.stats.rows_scanned == reference.stats.rows_scanned
    # Racing builders may each have built an index; one was published per
    # field, and it is the one every later query classifies through.
    built = len(passes.indexes)
    survivors = {
        name: store.field(name)._chunk_dict_index
        for name in ("country", "latency", "table_name")
    }
    assert all(any(s is i for i in passes.indexes) for s in survivors.values())
    store.execute(queries[0])
    assert len(passes.indexes) == built
    assert all(
        store.field(name)._chunk_dict_index is index
        for name, index in survivors.items()
    )


# -- the work gate of a click: one classification for its twenty queries -------


def _click(store) -> list[str]:
    """Twenty queries around the WHERE of one of ``_restricted_queries``."""
    where = parse_query(_restricted_queries(store)[3]).where.sql()
    metrics = ["COUNT(*)", "COUNT(latency)", "COUNT(DISTINCT user_name)"]
    metrics += [f"{name}(latency)" for name in ("SUM", "AVG", "MIN", "MAX")]
    return [
        f"SELECT {group}, {metric} AS m FROM data WHERE {where} GROUP BY {group}"
        for group in ("country", "table_name", "user_name")
        for metric in metrics
    ][:20]


def _undecided_chunks(store, query: str) -> list[int]:
    """The chunks the vector pass leaves to the rows (per-chunk oracle)."""
    root = _tree(store, parse_query(query).where)
    summaries = (restriction_oracle.summary(root, store, i) for i in range(store.n_chunks))
    return [i for i, s in enumerate(summaries) if s.may_true and not s.all_true]


def test_a_click_classifies_its_where_once(log_table, tracer, passes):
    store = make_store(log_table)
    click = _click(store)
    for query in click:
        store.execute(query)
    assert tracer.aggregate()["restriction.compile"].calls == 1
    assert len(passes.leaves) == 3
    assert len(_undecided_chunks(store, click[0])) > 1
    # One gather per leaf for all of them, not one per undecided chunk.
    assert passes.row_vectors == passes.leaves
    # A store that remembers nothing runs, every time, what a hit skips.
    forgetful = make_store(log_table, cache_chunk_results=False)
    for query in click:
        forgetful.execute(query)
    assert tracer.aggregate()["restriction.compile"].calls == 1 + 20
    assert len(passes.leaves) == len(passes.row_vectors) == (1 + 20) * 3
    assert tracer.tallies["restriction.decide"].calls == 0


def test_concurrent_first_touch_of_a_where_leaves_one_classification(log_table):
    reference_store = make_store(log_table, cache_chunk_results=False)
    click = _click(reference_store)
    expected = {query: reference_store.execute(query) for query in click}
    store = make_store(log_table)
    for query in click:  # fill the partials' cache under another WHERE
        store.execute(query.replace("latency > 300", "latency > 200"))
    key = ("where", parse_query(click[0]).where.sql())
    assert key not in store.chunk_cache
    results: dict[int, list] = {}
    barrier = threading.Barrier(4)

    def client(worker: int) -> None:
        barrier.wait(timeout=60)
        rotated = click[5 * worker :] + click[: 5 * worker]
        results[worker] = [(q, store.execute(q)) for q in rotated]

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for answered in results.values():
        for query, result in answered:
            assert result.content_equal(expected[query])
            assert result.stats.active_chunks == expected[query].stats.active_chunks
            assert result.stats.fields_accessed == expected[query].stats.fields_accessed
    # Racing threads may each have classified; the last put is what
    # stayed, and every later query of the click reads that one.
    published = store.chunk_cache.get(key)
    assert published is not None
    reused_before = counters.get("datastore.restriction.reused")
    compiled_before = counters.get("datastore.restriction.compiled")
    for query in click:
        assert store.execute(query).content_equal(expected[query])
    assert counters.get("datastore.restriction.reused") == reused_before + 20
    assert counters.get("datastore.restriction.compiled") == compiled_before
    assert store.chunk_cache.get(key) is published


# -- the work gate of the §2.4 loop: counts on the nine full_scan shapes -------


def test_full_scan_shapes_sort_nothing_and_decode_only_survivors(
    log_table, monkeypatch
):
    import numpy as np

    from bench.workloads import CLASSES
    from repro.core.datastore import FieldStore
    from repro.storage.dictionary import Dictionary

    store = make_store(log_table, cache_chunk_results=False)
    # The warm-up pass materialises date(timestamp) and fills the memos.
    expected = {query.name: store.execute(query.sql) for query in CLASSES}
    calls = SimpleNamespace(unique=0, row_gids=0, decoded={})
    unique, row_global_ids, value = np.unique, FieldStore.row_global_ids, Dictionary.value

    def counted_unique(*args, **kwargs):
        calls.unique += 1
        return unique(*args, **kwargs)

    def counted_row_gids(field, chunk_index):
        calls.row_gids += 1
        return row_global_ids(field, chunk_index)

    def counted_value(dictionary, global_id):
        calls.decoded[id(dictionary)] = calls.decoded.get(id(dictionary), 0) + 1
        return value(dictionary, global_id)

    monkeypatch.setattr(np, "unique", counted_unique)
    monkeypatch.setattr(FieldStore, "row_global_ids", counted_row_gids)
    monkeypatch.setattr(Dictionary, "value", counted_value)
    for query in CLASSES:
        calls.decoded.clear()
        result = store.execute(query.sql)
        assert result.content_equal(expected[query.name]), query.name
        if not query.grouped:
            continue
        parsed = datastore_module.resolve_group_aliases(
            datastore_module.parse_query(query.sql)
        )
        groups = store.field(store.ensure_field(parsed.group_by[0])).dictionary
        assert len(groups) > query.limit, query.name
        # k group values, not one per group; beyond them only multi_agg
        # decodes anything: MIN and MAX of latency, k survivors each.
        decoded = dict(calls.decoded)
        assert decoded.pop(id(groups)) == query.limit, query.name
        others = 2 * query.limit if query.name == "multi_agg" else 0
        assert sum(decoded.values()) == others, query.name
    assert calls.unique == 0
    assert calls.row_gids == 0
