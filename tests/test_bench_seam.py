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
from pathlib import Path

import pytest

from repro.core import datastore as datastore_module
from repro.workload.queries import QUERY_1

from tests.conftest import make_store

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
    result = store.execute(query)
    calls = {name: span.calls for name, span in tracer.aggregate().items()}
    assert {name: calls.get(name, 0) for name in spans} == dict.fromkeys(spans, 1)
    assert ("plan.group" in calls) == ("plan.group" in spans)
    # No candidate pruning: the restriction decides every chunk once.
    decide = tracer.tallies["restriction.decide"]
    assert decide.calls == store.n_chunks == result.stats.chunks_total
    assert decide.outcomes["SKIP"] == result.stats.chunks_skipped


def test_candidate_pruned_chunks_are_never_decided(log_table, tracer):
    store = make_store(log_table)
    candidates = range(0, store.n_chunks, 3)
    store.execute(QUERY_1, candidate_chunks=candidates)
    assert tracer.tallies["restriction.decide"].calls == len(candidates)


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
