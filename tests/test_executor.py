"""The execution-strategy layer: parallel == serial, cache bounded.

The tentpole guarantees of the executor rework, tested head-on:

- **Determinism**: a parallel store returns bit-identical rows and
  identical ScanStats counters to a serial store for arbitrary query
  sequences at arbitrary worker counts (hypothesis-driven);
- **Bounded cache**: the chunk-result cache never exceeds its byte
  budget, evicts under pressure, still serves hits, and keeps them when
  a virtual field materializes (its keys name fields by spec, which a
  new field cannot alias).
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.executor import (
    ThreadExecutor,
    ProcessExecutor,
    SerialExecutor,
    default_worker_count,
    executor_names,
    make_executor,
)
from repro.errors import ExecutionError
from repro.sql.parser import parse_query
from repro.workload.generator import LogsConfig, generate_query_logs

from tests.sanitizer import CapturedStateMutation, SanitizingExecutor
from tests.test_query_pipeline import FULL_SCAN_SHAPES

_TABLE = generate_query_logs(
    LogsConfig(n_rows=700, n_days=10, n_teams=5, seed=47, null_latency_fraction=0.05)
)


def _build(**overrides) -> DataStore:
    options = DataStoreOptions(
        partition_fields=("country", "table_name"),
        max_chunk_rows=48,
        reorder_rows=True,
        **overrides,
    )
    return DataStore.from_table(_TABLE, options)


# Both stores see the exact same query sequence, so their cache states
# must evolve identically; only the executor differs.
_SERIAL = _build()
_PARALLEL = _build(executor="thread", workers=4)

_QUERIES = st.sampled_from(
    [
        "SELECT country, COUNT(*) AS c FROM data GROUP BY country "
        "ORDER BY c DESC LIMIT 8",
        "SELECT table_name, SUM(latency) AS s, MIN(latency) AS lo "
        "FROM data GROUP BY table_name ORDER BY s DESC LIMIT 10",
        "SELECT user_name, COUNT(DISTINCT table_name) AS t FROM data "
        "GROUP BY user_name ORDER BY t DESC LIMIT 5",
        "SELECT country, AVG(latency) AS a FROM data "
        "WHERE latency > 100 GROUP BY country ORDER BY a ASC LIMIT 6",
        "SELECT date(timestamp) AS d, COUNT(*) AS c FROM data "
        "GROUP BY d ORDER BY c DESC LIMIT 7",
        "SELECT COUNT(*) AS c FROM data WHERE country = 'US'",
        "SELECT month(timestamp) AS m, MAX(latency) AS hi, "
        "APPROX_COUNT_DISTINCT(user_name, 64) AS u FROM data "
        "GROUP BY m ORDER BY hi DESC LIMIT 4",
        "SELECT COUNT(latency) AS c FROM data WHERE latency IS NOT NULL",
    ]
)


def _counter_fields(stats) -> dict:
    """ScanStats minus the timing fields (timings are measurement)."""
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if not f.name.endswith("_seconds")
    }


class TestParallelMatchesSerial:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        queries=st.lists(_QUERIES, min_size=1, max_size=4),
        workers=st.integers(min_value=2, max_value=6),
    )
    def test_rows_and_counters_identical(self, queries, workers):
        _PARALLEL.configure_runtime(executor="thread", workers=workers)
        for sql in queries:
            serial = _SERIAL.execute(sql)
            parallel = _PARALLEL.execute(sql)
            assert serial.rows() == parallel.rows(), sql
            assert _counter_fields(serial.stats) == _counter_fields(
                parallel.stats
            ), sql

    def test_parallel_store_actually_fans_out(self):
        store = _build(executor="thread", workers=4)
        assert isinstance(store.executor, ThreadExecutor)
        assert store.executor.describe() == "thread(4)"

    def test_projection_queries_match(self):
        sql = (
            "SELECT country, latency FROM data WHERE latency > 800 "
            "ORDER BY latency DESC LIMIT 12"
        )
        assert _SERIAL.execute(sql).rows() == _PARALLEL.execute(sql).rows()


class TestExecutorPrimitives:
    def test_registry(self):
        assert executor_names() == ["process", "serial", "thread"]
        assert isinstance(make_executor("serial", None), SerialExecutor)
        assert isinstance(make_executor("thread", 2), ThreadExecutor)
        assert isinstance(make_executor("process", 2), ProcessExecutor)
        assert default_worker_count() >= 1

    def test_max_workers_caps_default(self):
        assert default_worker_count(max_workers=1) == 1
        assert default_worker_count(max_workers=10_000) == (os.cpu_count() or 1)
        with pytest.raises(ExecutionError):
            default_worker_count(max_workers=0)

    def test_make_executor_honours_max_workers(self):
        executor = make_executor("thread", None, 1)
        try:
            assert executor.workers == 1
        finally:
            executor.close()

    def test_unknown_name_raises(self):
        with pytest.raises(ExecutionError):
            make_executor("gpu", None)

    def test_invalid_worker_count_raises(self):
        with pytest.raises(ExecutionError):
            make_executor("thread", 0)

    def test_map_ordered_preserves_submission_order(self):
        executor = make_executor("thread", 4)
        try:
            # Make later items finish first: ordering must come from
            # submission order, not completion order.
            def slow_inverse(item: int) -> int:
                time.sleep((8 - item) * 0.002)
                return item * item

            assert executor.map_ordered(slow_inverse, range(8)) == [
                i * i for i in range(8)
            ]
        finally:
            executor.close()

    def test_map_ordered_runs_concurrently(self):
        executor = make_executor("thread", 4)
        barrier = threading.Barrier(4, timeout=5.0)
        try:
            # All four tasks must be in flight at once to pass the
            # barrier; a serial fallback would deadlock (timeout).
            assert executor.map_ordered(
                lambda i: barrier.wait() is not None, range(4)
            ) == [True] * 4
        finally:
            executor.close()

    def test_serial_map_ordered(self):
        executor = make_executor("serial", None)
        assert executor.map_ordered(lambda x: x + 1, [3, 1, 2]) == [4, 2, 3]

    def test_worker_exceptions_propagate(self):
        executor = make_executor("thread", 2)
        try:
            with pytest.raises(ZeroDivisionError):
                executor.map_ordered(lambda x: 1 // x, [1, 0, 1])
        finally:
            executor.close()


class TestSanitizingExecutor:
    """Every object the submitted scan task captures is fingerprinted
    before and after each fan-out, so an engine regression that mutates
    shared store state from a worker fails here — on all nine query
    classes of the ``full_scan`` workload."""

    def test_store_scans_pass_sanitizer(self):
        store = _build(executor="thread", workers=4)
        store.executor = SanitizingExecutor(store.executor)
        for name, sql in FULL_SCAN_SHAPES.items():
            assert store.execute(sql).rows() == _SERIAL.execute(sql).rows(), name
        assert store.executor.checked_submissions >= len(FULL_SCAN_SHAPES)
        # scan_one closes over the store itself plus per-query scan
        # state; zero captures would mean the sanitizer checked nothing.
        assert store.executor.checked_captures > 0
        store.executor.close()

    def test_catches_closure_mutation(self):
        executor = SanitizingExecutor(make_executor("thread", 4))
        seen: list[int] = []

        def bad(item: int) -> int:
            seen.append(item)
            return item

        try:
            with pytest.raises(CapturedStateMutation, match="seen"):
                executor.map_ordered(bad, [1, 2, 3])
        finally:
            executor.close()

    def test_catches_bound_method_mutation(self):
        class Accumulator:
            def __init__(self) -> None:
                self.total = 0

            def add(self, item: int) -> int:
                self.total += item
                return item

        executor = SanitizingExecutor(make_executor("serial", None))
        with pytest.raises(CapturedStateMutation, match="self.total"):
            executor.map_ordered(Accumulator().add, [1, 2, 3])

    def test_pure_closures_pass(self):
        executor = SanitizingExecutor(make_executor("thread", 2))
        offsets = {"a": 10}

        def pure(item: int) -> int:
            return item + offsets["a"]

        try:
            assert executor.map_ordered(pure, [1, 2]) == [11, 12]
            assert executor.checked_submissions == 1
            assert executor.checked_captures == 1
        finally:
            executor.close()


class TestBoundedChunkCache:
    def _pressure_queries(self):
        groups = ("country", "table_name", "user_name")
        aggs = ("COUNT(*)", "SUM(latency)", "MIN(latency)", "MAX(latency)")
        return [
            f"SELECT {g}, {a} AS v FROM data GROUP BY {g} LIMIT 5"
            for g in groups
            for a in aggs
        ]

    def test_cache_never_exceeds_capacity(self):
        capacity = 16 * 1024.0
        store = _build(cache_capacity_bytes=capacity)
        for sql in self._pressure_queries():
            store.execute(sql)
            assert store._chunk_cache.used <= capacity
        stats = store.chunk_cache_stats()
        assert stats.evictions > 0

    def test_hits_survive_eviction_pressure(self):
        store = _build(cache_capacity_bytes=24 * 1024.0)
        hot = (
            "SELECT country, COUNT(*) AS c FROM data GROUP BY country "
            "ORDER BY c DESC LIMIT 5"
        )
        for sql in self._pressure_queries()[:4]:
            store.execute(hot)
            store.execute(hot)  # immediate re-reference: must hit
            store.execute(sql)
        assert store.chunk_cache_stats().hits > 0
        assert store.chunk_cache_stats().evictions > 0

    @pytest.mark.parametrize("policy", ["lru", "2q", "arc"])
    def test_every_policy_bounds_and_serves(self, policy):
        store = _build(cache_policy=policy, cache_capacity_bytes=20 * 1024.0)
        sql = (
            "SELECT country, COUNT(*) AS c FROM data GROUP BY country "
            "ORDER BY c DESC LIMIT 5"
        )
        before = store.execute(sql).stats.rows_cached
        after = store.execute(sql).stats.rows_cached
        assert before == 0 and after > 0
        assert store._chunk_cache.used <= 20 * 1024.0

    def test_materialization_keeps_cached_partials(self):
        sql = "SELECT country, COUNT(*) AS c FROM data GROUP BY country"
        store = _build()
        store.execute(sql)
        cached = len(store._chunk_cache)
        assert cached > 0
        expr = parse_query("SELECT date(timestamp) FROM data").select[0].expr
        store.ensure_field(expr)
        assert len(store._chunk_cache) == cached
        # Cache keys are specs, not names: the next identical query hits.
        again = store.execute(sql)
        assert again.stats.rows_cached == store.n_rows
        assert again.content_equal(_build(cache_chunk_results=False).execute(sql))

    def test_cache_disabled_stays_empty(self):
        store = _build(cache_chunk_results=False)
        sql = "SELECT country, COUNT(*) AS c FROM data GROUP BY country"
        store.execute(sql)
        store.execute(sql)
        assert len(store._chunk_cache) == 0
        assert store.chunk_cache_stats().hits == 0

    def test_configure_runtime_rebuilds_cache(self):
        store = _build()
        store.execute("SELECT country, COUNT(*) AS c FROM data GROUP BY country")
        assert len(store._chunk_cache) > 0
        store.configure_runtime(cache_policy="arc")
        assert len(store._chunk_cache) == 0
        assert store.options.cache_policy == "arc"

    def test_configure_runtime_swaps_executor(self):
        store = _build()
        assert isinstance(store.executor, SerialExecutor)
        store.configure_runtime(executor="thread", workers=3)
        assert isinstance(store.executor, ThreadExecutor)
        sql = "SELECT country, COUNT(*) AS c FROM data GROUP BY country"
        assert store.execute(sql).rows() == _SERIAL.execute(sql).rows()


class TestScanStatsTimings:
    def test_phase_timings_populated(self):
        result = _SERIAL.execute(
            "SELECT table_name, COUNT(*) AS c FROM data GROUP BY table_name "
            "ORDER BY c DESC LIMIT 5"
        )
        stats = result.stats
        assert stats.restriction_seconds >= 0.0
        assert stats.scan_seconds + stats.merge_seconds > 0.0

    def test_projection_timing_populated(self):
        result = _SERIAL.execute(
            "SELECT country, latency FROM data WHERE latency > 900 LIMIT 5"
        )
        assert result.stats.projection_seconds > 0.0
