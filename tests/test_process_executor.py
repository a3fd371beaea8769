"""The GIL-escaping executor: process == thread == serial, no leaks.

The process pool answers queries from read-only views over a shared
arena, so three things must hold on any machine:

- **Bit-identity**: a process-pool store returns the same rows *and*
  the same ScanStats counters as serial and thread stores, for
  arbitrary query sequences, worker counts and corpora (with and
  without NULLs) — hypothesis-driven like the PR 2 thread suite;
- **Lifecycle**: every shared-memory segment the executor caused to
  exist is unlinked by ``close()``, including after a worker raises;
- **Sanitation**: :class:`~tests.sanitizer.SanitizingExecutor` wraps the
  process strategy transparently and detects a worker writing even a
  single arena byte.
"""

from __future__ import annotations

import dataclasses
import os
from multiprocessing import resource_tracker, shared_memory

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.executor import ProcessExecutor, make_executor
from repro.storage.arena import SEGMENT_PREFIX, live_segment_names
from repro.workload.generator import LogsConfig, generate_query_logs

from tests.sanitizer import CapturedStateMutation, SanitizingExecutor
from tests.test_query_pipeline import FULL_SCAN_SHAPES

_TABLE = generate_query_logs(
    LogsConfig(n_rows=800, n_days=10, n_teams=5, seed=31, null_latency_fraction=0.06)
)


def _build(**overrides) -> DataStore:
    options = DataStoreOptions(
        partition_fields=("country", "table_name"),
        max_chunk_rows=48,
        reorder_rows=True,
        cache_chunk_results=False,  # counters stay history-independent
        **overrides,
    )
    return DataStore.from_table(_TABLE, options)


# One store per strategy; every test sends the same SQL to all three,
# so rows *and* counters must agree query by query.
_SERIAL = _build()
_THREAD = _build(executor="thread", workers=3)
_PROCESS = _build(executor="process", workers=3)

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
        "SELECT country, month(timestamp) AS m, MAX(latency) AS hi "
        "FROM data GROUP BY country, m ORDER BY hi DESC LIMIT 6",
        "SELECT COUNT(*) AS c FROM data WHERE country = 'US'",
        "SELECT COUNT(latency) AS c FROM data WHERE latency IS NOT NULL",
    ]
)


def _counter_fields(stats) -> dict:
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if not f.name.endswith("_seconds")
    }


def _shm_segments() -> set[str]:
    root = "/dev/shm"
    if not os.path.isdir(root):
        return set()
    return {n for n in os.listdir(root) if n.startswith(SEGMENT_PREFIX)}


class _ArenaPoker:
    """A picklable task that flips one arena byte from inside a worker.

    Exactly the regression the sanitizer exists to catch: the pool
    workers share the segment, so a single rogue write is visible to
    (and must be detected by) the parent's before/after fingerprints.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __call__(self, offset: int) -> int:
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = shared_memory.SharedMemory(name=self.name)
        finally:
            resource_tracker.register = original_register
        try:
            segment.buf[offset] = (segment.buf[offset] + 1) % 256
        finally:
            segment.close()
        return offset


class TestProcessMatchesSerial:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(queries=st.lists(_QUERIES, min_size=1, max_size=3))
    def test_rows_and_counters_identical(self, queries):
        for sql in queries:
            serial = _SERIAL.execute(sql)
            thread = _THREAD.execute(sql)
            process = _PROCESS.execute(sql)
            assert serial.rows() == thread.rows() == process.rows(), sql
            counters = _counter_fields(serial.stats)
            assert counters == _counter_fields(thread.stats), sql
            assert counters == _counter_fields(process.stats), sql

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_every_worker_count_bit_identical(self, workers):
        store = _build(executor="process", workers=workers)
        try:
            for sql in (
                "SELECT country, COUNT(*) AS c FROM data GROUP BY country "
                "ORDER BY c DESC LIMIT 8",
                "SELECT table_name, SUM(latency) AS s FROM data "
                "GROUP BY table_name ORDER BY s DESC LIMIT 10",
            ):
                assert store.execute(sql).rows() == _SERIAL.execute(sql).rows()
        finally:
            store.executor.close()

    def test_null_corpus_bit_identical(self, null_log_table):
        options = DataStoreOptions(
            partition_fields=("country", "table_name"),
            max_chunk_rows=96,
            reorder_rows=True,
        )
        serial = DataStore.from_table(null_log_table, options)
        process = DataStore.from_table(
            null_log_table,
            dataclasses.replace(options, executor="process", workers=2),
        )
        try:
            sql = (
                "SELECT country, AVG(latency) AS a, COUNT(latency) AS c "
                "FROM data GROUP BY country ORDER BY a DESC LIMIT 8"
            )
            assert process.execute(sql).rows() == serial.execute(sql).rows()
        finally:
            process.executor.close()

    def test_process_store_actually_fans_out(self):
        assert isinstance(_PROCESS.executor, ProcessExecutor)
        assert _PROCESS.executor.describe() == "process(3)"
        assert _PROCESS.executor.wants_picklable_tasks


class TestArenaLeaks:
    def test_close_unlinks_every_segment(self):
        before = _shm_segments()
        store = _build(executor="process", workers=2)
        sql = "SELECT country, COUNT(*) AS c FROM data GROUP BY country"
        store.execute(sql)
        assert store.arena is not None
        name = store.arena.name
        assert name in _shm_segments()
        store.executor.close()
        assert name not in live_segment_names()
        assert _shm_segments() <= before

    def test_close_unlinks_after_worker_raises(self):
        before = _shm_segments()
        store = _build(executor="process", workers=2)
        store.execute("SELECT country, COUNT(*) AS c FROM data GROUP BY country")
        with pytest.raises(ZeroDivisionError):
            store.executor.map_ordered(_divide_by, [1, 0, 1])
        store.executor.close()
        assert _shm_segments() <= before

    def test_arena_reused_across_queries(self):
        store = _build(executor="process", workers=2)
        try:
            store.execute("SELECT country, COUNT(*) AS c FROM data GROUP BY country")
            first = store.arena
            store.execute(
                "SELECT table_name, SUM(latency) AS s FROM data "
                "GROUP BY table_name LIMIT 5"
            )
            assert store.arena is first
        finally:
            store.executor.close()


class TestSanitizedProcessExecution:
    def test_process_scans_pass_sanitizer(self):
        store = _build(executor="process", workers=2)
        store.executor = SanitizingExecutor(store.executor)
        try:
            for name, sql in FULL_SCAN_SHAPES.items():
                assert store.execute(sql).rows() == _SERIAL.execute(sql).rows(), name
            assert store.executor.checked_submissions >= len(FULL_SCAN_SHAPES)
            assert store.executor.checked_captures > 0
        finally:
            store.executor.close()

    def test_sanitizer_catches_worker_arena_write(self):
        store = _build(executor="process", workers=2)
        store.executor = SanitizingExecutor(store.executor)
        try:
            store.execute("SELECT country, COUNT(*) AS c FROM data GROUP BY country")
            assert store.arena is not None
            with pytest.raises(CapturedStateMutation, match="arena"):
                store.executor.map_ordered(_ArenaPoker(store.arena.name), [7, 11])
        finally:
            store.executor.close()


def _divide_by(item: int) -> int:
    return 1 // item
