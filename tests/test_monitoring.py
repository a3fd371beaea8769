"""QueryLogCollector tests."""

import pytest

from repro.monitoring import QueryLogCollector, percentile
from repro.workload.queries import paper_queries


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single(self):
        assert percentile([3.0], 0.99) == 3.0

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(values, 0.50) == 5.0
        assert percentile(values, 0.90) == 9.0
        assert percentile(values, 0.99) == 10.0


class TestCollector:
    def test_accumulates_fractions(self, log_store):
        collector = QueryLogCollector()
        queries = [
            "SELECT COUNT(*) FROM data WHERE country = 'FI'",
            "SELECT COUNT(*) FROM data WHERE country = 'US'",
            paper_queries()[0],
        ]
        for sql in queries:
            collector.record(log_store.execute(sql))
        assert collector.n_queries == 3
        total = (
            collector.skip_fraction
            + collector.cache_fraction
            + collector.scan_fraction
        )
        assert total == pytest.approx(1.0)
        assert collector.skip_fraction > 0

    def test_in_memory_share(self, log_store):
        collector = QueryLogCollector()
        result = log_store.execute(paper_queries()[0])
        collector.record(result, disk_bytes=0)
        collector.record(result, disk_bytes=1000)
        assert collector.in_memory_share == pytest.approx(0.5)
        assert collector.disk_bytes == 1000

    def test_latency_override(self, log_store):
        collector = QueryLogCollector()
        result = log_store.execute(paper_queries()[0])
        collector.record(result, latency_seconds=2.0)
        assert collector.latency_percentiles()["mean"] == pytest.approx(2.0)

    def test_report_contains_key_lines(self, log_store):
        collector = QueryLogCollector()
        collector.record(log_store.execute(paper_queries()[0]))
        text = collector.report()
        assert "skipped" in text
        assert "latency ms" in text
        assert "in-memory queries" in text

    def test_empty_collector_report(self):
        collector = QueryLogCollector()
        assert collector.skip_fraction == 0.0
        assert collector.in_memory_share == 0.0
        assert "queries: 0" in collector.report()


class TestCounterRegistryThreadSafety:
    def test_concurrent_increments_are_exact(self):
        # The pre-fix increment was an unlocked read-modify-write; under
        # contention (a tiny switch interval maximizes interleavings)
        # it dropped counts. The locked version must be exact.
        import sys
        import threading

        from repro.monitoring import CounterRegistry

        registry = CounterRegistry()
        n_threads, n_increments = 8, 5_000
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=lambda: [
                        registry.increment("hammered")
                        for __ in range(n_increments)
                    ]
                )
                for __ in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert registry.get("hammered") == n_threads * n_increments
        assert registry.snapshot()["hammered"] == n_threads * n_increments


class TestReservoirAndWindow:
    def test_reservoir_is_bounded(self, log_store):
        collector = QueryLogCollector(reservoir_capacity=64)
        result = log_store.execute(paper_queries()[0])
        for i in range(1_000):
            collector.record(result, latency_seconds=float(i + 1))
        assert collector.n_queries == 1_000
        assert len(collector._latencies) == 64
        # The sample stays representative: all-time percentiles remain
        # inside the observed range.
        stats = collector.latency_percentiles()
        assert 1.0 <= stats["p50"] <= 1_000.0

    def test_exact_below_capacity(self, log_store):
        collector = QueryLogCollector(reservoir_capacity=64)
        result = log_store.execute(paper_queries()[0])
        for i in range(10):
            collector.record(result, latency_seconds=float(i + 1))
        assert sorted(collector._latencies) == [
            float(i + 1) for i in range(10)
        ]

    def test_windowed_percentiles_see_only_recent(self, log_store):
        collector = QueryLogCollector(window_capacity=4)
        result = log_store.execute(paper_queries()[0])
        for i in range(10):
            collector.record(result, latency_seconds=float(i + 1))
        windowed = collector.windowed_percentiles()
        # Window holds the last 4 latencies: 7, 8, 9, 10.
        assert windowed["window"] == 4
        assert windowed["p50"] == 8.0
        assert windowed["p95"] == 10.0
        assert windowed["p99"] == 10.0
        # The all-time view still reflects everything recorded.
        assert collector.latency_percentiles()["p50"] == 5.0

    def test_empty_window(self):
        collector = QueryLogCollector()
        assert collector.windowed_percentiles() == {
            "window": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }

    def test_capacity_validation(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            QueryLogCollector(reservoir_capacity=0)
        with pytest.raises(ReproError):
            QueryLogCollector(window_capacity=0)
