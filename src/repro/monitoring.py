"""Production-style query monitoring — the Section 6 report generator.

The paper reports three months of production measurements: average
cells per click, the skipped/cached/scanned split, in-memory query
share, and latency distributions. :class:`QueryLogCollector` gathers
the same quantities from any stream of executed queries so examples,
benches and deployments can print a "Section 6" report of their own.

The module also hosts the process-wide :data:`counters` registry —
named monotonically increasing counters that subsystems (the
``repro.analysis`` fsck tooling, caches, the distributed fault
layer's ``distributed.faults.*`` retry/failover/timeout/quarantine/
degradation counters, ...) bump as they work, so operational tooling
has one place to read activity from.
"""

from __future__ import annotations

import math
import random
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.core.result import QueryResult, ScanStats
from repro.errors import ReproError


class CounterRegistry:
    """Named monotonic counters, keyed by dotted names.

    A deliberately tiny stand-in for a production metrics client:
    ``increment`` never fails on unknown names, ``snapshot`` returns a
    stable copy for reporting, and ``reset`` exists for tests.

    Thread-safe: ``increment`` is a read-modify-write, and the serving
    layer bumps counters from many dispatch threads at once — without
    the lock, concurrent increments interleave and silently drop
    counts. ``snapshot``/``reset`` take the same lock so a snapshot is
    a consistent point-in-time view, never a half-applied update.
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def increment(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to ``name`` (creating it at 0), return the total."""
        with self._lock:
            total = self._counts.get(name, 0) + amount
            self._counts[name] = total
            return total

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """A sorted, consistent copy of every counter's current value."""
        with self._lock:
            return dict(sorted(self._counts.items()))

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()


#: The process-wide counter registry.
counters = CounterRegistry()


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, max(0, math.ceil(fraction * len(sorted_values)) - 1)
    )
    return sorted_values[index]


@dataclass
class QueryLogCollector:
    """Accumulates per-query statistics into production-style totals.

    Latency memory is bounded for long-running services: all-time
    percentiles come from a seeded reservoir sample (Vitter's
    Algorithm R — exact until ``reservoir_capacity`` queries, an
    unbiased uniform sample after), and rolling percentiles come from a
    fixed-size window over the most recent ``window_capacity`` queries.
    """

    n_queries: int = 0
    rows_total: int = 0
    rows_skipped: int = 0
    rows_cached: int = 0
    rows_scanned: int = 0
    cells_touched: int = 0
    disk_bytes: int = 0
    in_memory_queries: int = 0
    reservoir_capacity: int = 4096
    window_capacity: int = 512
    _latencies: list[float] = field(default_factory=list)
    _window: deque = field(default_factory=deque)
    _rng: random.Random = field(default_factory=lambda: random.Random(0x5EED))

    def __post_init__(self) -> None:
        if self.reservoir_capacity < 1:
            raise ReproError("reservoir_capacity must be >= 1")
        if self.window_capacity < 1:
            raise ReproError("window_capacity must be >= 1")
        self._window = deque(self._window, maxlen=self.window_capacity)

    def record(
        self,
        result: QueryResult,
        disk_bytes: int = 0,
        latency_seconds: float | None = None,
    ) -> None:
        """Record one executed query (optionally with simulated I/O)."""
        stats: ScanStats = result.stats
        self.n_queries += 1
        self.rows_total += stats.rows_total
        self.rows_skipped += stats.rows_skipped
        self.rows_cached += stats.rows_cached
        self.rows_scanned += stats.rows_scanned
        self.cells_touched += stats.cells_scanned
        self.disk_bytes += disk_bytes
        if disk_bytes == 0:
            self.in_memory_queries += 1
        latency = (
            result.elapsed_seconds if latency_seconds is None else latency_seconds
        )
        self._window.append(latency)
        if len(self._latencies) < self.reservoir_capacity:
            self._latencies.append(latency)
        else:
            # Algorithm R: the i-th value replaces a reservoir slot
            # with probability capacity/i, keeping the sample uniform.
            slot = self._rng.randrange(self.n_queries)
            if slot < self.reservoir_capacity:
                self._latencies[slot] = latency

    # -- derived quantities ---------------------------------------------------
    @property
    def skip_fraction(self) -> float:
        return self.rows_skipped / self.rows_total if self.rows_total else 0.0

    @property
    def cache_fraction(self) -> float:
        return self.rows_cached / self.rows_total if self.rows_total else 0.0

    @property
    def scan_fraction(self) -> float:
        return self.rows_scanned / self.rows_total if self.rows_total else 0.0

    @property
    def in_memory_share(self) -> float:
        return self.in_memory_queries / self.n_queries if self.n_queries else 0.0

    def latency_percentiles(self) -> dict[str, float]:
        """All-time percentiles (exact below ``reservoir_capacity``)."""
        ordered = sorted(self._latencies)
        return {
            "p50": percentile(ordered, 0.50),
            "p90": percentile(ordered, 0.90),
            "p99": percentile(ordered, 0.99),
            "mean": sum(ordered) / len(ordered) if ordered else 0.0,
        }

    def windowed_percentiles(self) -> dict[str, float]:
        """Rolling percentiles over the most recent queries.

        Covers exactly the last ``min(n_queries, window_capacity)``
        recorded latencies — the number is reported as ``window`` so
        dashboards can tell a cold window from a full one.
        """
        ordered = sorted(self._window)
        return {
            "window": float(len(ordered)),
            "p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
            "p99": percentile(ordered, 0.99),
        }

    def report(self) -> str:
        """A Section 6-style text report."""
        lat = self.latency_percentiles()
        lines = [
            f"queries: {self.n_queries}",
            f"hypothetical full-scan rows: {self.rows_total:,}",
            (
                f"skipped {self.skip_fraction:.2%} | cached "
                f"{self.cache_fraction:.2%} | scanned {self.scan_fraction:.2%}"
            ),
            (
                f"in-memory queries: {self.in_memory_share:.1%} "
                f"({self.disk_bytes / (1 << 20):.1f} MB loaded from disk)"
            ),
            (
                f"latency ms: mean {1000 * lat['mean']:.1f}, "
                f"p50 {1000 * lat['p50']:.1f}, p90 {1000 * lat['p90']:.1f}, "
                f"p99 {1000 * lat['p99']:.1f}"
            ),
        ]
        return "\n".join(lines)
