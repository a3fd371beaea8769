"""`QueryService` — the long-lived, multi-tenant serving layer.

Turns the one-shot engine into the paper's production shape: many
concurrent drill-down sessions submitting query streams against one
shared store, answered through a cache hierarchy (semantic result cache
-> the engine's WHERE classifications and chunk-result cache -> column
scans) with admission control and per-tenant fairness in front of the
shared execution strategy.

Request lifecycle::

    submit(tenant, sql) -> admission (bounded per-tenant queue)
        -> smooth-WRR dispatch (FairScheduler, in-flight caps)
        -> semantic cache probe (exact canonical-plan hit | miss)
        -> engine execution on a miss
        -> admit result + resolve the caller's QueryTicket

Load shedding is explicit: an over-admitted query resolves to a
:class:`QueryRejected` outcome, never an exception and never a silent
drop — the bench layer accounts every submission exactly. Every
dispatched query resolves too: whatever the engine raises becomes a
:class:`QueryFailed`, and the dispatch thread serves on.

Serving is backend-agnostic: a local :class:`DataStore` or a
:class:`SimulatedCluster` (gated to one query at a time).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.core.datastore import DataStore
# Unused here: bench/trace.py still patches this module's where_conjuncts.
from repro.core.plan import query_fingerprint, where_conjuncts  # noqa: F401
from repro.core.result import QueryResult
from repro.errors import ReproError, ServiceError
from repro.monitoring import QueryLogCollector, counters
from repro.service.cache import SemanticResultCache
from repro.service.scheduler import FairScheduler
from repro.sql.ast_nodes import Query
from repro.sql.parser import parse_query


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one :class:`QueryService` instance."""

    workers: int = 2
    queue_depth: int = 32
    max_inflight_per_tenant: int = 2
    default_weight: int = 1
    cache_capacity_bytes: float = 64 * 1024 * 1024
    cache_policy: str = "lru"
    enable_result_cache: bool = True
    dispatch_poll_seconds: float = 0.05
    shutdown_timeout_seconds: float = 10.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ServiceError("queue_depth must be >= 1")
        if self.max_inflight_per_tenant < 1:
            raise ServiceError("max_inflight_per_tenant must be >= 1")
        if self.default_weight < 1:
            raise ServiceError("default_weight must be >= 1")
        if self.cache_capacity_bytes <= 0:
            raise ServiceError("cache_capacity_bytes must be positive")
        if self.dispatch_poll_seconds <= 0:
            raise ServiceError("dispatch_poll_seconds must be positive")
        if self.shutdown_timeout_seconds <= 0:
            raise ServiceError("shutdown_timeout_seconds must be positive")


@dataclass
class QueryOutcome:
    """What happened to one submitted query (common envelope)."""

    tenant: str
    session: Hashable | None
    sql: str
    queue_seconds: float
    total_seconds: float
    #: Picks of other tenants between this query's admission and its
    #: own dispatch (the scheduler's logical clock); 0 if never queued.
    turns_waited: int = field(default=0, kw_only=True)


@dataclass
class QueryCompleted(QueryOutcome):
    """The query was served; ``cache_path`` says how."""

    result: QueryResult
    cache_path: str  # "miss" | "hit"


@dataclass
class QueryRejected(QueryOutcome):
    """Admission control shed the query (queue full / shutdown)."""

    reason: str


@dataclass
class QueryFailed(QueryOutcome):
    """Serving raised (bad SQL binding, a bug, ...); ``error`` says what."""

    error: str


@dataclass
class _Request:
    tenant: str
    session: Hashable | None
    sql: str
    query: Query
    ticket: "QueryTicket"
    submitted: float


class QueryTicket:
    """The caller's handle for one submitted query."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self._outcome: QueryOutcome | None = None

    def _resolve(self, outcome: QueryOutcome) -> None:
        self._outcome = outcome
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def outcome(self, timeout: float = 60.0) -> QueryOutcome:
        """Block (bounded) until the query resolves."""
        if not self._done.wait(timeout):
            raise ServiceError(
                f"query did not resolve within {timeout:.1f}s"
            )
        assert self._outcome is not None
        return self._outcome


# -- live-service registry (leak detection for the test suite) -----------------

_live_lock = threading.Lock()
_live_services: dict[int, "QueryService"] = {}


def live_services() -> tuple["QueryService", ...]:
    """Every constructed-but-not-closed service, oldest first."""
    with _live_lock:
        return tuple(
            service for __, service in sorted(_live_services.items())
        )


class QueryService:
    """A long-lived multi-tenant query server over one shared backend."""

    def __init__(
        self,
        backend: Any,
        config: ServiceConfig | None = None,
        weights: dict[str, int] | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.backend = backend
        self._is_store = isinstance(backend, DataStore)
        self._scheduler = FairScheduler(
            queue_depth=self.config.queue_depth,
            max_inflight_per_tenant=self.config.max_inflight_per_tenant,
            default_weight=self.config.default_weight,
        )
        for tenant, weight in sorted((weights or {}).items()):
            self._scheduler.set_weight(tenant, weight)
        self._cache: SemanticResultCache | None = None
        if self.config.enable_result_cache:
            self._cache = SemanticResultCache(
                capacity_bytes=self.config.cache_capacity_bytes,
                policy=self.config.cache_policy,
            )
        # Process pools supervise one wave at a time, and the simulated
        # cluster mutates machine state per query — both get a width-1
        # gate. Thread/serial strategies accept concurrent callers.
        if self._is_store and not backend.executor.wants_picklable_tasks:
            gate_width = self.config.workers
        else:
            gate_width = 1
        self._engine_gate = threading.Semaphore(gate_width)
        self._collector = QueryLogCollector()
        self._collector_lock = threading.Lock()
        self._counts = {
            "submitted": 0,
            "completed": 0,
            "rejected": 0,
            "failed": 0,
            "degraded": 0,
        }
        self._counts_lock = threading.Lock()
        self._stop = threading.Event()
        self._closed = False
        self._close_lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-serve-{index}",
                daemon=True,
            )
            for index in range(self.config.workers)
        ]
        with _live_lock:
            _live_services[id(self)] = self
        for thread in self._threads:
            thread.start()

    # -- submission ---------------------------------------------------------------
    def submit(
        self, tenant: str, sql: Query | str, session: Hashable | None = None
    ) -> QueryTicket:
        """Admit one query; the ticket resolves when it is served or shed.

        ``session`` only labels the request and its outcome.
        """
        if self._closed:
            raise ServiceError("submit() on a closed QueryService")
        query = parse_query(sql) if isinstance(sql, str) else sql
        rendered = sql if isinstance(sql, str) else sql.sql()
        ticket = QueryTicket()
        request = _Request(
            tenant=tenant,
            session=session,
            sql=rendered,
            query=query,
            ticket=ticket,
            submitted=time.perf_counter(),
        )
        self._count("submitted")
        counters.increment("service.submitted")
        if not self._scheduler.offer(tenant, request):
            self._reject(request, "tenant queue full")
        return ticket

    def run(
        self,
        tenant: str,
        sql: Query | str,
        session: Hashable | None = None,
        timeout: float = 60.0,
    ) -> QueryOutcome:
        """Submit and wait — the closed-loop client call."""
        return self.submit(tenant, sql, session).outcome(timeout)

    # -- dispatch -----------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            picked = self._scheduler.take(self.config.dispatch_poll_seconds)
            if picked is None:
                continue
            tenant, request, turns_waited = picked
            queue_seconds = time.perf_counter() - request.submitted
            try:
                outcome = self._serve(request, queue_seconds, turns_waited)
            except ReproError as error:
                outcome = self._failed(
                    request, queue_seconds, turns_waited, str(error)
                )
            except Exception as error:  # reprolint: disable=REP002 -- the serving boundary: every ticket resolves and the dispatch thread lives on
                outcome = self._failed(
                    request,
                    queue_seconds,
                    turns_waited,
                    f"{type(error).__name__}: {error}",
                )
            finally:
                self._scheduler.complete(tenant)
            # The slot is free before the caller learns the outcome: a
            # closed-loop client's next query is eligible when offered.
            request.ticket._resolve(outcome)

    def _serve(
        self, request: _Request, queue_seconds: float, turns_waited: int
    ) -> QueryCompleted:
        cache_path = "miss"
        if self._cache is None:
            result = self._execute(request.query)
        else:
            fingerprint = query_fingerprint(request.query)
            cached, __ = self._cache.lookup(fingerprint)
            if cached is not None:
                cache_path = "hit"
                result = cached
            else:
                result = self._execute(request.query)
                self._cache.admit(fingerprint, result)
        counters.increment(f"service.cache.{cache_path}")
        if not result.complete:
            self._count("degraded")
            counters.increment("service.degraded")
        self._count("completed")
        counters.increment("service.completed")
        total_seconds = time.perf_counter() - request.submitted
        with self._collector_lock:
            self._collector.record(result, latency_seconds=total_seconds)
        return QueryCompleted(
            tenant=request.tenant,
            session=request.session,
            sql=request.sql,
            queue_seconds=queue_seconds,
            total_seconds=total_seconds,
            turns_waited=turns_waited,
            result=result,
            cache_path=cache_path,
        )

    def _failed(
        self,
        request: _Request,
        queue_seconds: float,
        turns_waited: int,
        error: str,
    ) -> QueryFailed:
        self._count("failed")
        counters.increment("service.failed")
        return QueryFailed(
            tenant=request.tenant,
            session=request.session,
            sql=request.sql,
            queue_seconds=queue_seconds,
            total_seconds=time.perf_counter() - request.submitted,
            turns_waited=turns_waited,
            error=error,
        )

    def _execute(self, query: Query) -> QueryResult:
        with self._engine_gate:
            if self._is_store:
                return self.backend.execute(query)
            result, __ = self.backend.execute(query)
            return result

    # -- accounting ---------------------------------------------------------------
    def _count(self, key: str) -> None:
        with self._counts_lock:
            self._counts[key] += 1

    def _reject(self, request: _Request, reason: str) -> None:
        self._count("rejected")
        counters.increment("service.rejected")
        request.ticket._resolve(
            QueryRejected(
                tenant=request.tenant,
                session=request.session,
                sql=request.sql,
                queue_seconds=time.perf_counter() - request.submitted,
                total_seconds=time.perf_counter() - request.submitted,
                reason=reason,
            )
        )

    def stats(self) -> dict[str, Any]:
        """A point-in-time operational snapshot (bench/CLI reporting)."""
        with self._counts_lock:
            counts = dict(self._counts)
        with self._collector_lock:
            all_time = self._collector.latency_percentiles()
            windowed = self._collector.windowed_percentiles()
        snapshot: dict[str, Any] = {
            "counts": counts,
            "latency": all_time,
            "windowed_latency": windowed,
            "queue_depths": self._scheduler.queue_depths(),
            "backlog": self._scheduler.backlog(),
        }
        if self._cache is not None:
            snapshot["cache"] = self._cache.stats()
        return snapshot

    # -- shutdown -----------------------------------------------------------------
    def worker_threads(self) -> tuple[threading.Thread, ...]:
        """The dispatch threads (leak assertions in the test suite)."""
        return tuple(self._threads)

    def close(self, timeout: float | None = None) -> None:
        """Stop serving: reject the backlog, join every worker (bounded)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        self._scheduler.close()
        deadline = time.perf_counter() + (
            self.config.shutdown_timeout_seconds if timeout is None else timeout
        )
        for thread in self._threads:
            remaining = deadline - time.perf_counter()
            thread.join(max(0.0, remaining))
        alive = [t.name for t in self._threads if t.is_alive()]
        for __, request in self._scheduler.drain():
            self._reject(request, "service shutdown")
        with _live_lock:
            _live_services.pop(id(self), None)
        if alive:
            raise ServiceError(
                f"dispatch thread(s) failed to stop: {alive}"
            )

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
