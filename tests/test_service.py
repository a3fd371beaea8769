"""Serving-layer tests: semantic cache, fair scheduler, QueryService.

Canonical fingerprints are tested in test_plan; here we test the layer
itself: exact reuse and its misses, admission and shedding, smooth-WRR
fairness (as a hypothesis property), failures that leave the dispatch
threads serving, shutdown semantics, and the poisoned-tenant isolation
guarantee under the supervised process executor.
"""

from __future__ import annotations

import threading
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.plan import query_fingerprint, where_conjuncts
from repro.core.result import ScanStats
from repro.distributed import ClusterConfig, SimulatedCluster
from repro.errors import ServiceError
from repro.service import (
    FairScheduler,
    QueryCompleted,
    QueryFailed,
    QueryRejected,
    QueryService,
    SemanticResultCache,
    ServiceConfig,
    estimate_result_weight,
    live_services,
)
from repro.sql.parser import parse_query

from tests.test_cross_backend import FAILING_QUERIES

PARENT_SQL = (
    "SELECT country, COUNT(*) as c FROM data "
    "WHERE latency > 100 GROUP BY country ORDER BY c DESC LIMIT 10;"
)
CHILD_SQL = (
    "SELECT country, COUNT(*) as c FROM data "
    "WHERE latency > 100 AND country IN ('FI', 'US') "
    "GROUP BY country ORDER BY c DESC LIMIT 10;"
)


def _fingerprint(sql: str) -> str:
    return query_fingerprint(parse_query(sql))


def _work(stats: ScanStats) -> dict:
    """Every ScanStats counter of work done (not the timers)."""
    return {
        f.name: getattr(stats, f.name)
        for f in fields(ScanStats)
        if not f.name.endswith("_seconds")
    }


# -- semantic result cache ------------------------------------------------------


class TestSemanticResultCache:
    def test_miss_admit_hit(self, log_store):
        cache = SemanticResultCache(capacity_bytes=1 << 20)
        fingerprint = _fingerprint(PARENT_SQL)
        assert cache.lookup(fingerprint) == (None, None)
        result = log_store.execute(PARENT_SQL)
        cache.admit(fingerprint, result)
        cached, footprint = cache.lookup(fingerprint)
        assert cached is result
        assert footprint is None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_subsumption_footprint_for_refinement(self, log_store):
        # A refinement of a cached parent is a plain miss: the engine's
        # WHERE and chunk caches, not this layer, reuse the parent's work.
        cache = SemanticResultCache(capacity_bytes=1 << 20)
        cache.admit(_fingerprint(PARENT_SQL), log_store.execute(PARENT_SQL))
        parent, child = (
            set(where_conjuncts(parse_query(sql))) for sql in (PARENT_SQL, CHILD_SQL)
        )
        assert parent < child  # a genuine refinement
        assert cache.lookup(_fingerprint(CHILD_SQL)) == (None, None)
        assert cache.stats()["misses"] == 1

    def test_incomplete_results_never_admitted(self, log_store):
        from dataclasses import replace

        cache = SemanticResultCache(capacity_bytes=1 << 20)
        fingerprint = _fingerprint(PARENT_SQL)
        result = log_store.execute(PARENT_SQL)
        degraded = replace(
            result,
            stats=replace(result.stats, rows_unserved=5),
            complete=False,
            row_coverage=0.9,
        )
        assert not degraded.complete
        cache.admit(fingerprint, degraded)
        assert cache.lookup(fingerprint) == (None, None)

    def test_byte_weighted_eviction(self, log_store):
        result = log_store.execute(PARENT_SQL)
        weight = estimate_result_weight(result)
        cache = SemanticResultCache(capacity_bytes=weight * 2.5)
        for i in range(8):
            cache.admit(
                _fingerprint(PARENT_SQL.replace("100", str(100 + i))), result
            )
        stats = cache.stats()
        assert stats["entries"] <= 2
        assert stats["evictions"] > 0
        assert stats["used_bytes"] <= weight * 2.5

    def test_concurrent_probes_consistent(self, log_store):
        cache = SemanticResultCache(capacity_bytes=1 << 20)
        result = log_store.execute(PARENT_SQL)
        variants = [
            _fingerprint(PARENT_SQL.replace("100", str(100 + i)))
            for i in range(4)
        ]
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                for step in range(200):
                    fingerprint = variants[(seed + step) % 4]
                    cache.lookup(fingerprint)
                    cache.admit(fingerprint, result)
            except BaseException as exc:  # propagated to the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        stats = cache.stats()
        probes = stats["hits"] + stats["misses"]
        assert probes == 6 * 200


# -- fair scheduler -------------------------------------------------------------


class TestFairScheduler:
    def test_offer_sheds_at_depth(self):
        scheduler = FairScheduler(queue_depth=2)
        assert scheduler.offer("t", 1)
        assert scheduler.offer("t", 2)
        assert not scheduler.offer("t", 3)
        assert scheduler.backlog() == 2

    def test_take_empty_times_out(self):
        scheduler = FairScheduler()
        assert scheduler.take(0.01) is None

    def test_inflight_cap_blocks_tenant(self):
        scheduler = FairScheduler(queue_depth=8, max_inflight_per_tenant=1)
        scheduler.offer("t", 1)
        scheduler.offer("t", 2)
        assert scheduler.take(0.0) == ("t", 1, 0)
        # The tenant is at its cap: nothing is eligible.
        assert scheduler.take(0.0) is None
        scheduler.complete("t")
        assert scheduler.take(0.0) == ("t", 2, 0)

    def test_turns_waited_counts_other_tenants_picks_since_the_offer(self):
        scheduler = FairScheduler(queue_depth=8, max_inflight_per_tenant=8)
        for item in range(3):
            scheduler.offer("a", item)
        assert scheduler.take(0.0) == ("a", 0, 0)  # before b's offer: not counted
        scheduler.offer("b", "x")
        scheduler.offer("b", "y")
        # Credits after a's first pick are a: 0, b: 0 and ties go to the
        # later name, so the order from here is b, a, b, a.
        assert scheduler.take(0.0) == ("b", "x", 0)
        assert scheduler.take(0.0) == ("a", 1, 1)
        assert scheduler.take(0.0) == ("b", "y", 1)  # its own tenant's pick of x is no turn
        assert scheduler.take(0.0) == ("a", 2, 2)

    def test_unmatched_complete_raises(self):
        scheduler = FairScheduler()
        with pytest.raises(ServiceError):
            scheduler.complete("nobody")

    def test_close_sheds_new_offers_and_drains(self):
        scheduler = FairScheduler()
        scheduler.offer("a", 1)
        scheduler.offer("b", 2)
        scheduler.close()
        assert not scheduler.offer("a", 3)
        assert list(scheduler.drain()) == [("a", 1), ("b", 2)]
        assert scheduler.backlog() == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ServiceError):
            FairScheduler(queue_depth=0)
        with pytest.raises(ServiceError):
            FairScheduler(max_inflight_per_tenant=0)
        with pytest.raises(ServiceError):
            FairScheduler().set_weight("t", 0)

    @given(
        weights=st.lists(st.integers(1, 8), min_size=1, max_size=6),
        rounds=st.integers(1, 4),
    )
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_smooth_wrr_fairness_property(self, weights, rounds):
        """Backlogged tenants are served proportionally to weight.

        Smooth WRR's guarantees, checked exactly: over any full cycle
        of ``sum(weights)`` picks each tenant is picked exactly
        ``weight`` times, and in *every prefix* tenant ``t``'s share
        deviates from ``n * w_t / W`` by less than 2 (empirically the
        scheme stays within ~1.04; 2 leaves margin without weakening
        the starvation bound the service relies on).
        """
        total_weight = sum(weights)
        total_picks = total_weight * rounds
        scheduler = FairScheduler(
            queue_depth=total_picks,
            max_inflight_per_tenant=total_picks + 1,
        )
        names = [f"t{i}" for i in range(len(weights))]
        for name, weight in zip(names, weights):
            scheduler.set_weight(name, weight)
            for item in range(weight * rounds):
                assert scheduler.offer(name, item)
        counts = dict.fromkeys(names, 0)
        for picked_so_far in range(1, total_picks + 1):
            picked = scheduler.take(0.0)
            assert picked is not None
            counts[picked[0]] += 1
            for name, weight in zip(names, weights):
                expected = picked_so_far * weight / total_weight
                assert abs(counts[name] - expected) < 2.0
        for name, weight in zip(names, weights):
            assert counts[name] == weight * rounds


# -- the service end to end -----------------------------------------------------


@pytest.fixture(scope="module")
def serve_store(log_table) -> DataStore:
    return DataStore.from_table(
        log_table,
        DataStoreOptions(
            partition_fields=("country", "table_name"),
            max_chunk_rows=200,
            reorder_rows=True,
        ),
    )


class _BlockingBackend:
    """A cluster-shaped backend whose execute() waits for a release."""

    def __init__(self, store: DataStore) -> None:
        self.store = store
        self.started = threading.Event()
        self.release = threading.Event()

    def execute(self, query):
        self.started.set()
        if not self.release.wait(30.0):
            raise ServiceError("blocking backend was never released")
        return self.store.execute(query), None


class _RaisingBackend:
    """A cluster-shaped backend with a bug: one query raises RuntimeError."""

    def __init__(self, store: DataStore, poison: str) -> None:
        self.store = store
        self.poison = parse_query(poison).sql()

    def execute(self, query):
        if query.sql() == self.poison:
            raise RuntimeError("backend bug")
        return self.store.execute(query), None


class TestQueryService:
    def test_cache_paths_and_bit_identity(self, serve_store):
        serve_store.chunk_cache.clear()
        with QueryService(serve_store, ServiceConfig(workers=2)) as service:
            miss = service.run("acme", PARENT_SQL, session="s1")
            hit = service.run("acme", PARENT_SQL, session="s1")
            refined = service.run("acme", CHILD_SQL, session="s1")
        assert isinstance(miss, QueryCompleted) and miss.cache_path == "miss"
        assert isinstance(hit, QueryCompleted) and hit.cache_path == "hit"
        assert isinstance(refined, QueryCompleted) and refined.cache_path == "miss"
        assert hit.result is miss.result
        # Served answers are direct execution's, in content and in every
        # work counter, from the same chunk-cache state.
        serve_store.chunk_cache.clear()
        for served, sql in ((miss, PARENT_SQL), (refined, CHILD_SQL)):
            direct = serve_store.execute(sql)
            assert served.result.content_equal(direct)
            assert _work(served.result.stats) == _work(direct.stats)

    def test_admission_sheds_exactly_beyond_depth(self, serve_store):
        backend = _BlockingBackend(serve_store)
        config = ServiceConfig(
            workers=1, queue_depth=2, max_inflight_per_tenant=1
        )
        with QueryService(backend, config) as service:
            # One query occupies the (blocked) engine; queue_depth more
            # sit in the tenant queue; everything past that is shed.
            first = service.submit("acme", PARENT_SQL)
            assert backend.started.wait(10.0)  # now in-flight, blocked
            tickets = [first] + [
                service.submit("acme", PARENT_SQL) for __ in range(5)
            ]
            shed = [t for t in tickets if t.done()]
            assert len(shed) == 3
            for ticket in shed:
                outcome = ticket.outcome(1.0)
                assert isinstance(outcome, QueryRejected)
                assert outcome.reason == "tenant queue full"
            backend.release.set()
            served = [
                t.outcome(30.0) for t in tickets if t not in shed
            ]
            assert all(isinstance(o, QueryCompleted) for o in served)
        counts = service.stats()["counts"]
        assert counts["submitted"] == 6
        assert counts["completed"] == 3
        assert counts["rejected"] == 3

    def test_engine_error_becomes_query_failed(self, serve_store):
        failing = [("SELECT nosuch FROM data", "nosuch"), *FAILING_QUERIES]
        with QueryService(serve_store, ServiceConfig(workers=1)) as service:
            for sql, message in failing:
                outcome = service.run("acme", sql, timeout=30.0)
                assert isinstance(outcome, QueryFailed), sql
                assert message in outcome.error
                # The one dispatch thread survived: the next query completes.
                after = service.run("acme", PARENT_SQL, timeout=30.0)
                assert isinstance(after, QueryCompleted)
            assert service.stats()["counts"]["failed"] == len(failing)
        backend = _RaisingBackend(serve_store, CHILD_SQL)
        with QueryService(backend, ServiceConfig(workers=1)) as service:
            for __ in range(2):
                outcome = service.run("acme", CHILD_SQL, timeout=30.0)
                assert isinstance(outcome, QueryFailed)
                assert outcome.error == "RuntimeError: backend bug"
                after = service.run("acme", PARENT_SQL, timeout=30.0)
                assert isinstance(after, QueryCompleted)
            assert all(t.is_alive() for t in service.worker_threads())

    def test_close_rejects_backlog_and_stops_threads(self, serve_store):
        backend = _BlockingBackend(serve_store)
        config = ServiceConfig(
            workers=1, queue_depth=4, max_inflight_per_tenant=1
        )
        service = QueryService(backend, config)
        tickets = [service.submit("acme", PARENT_SQL) for __ in range(3)]
        backend.release.set()  # let the in-flight query finish
        service.close()
        outcomes = [ticket.outcome(5.0) for ticket in tickets]
        rejected = [o for o in outcomes if isinstance(o, QueryRejected)]
        assert all(o.reason == "service shutdown" for o in rejected)
        assert len(rejected) == sum(
            1 for o in outcomes if not isinstance(o, QueryCompleted)
        )
        assert not any(t.is_alive() for t in service.worker_threads())
        assert service not in live_services()
        service.close()  # idempotent
        with pytest.raises(ServiceError):
            service.submit("acme", PARENT_SQL)

    def test_result_cache_can_be_disabled(self, serve_store):
        config = ServiceConfig(enable_result_cache=False)
        with QueryService(serve_store, config) as service:
            first = service.run("acme", PARENT_SQL)
            second = service.run("acme", PARENT_SQL)
            assert "cache" not in service.stats()
        assert first.cache_path == second.cache_path == "miss"

    def test_stats_shape(self, serve_store):
        with QueryService(serve_store) as service:
            service.run("acme", PARENT_SQL)
            snapshot = service.stats()
        assert snapshot["counts"]["completed"] == 1
        assert snapshot["latency"]["p50"] > 0
        assert snapshot["windowed_latency"]["window"] == 1
        assert snapshot["backlog"] == 0
        assert snapshot["cache"]["misses"] == 1

    def test_config_validation(self):
        for bad in (
            dict(workers=0),
            dict(queue_depth=0),
            dict(max_inflight_per_tenant=0),
            dict(default_weight=0),
            dict(cache_capacity_bytes=0),
            dict(dispatch_poll_seconds=0),
            dict(shutdown_timeout_seconds=0),
        ):
            with pytest.raises(ServiceError):
                ServiceConfig(**bad)

    def test_serving_over_simulated_cluster(self, log_table):
        cluster = SimulatedCluster.build(
            log_table,
            n_shards=3,
            store_options=DataStoreOptions(
                partition_fields=("country", "table_name"),
                max_chunk_rows=300,
                reorder_rows=True,
            ),
            config=ClusterConfig(n_machines=4, seed=11),
        )
        try:
            direct, __ = cluster.execute(PARENT_SQL)
            with QueryService(cluster, ServiceConfig(workers=2)) as service:
                miss = service.run("acme", PARENT_SQL)
                hit = service.run("acme", PARENT_SQL)
            assert miss.cache_path == "miss"
            # Exact canonical-plan reuse works over the cluster too.
            assert hit.cache_path == "hit"
            assert miss.result.content_equal(direct)
        finally:
            cluster.close()


class TestPoisonedTenantFairness:
    """One hot-looping heavy tenant cannot starve a well-behaved one.

    The isolation argument: the poisoner's flood lands in its *own*
    bounded queue (excess is shed at admission) and smooth WRR
    alternates picks between the two tenants — so a victim query waits
    behind a bounded number of heavy queries. Stated on the scheduler's
    logical clock (``QueryOutcome.turns_waited``: picks of other tenants
    between a query's admission and its dispatch), never in seconds.
    Run under the supervised process executor, the strategy production
    serving uses.

    The bound. Two tenants, weights ``w_v`` (victim) and ``w_p``,
    ``W = w_v + w_p``. A pick credits every *eligible* tenant its weight
    and charges the winner their sum, so the credits always add up to
    zero: ``c_p = -c_v``. With only one tenant eligible no credit moves.
    With both, the victim wins iff ``c_v + w_v >= c_p + w_p`` (a tie
    goes to the later name, the victim's), i.e. iff
    ``c_v >= (w_p - w_v) / 2``, and then pays ``w_p``; so ``c_v`` never
    falls below ``(w_p - w_v) / 2 - w_p = -W / 2``. Every pick the
    victim loses raises ``c_v`` by ``w_v``, and it needs to rise by at
    most ``w_p`` from that floor: a victim that stays eligible is picked
    after at most ``ceil(w_p / w_v)`` poisoner picks.

    It does stay eligible: the client is closed-loop (one query
    outstanding, which is below any ``max_inflight_per_tenant >= 1``),
    and the service frees a tenant's slot before it resolves the ticket,
    so when the next query is offered the victim's queue holds just it
    and no slot is taken. The poisoner's own cap only ever removes it
    from a pick, which moves no credit.
    """

    HEAVY_SQL = (
        "SELECT table_name, COUNT(*) as c, SUM(latency) as s FROM data "
        "GROUP BY table_name ORDER BY c DESC LIMIT 50;"
    )
    LIGHT_SQL = (
        "SELECT country, COUNT(*) as c FROM data "
        "WHERE country IN ('FI', 'US') GROUP BY country "
        "ORDER BY c DESC LIMIT 5;"
    )
    VICTIM_QUERIES = 8
    WEIGHTS = {"victim": 1, "poisoner": 1}

    def _victim_turns(self, service) -> list[int]:
        turns = []
        for __ in range(self.VICTIM_QUERIES):
            outcome = service.run("victim", self.LIGHT_SQL, timeout=120.0)
            assert isinstance(outcome, QueryCompleted)
            turns.append(outcome.turns_waited)
        return turns

    def test_victim_p95_bounded_under_attack(self, log_table):
        store = DataStore.from_table(
            log_table,
            DataStoreOptions(
                partition_fields=("country", "table_name"),
                max_chunk_rows=500,
                reorder_rows=True,
                executor="process",
            ),
        )
        # The cache would absorb the poison (identical heavy queries
        # become hits); disable it so every query pays the engine.
        config = ServiceConfig(
            workers=2,
            queue_depth=4,
            max_inflight_per_tenant=1,
            enable_result_cache=False,
        )
        try:
            with QueryService(store, config, weights=self.WEIGHTS) as service:
                solo = self._victim_turns(service)
                stop = threading.Event()

                def poison() -> None:
                    while not stop.is_set():
                        # Fire-and-forget flood; most offers are shed
                        # at admission (queue_depth=4), which is the
                        # mechanism under test.
                        service.submit("poisoner", self.HEAVY_SQL)

                attacker = threading.Thread(target=poison, daemon=True)
                attacker.start()
                try:
                    attacked = self._victim_turns(service)
                finally:
                    stop.set()
                    attacker.join(30.0)
                assert not attacker.is_alive()
                counts = service.stats()["counts"]
        finally:
            store.executor.close()
        # The flood was actually shed (the poisoner really flooded) …
        assert counts["rejected"] > 0
        # … and some of it was served while the victim queued, yet no
        # victim query waited longer than the bound derived above. An
        # unfair scheduler would queue it behind the poisoner's backlog
        # (queue_depth heavy queries, refilled as fast as they drain).
        bound = -(-self.WEIGHTS["poisoner"] // self.WEIGHTS["victim"])
        assert solo == [0] * self.VICTIM_QUERIES
        assert max(attacked) <= bound, attacked
        assert counts["completed"] > 2 * self.VICTIM_QUERIES
