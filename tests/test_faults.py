"""Fault injection and fault handling — the PR 3 invariants.

The load-bearing property (hypothesis-tested): under *any* seeded fault
plan, a query the cluster reports as **complete** returns rows
bit-identical to the fault-free cluster; a degraded query reports a
``row_coverage`` that equals the surviving-row fraction *exactly*. And
the whole fault schedule — events, counters, simulated latency — is a
pure function of ``(query sequence, fault seed)``, identical across
runs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.datastore import DataStoreOptions
from repro.distributed import (
    ClusterConfig,
    FaultConfig,
    FaultEvent,
    FaultPlan,
    SimulatedCluster,
    backoff_delay,
    dispatch_sub_query,
)
from repro.distributed.faults import NO_FAULTS, flip_bit
from repro.errors import (
    DistributedError,
    ResponseCorruptionError,
    ShardUnavailableError,
)
from repro.monitoring import counters
from repro.workload.generator import LogsConfig, generate_query_logs

_TABLE = generate_query_logs(
    LogsConfig(n_rows=800, n_days=12, n_teams=5, seed=31)
)
_OPTIONS = DataStoreOptions(
    partition_fields=("country", "table_name"),
    max_chunk_rows=120,
    reorder_rows=True,
)
_QUERY = (
    "SELECT country, COUNT(*) AS c, SUM(latency) AS s FROM data "
    "GROUP BY country ORDER BY c DESC LIMIT 10"
)
_PROJECTION = (
    "SELECT country, latency FROM data WHERE latency > 3000 "
    "ORDER BY latency DESC LIMIT 5"
)
_N_SHARDS = 4
_N_MACHINES = 6


def _cluster(faults=None, **config_overrides) -> SimulatedCluster:
    config = ClusterConfig(
        n_machines=_N_MACHINES, seed=5, faults=faults, **config_overrides
    )
    return SimulatedCluster.build(
        _TABLE, n_shards=_N_SHARDS, store_options=_OPTIONS, config=config
    )


#: The fault-free answers, computed once.
_BASELINE = {
    sql: _cluster().execute(sql)[0].sorted_rows()
    for sql in (_QUERY, _PROJECTION)
}


class TestFaultConfigValidation:
    def test_rates_must_be_probabilities(self):
        for name in ("crash_rate", "timeout_rate", "slow_rate", "corruption_rate"):
            with pytest.raises(DistributedError):
                FaultConfig(**{name: 1.5})
            with pytest.raises(DistributedError):
                FaultConfig(**{name: -0.1})

    def test_downtime_and_slow_factor_bounds(self):
        with pytest.raises(DistributedError):
            FaultConfig(mean_downtime_queries=0.5)
        with pytest.raises(DistributedError):
            FaultConfig(slow_factor=0.9)

    def test_deadline_bounds(self):
        with pytest.raises(DistributedError):
            FaultConfig(deadline_seconds=0.0)
        with pytest.raises(DistributedError):
            # Timeout faults are detected by the deadline firing.
            FaultConfig(timeout_rate=0.1, deadline_seconds=None)

    def test_retry_knob_bounds(self):
        with pytest.raises(DistributedError):
            FaultConfig(max_retries=-1)
        with pytest.raises(DistributedError):
            FaultConfig(backoff_base_seconds=-0.01)
        with pytest.raises(DistributedError):
            FaultConfig(backoff_multiplier=0.5)

    def test_no_faults_plan_is_inert(self):
        plan = FaultPlan(NO_FAULTS, 4)
        assert not plan.active
        assert not plan.is_down(0, 0)
        assert plan.down_machines(5) == []


class TestBackoffDelay:
    def test_exponential_schedule(self):
        assert backoff_delay(0, 0.01, 2.0) == pytest.approx(0.01)
        assert backoff_delay(1, 0.01, 2.0) == pytest.approx(0.02)
        assert backoff_delay(3, 0.01, 2.0) == pytest.approx(0.08)

    def test_negative_retry_rejected(self):
        with pytest.raises(DistributedError):
            backoff_delay(-1, 0.01, 2.0)


class TestFaultPlanDeterminism:
    def test_crash_schedule_reproducible(self):
        config = FaultConfig(seed=21, crash_rate=0.3)
        a = FaultPlan(config, 8)
        b = FaultPlan(config, 8)
        schedule_a = [a.down_machines(q) for q in range(30)]
        schedule_b = [b.down_machines(q) for q in range(30)]
        assert schedule_a == schedule_b
        assert any(schedule_a)  # 30 queries x 8 machines at 30%: crashes

    def test_crash_schedule_order_independent(self):
        """Probing queries out of order yields the same schedule."""
        config = FaultConfig(seed=3, crash_rate=0.4)
        forward = FaultPlan(config, 4)
        backward = FaultPlan(config, 4)
        ahead = [backward.is_down(m, 19) for m in range(4)]
        assert [forward.is_down(m, 19) for m in range(4)] == ahead

    def test_attempt_faults_stateless(self):
        config = FaultConfig(seed=9, timeout_rate=0.3, slow_rate=0.3,
                             corruption_rate=0.3)
        plan = FaultPlan(config, 4)
        first = plan.attempt_faults(2, 1, 3, 0)
        again = plan.attempt_faults(2, 1, 3, 0)
        assert first == again
        # Distinct keys draw independently; over many keys all three
        # fault kinds occur.
        draws = [
            plan.attempt_faults(q, s, m, 0)
            for q in range(6) for s in range(4) for m in range(4)
        ]
        assert any(d.timeout for d in draws)
        assert any(d.slow for d in draws)
        assert any(d.corrupt for d in draws)


class TestCorruptionDetection:
    def test_flip_bit_round_trip(self):
        payload = b"powerdrill"
        flipped = flip_bit(payload, 13)
        assert flipped != payload
        assert flip_bit(flipped, 13) == payload
        with pytest.raises(DistributedError):
            flip_bit(b"", 0)

    def test_corrupt_response_raises(self):
        plan = FaultPlan(FaultConfig(seed=1, corruption_rate=1.0), 2)
        with pytest.raises(ResponseCorruptionError):
            plan.verify_response(0, 0, 0, 0, {"k": 1}, corrupt=True)

    def test_clean_response_passes(self):
        plan = FaultPlan(FaultConfig(seed=1, corruption_rate=0.5), 2)
        plan.verify_response(0, 0, 0, 0, {"k": 1}, corrupt=False)


class TestDispatch:
    def test_all_replicas_down_is_unserved(self):
        plan = FaultPlan(FaultConfig(seed=2, crash_rate=1.0), 3)
        outcome = dispatch_sub_query(plan, 0, 7, [0, 1], lambda m: (0.01, 0))
        assert not outcome.served
        assert outcome.crashes == 2
        kinds = [event.kind for event in outcome.events]
        assert kinds.count("crash") == 2
        assert "shard-unavailable" in kinds

    def test_fastest_valid_response_wins(self):
        plan = FaultPlan(NO_FAULTS, 3)
        outcome = dispatch_sub_query(
            plan, 0, 0, [0, 1, 2], lambda m: (0.3 - 0.1 * m, 0)
        )
        assert outcome.served
        assert outcome.winner == 2
        assert outcome.replica_win
        assert outcome.seconds == pytest.approx(0.1)

    def test_deadline_kills_slow_attempts(self):
        plan = FaultPlan(FaultConfig(seed=0, deadline_seconds=0.2), 2)
        # Primary overruns the deadline; the replica answers in time.
        outcome = dispatch_sub_query(
            plan, 0, 0, [0, 1], lambda m: (0.5 if m == 0 else 0.05, 0)
        )
        assert outcome.served
        assert outcome.winner == 1
        assert outcome.failover
        assert outcome.timeouts == 1

    def test_retries_exhausted_accumulates_backoff(self):
        config = FaultConfig(
            seed=0, deadline_seconds=0.1, max_retries=2,
            backoff_base_seconds=0.01, backoff_multiplier=2.0,
        )
        plan = FaultPlan(config, 2)
        outcome = dispatch_sub_query(plan, 0, 0, [0, 1], lambda m: (1.0, 0))
        assert not outcome.served
        assert outcome.retries == 2
        assert outcome.backoff_seconds == pytest.approx(0.01 + 0.02)
        # 3 waves x 2 machines, every attempt deadline-killed.
        assert outcome.timeouts == 6
        # Unserved time: each wave ends at its deadline plus backoffs.
        assert outcome.seconds == pytest.approx(3 * 0.1 + 0.03)


class TestClusterUnderFaults:
    def test_no_fault_config_means_legacy_metrics(self):
        cluster = _cluster()
        __, metrics = cluster.execute(_QUERY)
        assert metrics.complete
        assert metrics.row_coverage == 1.0
        assert metrics.retries == 0
        assert metrics.fault_events == []

    def test_complete_under_crashes_is_bit_identical(self):
        faults = FaultConfig(seed=8, crash_rate=0.3)
        cluster = _cluster(faults=faults)
        saw_complete = saw_degraded = False
        for __ in range(12):
            result, metrics = cluster.execute(_QUERY)
            if metrics.complete:
                saw_complete = True
                assert result.sorted_rows() == _BASELINE[_QUERY]
                assert result.row_coverage == 1.0
            else:
                saw_degraded = True
                assert result.row_coverage < 1.0
        assert saw_complete and saw_degraded

    def test_degraded_coverage_is_exact(self):
        faults = FaultConfig(seed=8, crash_rate=0.3)
        cluster = _cluster(faults=faults)
        total = cluster.total_rows()
        for __ in range(12):
            result, metrics = cluster.execute(_QUERY)
            lost = sum(
                cluster.shards[s].n_rows for s in metrics.unavailable_shards
            )
            assert metrics.row_coverage == (total - lost) / total
            assert result.complete is metrics.complete

    def test_projection_queries_degrade_too(self):
        faults = FaultConfig(seed=8, crash_rate=0.3)
        cluster = _cluster(faults=faults)
        for __ in range(12):
            result, metrics = cluster.execute(_PROJECTION)
            if metrics.complete:
                assert result.sorted_rows() == _BASELINE[_PROJECTION]

    def test_degrade_false_raises(self):
        faults = FaultConfig(seed=8, crash_rate=0.9, mean_downtime_queries=5.0)
        cluster = _cluster(faults=faults, degrade=False)
        with pytest.raises(ShardUnavailableError):
            for __ in range(12):
                cluster.execute(_QUERY)

    def test_fault_counters_published(self):
        names = ("distributed.faults.crashes", "distributed.faults.degraded_queries")
        before = [counters.get(name) for name in names]
        faults = FaultConfig(seed=8, crash_rate=0.5)
        cluster = _cluster(faults=faults)
        for __ in range(10):
            cluster.execute(_QUERY)
        assert all(counters.get(name) > b for name, b in zip(names, before))

    def test_corruption_quarantine_still_serves(self):
        faults = FaultConfig(seed=4, corruption_rate=0.2)
        cluster = _cluster(faults=faults)
        quarantines = 0
        for __ in range(8):
            result, metrics = cluster.execute(_QUERY)
            quarantines += metrics.quarantines
            if metrics.complete:
                assert result.sorted_rows() == _BASELINE[_QUERY]
        assert quarantines > 0

    def test_same_seed_reproduces_everything(self):
        """(query sequence, fault seed) fully determines the run."""
        faults = FaultConfig(
            seed=6, crash_rate=0.25, timeout_rate=0.05,
            slow_rate=0.1, corruption_rate=0.05,
        )
        runs = []
        for __ in range(2):
            cluster = _cluster(faults=faults)
            trace = []
            for __ in range(8):
                __, metrics = cluster.execute(_QUERY)
                trace.append(
                    (
                        metrics.latency_seconds,
                        metrics.retries,
                        metrics.failovers,
                        metrics.timeouts,
                        metrics.quarantines,
                        metrics.crashes,
                        metrics.row_coverage,
                        tuple(metrics.fault_events),
                    )
                )
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_fault_events_attributed(self):
        faults = FaultConfig(seed=8, crash_rate=0.5)
        cluster = _cluster(faults=faults)
        events: list[FaultEvent] = []
        for __ in range(6):
            __, metrics = cluster.execute(_QUERY)
            events.extend(metrics.fault_events)
        assert events
        for event in events:
            assert event.kind in (
                "crash", "slow", "timeout", "corrupt", "retry",
                "shard-unavailable",
            )
            assert 0 <= event.shard_id < _N_SHARDS
            assert "q" in event.describe()


class TestFaultProperties:
    @given(seed=st.integers(0, 200), crash_rate=st.floats(0.0, 0.6))
    @settings(max_examples=40, deadline=None)
    def test_complete_implies_identical_else_exact_coverage(
        self, seed, crash_rate
    ):
        """THE invariant: any crash-only plan either leaves the answer
        bit-identical (complete) or reports exact coverage (degraded)."""
        faults = FaultConfig(seed=seed, crash_rate=crash_rate)
        cluster = _cluster(faults=faults)
        total = cluster.total_rows()
        for __ in range(3):
            result, metrics = cluster.execute(_QUERY)
            if metrics.complete:
                assert result.sorted_rows() == _BASELINE[_QUERY]
                assert metrics.row_coverage == 1.0
                assert metrics.unavailable_shards == ()
            else:
                lost = sum(
                    cluster.shards[s].n_rows
                    for s in metrics.unavailable_shards
                )
                assert 0 < lost <= total
                assert metrics.row_coverage == (total - lost) / total

    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_surviving_replica_everywhere_implies_complete(self, seed):
        """When every shard keeps >= 1 live replica, crash-only plans
        cannot degrade the answer."""
        faults = FaultConfig(seed=seed, crash_rate=0.3)
        cluster = _cluster(faults=faults)
        plan = cluster._fault_plan
        for query_index in range(3):
            every_shard_reachable = all(
                any(
                    not plan.is_down(m, query_index)
                    for m in cluster._placement[shard_id]
                )
                for shard_id in range(cluster.n_shards)
            )
            result, metrics = cluster.execute(_QUERY)
            if every_shard_reachable:
                assert metrics.complete
                assert result.sorted_rows() == _BASELINE[_QUERY]
