"""Distributed execution tests — sharding, tree, cluster simulation."""

import pickle

import numpy as np
import pytest

from repro.core.aggregation import AggState
from repro.core.datastore import DataStore, DataStoreOptions
from repro.distributed import (
    ClusterConfig,
    ComputationTree,
    MachineConfig,
    SimulatedCluster,
    shard_table,
)
from repro.distributed.tree import fold_level
from repro.errors import DistributedError
from repro.monitoring import counters
from repro.service import QueryService, ServiceConfig
from repro.sql.parser import parse_query
from repro.storage.dictionary import Dictionary
from tests.conftest import make_store
from tests.sanitizer import SanitizingExecutor, assert_results_equal


_OPTIONS = DataStoreOptions(
    partition_fields=("country", "table_name"),
    max_chunk_rows=150,
    reorder_rows=True,
)


class TestShardTable:
    def test_covers_all_rows(self, log_table):
        shards = shard_table(log_table, 7, seed=1)
        assert sum(s.n_rows for s in shards) == log_table.n_rows

    def test_roughly_balanced(self, log_table):
        shards = shard_table(log_table, 8, seed=2)
        sizes = [s.n_rows for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_multiset_preserved(self, log_table):
        shards = shard_table(log_table, 4, seed=3)
        combined = []
        for shard in shards:
            combined.extend(shard.column("country").values)
        assert sorted(combined) == sorted(log_table.column("country").values)

    def test_invalid_counts(self, log_table):
        with pytest.raises(DistributedError):
            shard_table(log_table, 0)
        with pytest.raises(DistributedError):
            shard_table(log_table, log_table.n_rows + 1)


class TestDecomposeQuery:
    """Section 4's rewrite of ``SELECT a, SUM(x) FROM (S1 UNION ALL S2)
    GROUP BY a`` into a select per shard and a merge: each shard hands up
    its groups' values and aggregator states, and a tree level folds them."""

    def _folded(self, log_table, sql: str, copies: int = 2) -> list[tuple]:
        """``sql`` over ``copies`` shards that each hold all of ``log_table``."""
        store = make_store(log_table)
        __, partial = store.execute_partials(sql)
        root = fold_level([partial] * copies)
        return list(root.answer(store.prepare(sql).query).iter_rows())

    def test_paper_example_shape(self, log_table):
        sql = "SELECT country, SUM(latency) AS s FROM data GROUP BY country"
        store = make_store(log_table)
        __, partial = store.execute_partials(sql)
        direct = store.execute(sql).rows()
        assert list(partial.values) == [country for country, __ in direct]
        assert self._folded(log_table, sql) == [(c, 2 * s) for c, s in direct]

    def test_count_becomes_sum(self, log_table):
        sql = "SELECT country, COUNT(*) AS c FROM data GROUP BY country"
        direct = make_store(log_table).execute(sql).rows()
        assert self._folded(log_table, sql, 3) == [(c, 3 * n) for c, n in direct]

    def test_avg_splits_into_sum_and_count(self, log_table):
        sql = "SELECT country, AVG(latency) AS a FROM data GROUP BY country"
        store = make_store(log_table)
        __, partial = store.execute_partials(sql)
        index, totals, counts = partial.states[1]  # a sum and a count per group
        direct = store.execute(sql).rows()
        assert (totals / counts).tolist() == [a for __, a in direct]
        assert self._folded(log_table, sql) == direct

    def test_decomposition_is_semantically_correct(self, log_table):
        """shard partials folded == direct execution (the Section 4 rewrite)."""
        sql = (
            "SELECT country, COUNT(*) as c, SUM(latency) as s, AVG(latency) as a "
            "FROM data GROUP BY country ORDER BY c DESC LIMIT 10"
        )
        stores = [make_store(shard) for shard in shard_table(log_table, 4, seed=5)]
        root = fold_level([store.execute_partials(sql)[1] for store in stores])
        direct = make_store(log_table).execute(sql)
        assert_results_equal(
            list(root.answer(parse_query(sql)).iter_rows()), direct.rows()
        )


class TestComputationTree:
    def test_depth(self):
        assert ComputationTree(1, fanout=8).depth == 1
        assert ComputationTree(8, fanout=8).depth == 1
        assert ComputationTree(9, fanout=8).depth == 2
        assert ComputationTree(64, fanout=8).depth == 2
        assert ComputationTree(65, fanout=8).depth == 3

    def test_invalid(self):
        with pytest.raises(DistributedError):
            ComputationTree(0)
        with pytest.raises(DistributedError):
            ComputationTree(4, fanout=1)

    #: Every aggregate kind, a NULL group value, a two-field GROUP BY and
    #: none; {t} is a threshold one shard keeps no row above.
    _TREE_QUERIES = (
        "SELECT country, COUNT(*) AS n, COUNT(latency) AS nl, SUM(latency) AS s, "
        "AVG(latency) AS a, MIN(table_name) AS lo, MAX(table_name) AS hi, "
        "MIN(latency) AS ml, MAX(latency) AS xl, COUNT(DISTINCT user_name) AS u, "
        "APPROX_COUNT_DISTINCT(user_name, 16) AS au FROM data "
        "WHERE latency > {t} GROUP BY country",
        "SELECT latency, COUNT(*) AS n, COUNT(DISTINCT country) AS c FROM data "
        "GROUP BY latency ORDER BY n DESC, latency LIMIT 7",
        "SELECT country, latency, COUNT(*) AS n, MAX(user_name) AS m FROM data "
        "WHERE latency > {t} OR latency < 30 GROUP BY country, latency",
        "SELECT COUNT(*) AS n, SUM(latency) AS s, MIN(user_name) AS m, "
        "APPROX_COUNT_DISTINCT(table_name) AS t FROM data WHERE latency > {t}",
    )

    def test_merge_is_associative_across_levels(self, null_log_table):
        """Folding with fanouts 2, 3 and 8 answers as one store, repr-exact."""
        shards = shard_table(null_log_table, 6, seed=7)
        stores = [DataStore.from_table(s, _OPTIONS) for s in shards]
        # The lowest of the shards' top latencies: that shard keeps no row.
        threshold = min(
            max(v for v in s.column("latency").values if v is not None)
            for s in shards
        )
        single = DataStore.from_table(null_log_table, _OPTIONS)
        for query in self._TREE_QUERIES:
            query = query.format(t=threshold)
            parsed = single.prepare(query).query
            partials = [store.execute_partials(query)[1] for store in stores]
            expected = repr(single.execute(query).rows())
            for fanout in (2, 3, 8):
                root, __ = ComputationTree(6, fanout=fanout).merge_levels(partials)
                rows = list(root.answer(parsed).iter_rows())
                assert repr(rows) == expected, (fanout, query)
        first = self._TREE_QUERIES[0].format(t=threshold)
        assert min(len(store.execute(first).rows()) for store in stores) == 0

    def test_merge_does_not_mutate_inputs(self, log_table):
        query = (
            "SELECT country, COUNT(*) AS c, SUM(latency) AS s, MAX(user_name) AS m, "
            "COUNT(DISTINCT user_name) AS u, APPROX_COUNT_DISTINCT(table_name) AS a "
            "FROM data GROUP BY country"
        )
        store = make_store(log_table)
        __, partial = store.execute_partials(query)
        before = pickle.dumps(partial)
        fold_level([partial, partial]).partial()
        assert pickle.dumps(partial) == before


def _cluster(log_table) -> SimulatedCluster:
    """The ``cluster`` fixture's cluster, freshly built."""
    return SimulatedCluster.build(
        log_table,
        n_shards=6,
        store_options=_OPTIONS,
        config=ClusterConfig(n_machines=8, seed=4),
    )


class TestSimulatedCluster:
    @pytest.fixture(scope="class")
    def cluster(self, log_table):
        return _cluster(log_table)

    def test_cost_model_is_pinned(self, log_table):
        """merge_operations, sub_queries, replica_wins, disk bytes and the
        latency, query after query on a fresh fixture cluster: the values
        the per-group AggState merge gave. The merge-time model reads the
        root's group count."""
        cluster = _cluster(log_table)
        queries = (
            "SELECT country, COUNT(*) as c FROM data GROUP BY country "
            "ORDER BY c DESC LIMIT 10",
            "SELECT table_name, COUNT(*) AS c, COUNT(DISTINCT user_name) AS u "
            "FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10",
            "SELECT COUNT(*) AS n, AVG(latency) AS a FROM data WHERE latency > 100",
            "SELECT country, latency FROM data WHERE latency > 400 "
            "ORDER BY latency DESC LIMIT 5",
        )
        pinned = [
            (6, 6, 1, 8428, 0.009010195126755445),
            (6, 6, 5, 149418, 0.01243319773245246),
            (6, 6, 3, 48748, 0.010020283047518001),
            (6, 6, 4, 0, 0.0038176580522945405),
            (6, 6, 4, 0, 0.01099175449658273),
        ]
        for query, expected in zip([*queries, queries[0]], pinned):
            __, m = cluster.execute(query)
            assert (
                m.merge_operations, m.sub_queries, m.replica_wins,
                m.bytes_loaded_from_disk, m.latency_seconds,
            ) == expected, query  # fmt: skip

    def test_a_warm_tree_builds_no_aggstate_and_decodes_survivors(
        self, log_table, monkeypatch
    ):
        """A warm 4-shard top-10 GROUP BY: no AggState is built, and the
        only dictionary lookups are the ten survivors' group values."""
        cluster = SimulatedCluster.build(
            log_table, 4, _OPTIONS, ClusterConfig(n_machines=4, seed=1)
        )
        query = (
            "SELECT table_name, COUNT(*) AS c FROM data GROUP BY table_name "
            "ORDER BY c DESC LIMIT 10"
        )
        expected = make_store(log_table).execute(query).rows()
        assert cluster.execute(query)[0].rows() == expected  # warm
        built, looked_up = [], []
        for kind in AggState.__subclasses__():
            init = kind.__init__
            monkeypatch.setattr(
                kind, "__init__",
                lambda self, *a, init=init: built.append(self) or init(self, *a),
            )  # fmt: skip
        value = Dictionary.value
        monkeypatch.setattr(
            Dictionary, "value",
            lambda self, gid: looked_up.append(gid) or value(self, gid),
        )  # fmt: skip
        result, __ = cluster.execute(query)
        assert result.rows() == expected
        assert built == [] and len(looked_up) == 10
        assert len(set(log_table.column("table_name").values)) > 100

    def test_served_texts_parse_once(self, log_table):
        """Ten served submissions of one text parse it once, through the
        first shard's prepare memo."""
        cluster = _cluster(log_table)
        text = "SELECT country, COUNT(*) AS c FROM data GROUP BY country"
        parsed = counters.get("datastore.sql.parsed")
        config = ServiceConfig(workers=1, enable_result_cache=False)
        with QueryService(cluster, config) as service:
            tickets = [service.submit("t", text) for __ in range(10)]
            outcomes = [ticket.outcome(60.0) for ticket in tickets]
        assert counters.get("datastore.sql.parsed") == parsed + 1
        expected = make_store(log_table).execute(text).rows()
        assert all(outcome.result.rows() == expected for outcome in outcomes)

    def test_results_match_single_node(self, cluster, log_table):
        single = make_store(log_table)
        for query in (
            "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10",
            "SELECT COUNT(*) FROM data WHERE latency > 100",
            "SELECT country, COUNT(DISTINCT user_name) as d FROM data GROUP BY country ORDER BY d DESC LIMIT 5",
        ):
            distributed, __ = cluster.execute(query)
            assert_results_equal(
                distributed.rows(), single.execute(query).rows(), context=query
            )

    def test_sanitizer_clean_over_cluster(self, log_table):
        """Every shard store's chunk scans run under the shared-state
        sanitizer. A sub-query that mutated its captures would raise
        here."""
        cluster = SimulatedCluster.build(
            log_table,
            n_shards=5,
            store_options=_OPTIONS,
            config=ClusterConfig(n_machines=6, seed=9),
        )
        for shard in cluster.shards:
            shard.store.executor = SanitizingExecutor(shard.store.executor)
        single = make_store(log_table)
        for query in (
            "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10",
            "SELECT table_name, SUM(latency) as s FROM data GROUP BY table_name ORDER BY s DESC LIMIT 8",
        ):
            distributed, __ = cluster.execute(query)
            assert_results_equal(
                distributed.rows(), single.execute(query).rows(), context=query
            )
        assert all(
            shard.store.executor.checked_submissions >= 2
            for shard in cluster.shards
        )

    def test_first_query_loads_from_disk_then_memory(self, log_table):
        cluster = SimulatedCluster.build(
            log_table,
            n_shards=4,
            store_options=_OPTIONS,
            config=ClusterConfig(n_machines=4, seed=9),
        )
        query = "SELECT country, COUNT(*) FROM data GROUP BY country"
        __, first = cluster.execute(query)
        __, second = cluster.execute(query)
        assert first.bytes_loaded_from_disk > 0
        assert second.bytes_loaded_from_disk == 0

    def test_disk_bytes_increase_latency(self, log_table):
        cluster = SimulatedCluster.build(
            log_table,
            n_shards=4,
            store_options=_OPTIONS,
            config=ClusterConfig(
                n_machines=4,
                seed=10,
                load_sigma=0.0,
                straggler_probability=0.0,
            ),
        )
        query = "SELECT table_name, COUNT(*) as c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 5"
        __, cold = cluster.execute(query)
        __, warm = cluster.execute(query)
        assert cold.latency_seconds > warm.latency_seconds

    def test_replication_tames_stragglers(self, log_table):
        """With replicas, a straggling machine rarely defines latency."""
        def run(replication: int) -> float:
            cluster = SimulatedCluster.build(
                log_table,
                n_shards=6,
                store_options=_OPTIONS,
                config=ClusterConfig(
                    n_machines=8,
                    seed=42,
                    replication=replication,
                    straggler_probability=0.2,
                    straggler_slowdown=50.0,
                ),
            )
            query = "SELECT country, COUNT(*) FROM data GROUP BY country"
            cluster.execute(query)  # warm memory
            total = 0.0
            for __ in range(20):
                __, metrics = cluster.execute(query)
                total += metrics.latency_seconds
            return total

        assert run(2) < run(1)

    def test_replica_placement_distinct_machines(self, cluster):
        for shard_id in range(cluster.n_shards):
            machines = cluster._placement[shard_id]
            assert len(machines) == len(set(machines)) == 2

    def test_stats_aggregate_over_shards(self, cluster, log_table):
        result, metrics = cluster.execute(
            "SELECT COUNT(*) FROM data WHERE country = 'US'"
        )
        assert metrics.stats.rows_total == log_table.n_rows
        assert metrics.sub_queries == cluster.n_shards

    def test_projection_query_distributed(self, cluster, log_table):
        single = make_store(log_table)
        query = "SELECT country, latency FROM data WHERE latency > 3000 ORDER BY latency DESC LIMIT 5"
        distributed, __ = cluster.execute(query)
        assert_results_equal(
            distributed.rows(), single.execute(query).rows(), context=query
        )

    def test_invalid_config(self):
        with pytest.raises(DistributedError):
            ClusterConfig(n_machines=0)
        with pytest.raises(DistributedError):
            ClusterConfig(n_machines=2, replication=3)


class TestClusterConfigValidation:
    def test_fanout_below_two(self):
        with pytest.raises(DistributedError):
            ClusterConfig(fanout=1)

    def test_negative_load_sigma(self):
        with pytest.raises(DistributedError):
            ClusterConfig(load_sigma=-0.1)

    def test_straggler_probability_out_of_range(self):
        with pytest.raises(DistributedError):
            ClusterConfig(straggler_probability=1.5)
        with pytest.raises(DistributedError):
            ClusterConfig(straggler_probability=-0.1)

    def test_straggler_slowdown_below_one(self):
        with pytest.raises(DistributedError):
            ClusterConfig(straggler_slowdown=0.5)

    def test_valid_knobs_accepted(self):
        config = ClusterConfig(
            fanout=4,
            load_sigma=0.0,
            straggler_probability=1.0,
            straggler_slowdown=1.0,
        )
        assert config.fanout == 4


class TestMachineMemory:
    def test_oversized_entry_never_resident(self):
        from repro.distributed.cluster import _MachineMemory

        memory = _MachineMemory(capacity_bytes=1000)
        # An entry larger than the whole budget streams from disk on
        # every touch — it must not be admitted (it could never be
        # evicted down below capacity) and must keep charging disk.
        assert memory.touch(("s", "huge"), 5000) == 5000
        assert memory.touch(("s", "huge"), 5000) == 5000
        # Small entries still cache normally alongside it.
        assert memory.touch(("s", "small"), 100) == 100
        assert memory.touch(("s", "small"), 100) == 0

    def test_eviction_keeps_usage_bounded(self):
        from repro.distributed.cluster import _MachineMemory

        memory = _MachineMemory(capacity_bytes=250)
        for index in range(10):
            memory.touch(("s", index), 100)
        resident = sum(memory._resident.values())
        assert resident <= 250
        # LRU: the most recent entry survived.
        assert ("s", 9) in memory._resident


class TestTreeDepthEdges:
    def test_single_leaf_any_fanout(self):
        assert ComputationTree(1, fanout=2).depth == 1
        assert ComputationTree(1, fanout=16).depth == 1

    def test_exactly_fanout_leaves(self):
        assert ComputationTree(3, fanout=3).depth == 1
        assert ComputationTree(16, fanout=16).depth == 1

    def test_one_more_than_fanout(self):
        assert ComputationTree(4, fanout=3).depth == 2
        assert ComputationTree(17, fanout=16).depth == 2


class TestPlacement:
    def test_primary_first_and_distinct(self, log_table):
        cluster = SimulatedCluster.build(
            log_table, n_shards=5, store_options=_OPTIONS,
            config=ClusterConfig(n_machines=6, replication=3, seed=11),
        )
        for shard_id in range(cluster.n_shards):
            machines = cluster._placement[shard_id]
            assert len(machines) == 3
            assert len(set(machines)) == 3
            assert all(0 <= m < 6 for m in machines)


class TestQueryMetricsFields:
    def test_defaults_are_fault_free(self):
        from repro.distributed.cluster import QueryMetrics

        metrics = QueryMetrics()
        assert metrics.complete
        assert metrics.row_coverage == 1.0
        assert metrics.unavailable_shards == ()
        assert metrics.fault_events == []


class TestEdgeCases:
    def test_single_shard_cluster(self, log_table):
        cluster = SimulatedCluster.build(
            log_table, n_shards=1, store_options=_OPTIONS,
            config=ClusterConfig(n_machines=2, seed=1),
        )
        single = make_store(log_table)
        query = "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 5"
        result, metrics = cluster.execute(query)
        assert_results_equal(result.rows(), single.execute(query).rows())
        assert metrics.sub_queries == 1

    def test_query_matching_nothing(self, log_table):
        cluster = SimulatedCluster.build(
            log_table, n_shards=4, store_options=_OPTIONS,
            config=ClusterConfig(n_machines=4, seed=2),
        )
        result, __ = cluster.execute(
            "SELECT country, COUNT(*) FROM data WHERE country = 'ZZ' "
            "GROUP BY country"
        )
        assert result.rows() == []
        # Ungrouped aggregates still produce the single global row.
        result, __ = cluster.execute(
            "SELECT COUNT(*), SUM(latency) FROM data WHERE country = 'ZZ'"
        )
        assert result.rows() == [(0, None)]

    def test_having_applies_at_the_root(self, log_table):
        """HAVING must see *merged* totals, not per-shard partials."""
        cluster = SimulatedCluster.build(
            log_table, n_shards=6, store_options=_OPTIONS,
            config=ClusterConfig(n_machines=6, seed=3),
        )
        single = make_store(log_table)
        query = (
            "SELECT country, COUNT(*) as c FROM data GROUP BY country "
            "HAVING c > 300 ORDER BY c DESC"
        )
        result, __ = cluster.execute(query)
        assert_results_equal(result.rows(), single.execute(query).rows())
        # A per-shard HAVING would drop countries whose per-shard counts
        # fall below the threshold; verify at least one such country
        # survived (i.e. global > 300 but per-shard < 300 everywhere).
        survivors = {row[0] for row in result.rows()}
        borderline = [
            row[0]
            for row in single.execute(
                "SELECT country, COUNT(*) as c FROM data GROUP BY country "
                "HAVING c > 300 ORDER BY c ASC LIMIT 1"
            ).rows()
        ]
        assert set(borderline) <= survivors

    def test_min_replication_one(self, log_table):
        cluster = SimulatedCluster.build(
            log_table, n_shards=3, store_options=_OPTIONS,
            config=ClusterConfig(n_machines=3, replication=1, seed=4),
        )
        __, metrics = cluster.execute("SELECT COUNT(*) FROM data")
        assert metrics.replica_wins == 0
