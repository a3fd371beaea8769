"""Distributed execution tests — sharding, tree, cluster simulation."""

import numpy as np
import pytest

from repro.core.datastore import DataStore, DataStoreOptions
from repro.distributed import (
    ClusterConfig,
    ComputationTree,
    MachineConfig,
    SimulatedCluster,
    decompose_query,
    merge_group_partials,
    shard_table,
)
from repro.errors import DistributedError, UnsupportedQueryError
from repro.formats.rowexec import execute_on_rows
from repro.sql.parser import parse_query
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
    def test_paper_example_shape(self):
        leaf, merge = decompose_query(
            parse_query("SELECT a, SUM(x) FROM data GROUP BY a")
        )
        assert "SUM" in leaf.sql()
        assert merge.table == "partials"
        assert "SUM(a0)" in merge.sql()

    def test_count_becomes_sum(self):
        __, merge = decompose_query(
            parse_query("SELECT a, COUNT(*) FROM data GROUP BY a")
        )
        assert "SUM(a0)" in merge.sql()

    def test_avg_splits_into_sum_and_count(self):
        leaf, merge = decompose_query(
            parse_query("SELECT a, AVG(x) FROM data GROUP BY a")
        )
        assert "SUM(x)" in leaf.sql()
        assert "COUNT(x)" in leaf.sql()
        assert "/" in merge.sql()

    def test_exact_count_distinct_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            decompose_query(
                parse_query("SELECT a, COUNT(DISTINCT x) FROM data GROUP BY a")
            )

    def test_decomposition_is_semantically_correct(self, log_table):
        """leaf-per-shard + merge == direct execution (the Section 4 rewrite)."""
        query = parse_query(
            "SELECT country, COUNT(*) as c, SUM(latency) as s, AVG(latency) as a "
            "FROM data GROUP BY country ORDER BY c DESC LIMIT 10"
        )
        leaf, merge = decompose_query(query)
        shards = shard_table(log_table, 4, seed=5)
        partial_rows = []
        for shard in shards:
            result = execute_on_rows(leaf, shard.schema, shard.iter_rows())
            partial_rows.extend(result.iter_rows())
        merged = execute_on_rows(
            merge,
            # the partials table schema comes from the leaf output
            execute_on_rows(leaf, shards[0].schema, iter([])).schema,
            iter(partial_rows),
        )
        direct = execute_on_rows(
            parse_query(
                "SELECT country as g0, COUNT(*) as a0, SUM(latency) as a1, "
                "AVG(latency) as a2 FROM data GROUP BY country"
            ),
            log_table.schema,
            log_table.iter_rows(),
        )
        assert_results_equal(
            sorted(merged.iter_rows()), sorted(direct.iter_rows())
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

    def test_merge_is_associative_across_levels(self, log_table):
        """Merging with different fanouts yields identical results."""
        query = (
            "SELECT country, COUNT(*) as c, COUNT(DISTINCT table_name) as cd "
            "FROM data GROUP BY country ORDER BY c DESC LIMIT 10"
        )
        shards = shard_table(log_table, 6, seed=7)
        stores = [DataStore.from_table(s, _OPTIONS) for s in shards]
        partials = [store.execute_partials(query)[1] for store in stores]
        from repro.distributed.tree import finalize_partials

        results = []
        for fanout in (2, 3, 8):
            merged, __ = ComputationTree(6, fanout=fanout).merge_levels(
                [dict(p) for p in partials]
            )
            results.append(
                list(finalize_partials(parse_query(query), merged).iter_rows())
            )
        assert results[0] == results[1] == results[2]

    def test_merge_does_not_mutate_inputs(self, log_table):
        query = "SELECT country, COUNT(*) as c FROM data GROUP BY country"
        store = make_store(log_table)
        __, partial = store.execute_partials(query)
        key = next(iter(partial))
        before = partial[key][1][0].count
        merge_group_partials([partial, partial])
        assert partial[key][1][0].count == before


class TestSimulatedCluster:
    @pytest.fixture(scope="class")
    def cluster(self, log_table):
        return SimulatedCluster.build(
            log_table,
            n_shards=6,
            store_options=_OPTIONS,
            config=ClusterConfig(n_machines=8, seed=4),
        )

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

    def test_parallel_executor_identical_to_serial(self, log_table):
        """Fanning shard sub-queries over threads changes nothing
        observable: results, ScanStats counters and even the simulated
        cost-model metrics match the serial cluster exactly (the RNG
        draws stay on the merge thread in shard order)."""
        serial = SimulatedCluster.build(
            log_table,
            n_shards=6,
            store_options=_OPTIONS,
            config=ClusterConfig(n_machines=8, seed=4),
        )
        parallel = SimulatedCluster.build(
            log_table,
            n_shards=6,
            store_options=_OPTIONS,
            config=ClusterConfig(
                n_machines=8, seed=4, executor="parallel", workers=4
            ),
        )
        for query in (
            "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10",
            "SELECT COUNT(*) FROM data WHERE latency > 100",
            "SELECT table_name, SUM(latency) as s FROM data GROUP BY table_name ORDER BY s DESC LIMIT 8",
        ):
            serial_result, serial_metrics = serial.execute(query)
            parallel_result, parallel_metrics = parallel.execute(query)
            assert serial_result.rows() == parallel_result.rows(), query
            assert (
                serial_metrics.latency_seconds
                == parallel_metrics.latency_seconds
            ), query
            assert (
                serial_metrics.bytes_loaded_from_disk
                == parallel_metrics.bytes_loaded_from_disk
            ), query

    def test_sanitizer_clean_over_cluster(self, log_table):
        """Both fan-out seams run under the shared-state sanitizer:
        the cluster's shard dispatch and every shard store's chunk
        scans. A sub-query that mutated its captures would raise here."""
        cluster = SimulatedCluster.build(
            log_table,
            n_shards=5,
            store_options=_OPTIONS,
            config=ClusterConfig(
                n_machines=6, seed=9, executor="parallel", workers=4
            ),
        )
        cluster._executor = SanitizingExecutor(cluster._executor)
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
        assert cluster._executor.checked_submissions >= 2
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
        assert second.served_from_memory

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
            machines = cluster.placement_of(shard_id)
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
    def test_unknown_executor(self):
        with pytest.raises(DistributedError):
            ClusterConfig(executor="gpu")
        # The machines are simulated in this process; a process pool is
        # not a strategy the shard fan-out offers.
        with pytest.raises(DistributedError):
            ClusterConfig(executor="process")

    def test_workers_below_one(self):
        with pytest.raises(DistributedError):
            ClusterConfig(executor="parallel", workers=0)

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
            executor="parallel",
            workers=2,
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
            machines = cluster.placement_of(shard_id)
            assert len(machines) == 3
            assert len(set(machines)) == 3
            assert all(0 <= m < 6 for m in machines)
            # The first entry is the primary the dispatcher hedges from.
            assert machines[0] == cluster._placement[shard_id][0]

    def test_placement_of_returns_a_copy(self, log_table):
        cluster = SimulatedCluster.build(
            log_table, n_shards=2, store_options=_OPTIONS,
            config=ClusterConfig(n_machines=4, seed=12),
        )
        machines = cluster.placement_of(0)
        machines.append(99)
        assert 99 not in cluster.placement_of(0)


class TestQueryMetricsFields:
    def test_served_from_memory(self):
        from repro.distributed.cluster import QueryMetrics

        assert QueryMetrics().served_from_memory
        assert not QueryMetrics(bytes_loaded_from_disk=1).served_from_memory

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
