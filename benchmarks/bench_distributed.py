"""Section 4: distributed execution — tree rewrite, replication, scaling.

The paper distributes data quasi-randomly over machines, executes
group-by queries on a computation tree (aggregating at every level),
and sends each sub-query to a primary and a replica, taking the faster
answer. "An individual server on average spends less than 70
milliseconds on a sub-query."

Shape asserted:

- sharded execution returns exactly the single-node results;
- replication reduces tail latency under heavy stragglers;
- the computation tree keeps root merge work bounded as shards grow
  (per-level aggregation rather than a flat merge at the root).
"""

from __future__ import annotations

from benchmarks.helpers import (
    CHUNK_ROWS,
    PARTITION_FIELDS,
    emit_report,
    store_variant,
)
from repro.core.datastore import DataStoreOptions
from repro.distributed import ClusterConfig, SimulatedCluster
from tests.sanitizer import assert_results_equal

_QUERY = (
    "SELECT country, COUNT(*) as c, SUM(latency) as s FROM data "
    "GROUP BY country ORDER BY c DESC LIMIT 10"
)

_OPTIONS = None


def _options():
    return DataStoreOptions(
        partition_fields=PARTITION_FIELDS,
        max_chunk_rows=CHUNK_ROWS,
        reorder_rows=True,
    )


def _tail_latency(cluster, query, repeats=25) -> list[float]:
    cluster.execute(query)  # warm memory
    return sorted(
        cluster.execute(query)[1].latency_seconds for __ in range(repeats)
    )


def test_distributed_equals_single_node(benchmark, table):
    cluster = SimulatedCluster.build(
        table, n_shards=6, store_options=_options(),
        config=ClusterConfig(n_machines=8, seed=2),
    )
    single = store_variant("reorder")
    result, metrics = cluster.execute(_QUERY)
    assert_results_equal(result.rows(), single.execute(_QUERY).rows())
    assert metrics.sub_queries == 6
    benchmark(lambda: cluster.execute(_QUERY))


def test_replication_improves_tail(benchmark, table):
    def build(replication):
        return SimulatedCluster.build(
            table, n_shards=6, store_options=_options(),
            config=ClusterConfig(
                n_machines=8,
                seed=77,
                replication=replication,
                straggler_probability=0.15,
                straggler_slowdown=30.0,
            ),
        )

    unreplicated = _tail_latency(build(1), _QUERY)
    replicated = _tail_latency(build(2), _QUERY)
    p90_un = unreplicated[int(len(unreplicated) * 0.9)]
    p90_re = replicated[int(len(replicated) * 0.9)]
    mean_un = sum(unreplicated) / len(unreplicated)
    mean_re = sum(replicated) / len(replicated)

    lines = [
        "Section 4 — replication vs stragglers "
        "(15% straggler probability, 30x slowdown)",
        "",
        f"{'':<14} {'mean ms':>8} {'p90 ms':>8}",
        f"{'1 replica':<14} {1000 * mean_un:>8.2f} {1000 * p90_un:>8.2f}",
        f"{'2 replicas':<14} {1000 * mean_re:>8.2f} {1000 * p90_re:>8.2f}",
    ]
    emit_report("distributed_replication", lines)

    assert mean_re < mean_un
    assert p90_re <= p90_un

    cluster = build(2)
    benchmark(lambda: cluster.execute(_QUERY))


def test_tree_bounds_merge_work(benchmark, table):
    """Per-level aggregation: root fan-in stays <= fanout regardless of
    shard count (the reason for the recursive rewrite)."""
    from repro.distributed.tree import ComputationTree

    small = ComputationTree(4, fanout=4)
    large = ComputationTree(64, fanout=4)
    # Work grows with shards but spreads over levels: the root always
    # merges at most `fanout` children.
    assert small.depth == 1
    assert large.depth == 3

    cluster = SimulatedCluster.build(
        table, n_shards=12, store_options=_options(),
        config=ClusterConfig(n_machines=12, seed=5, fanout=3),
    )
    __, metrics = cluster.execute(_QUERY)
    # 12 leaves at fanout 3: 4 first-level merges + 2 + 1 -> operations
    # counted per merged child.
    assert metrics.merge_operations >= 12
    benchmark(lambda: cluster.execute(_QUERY))
