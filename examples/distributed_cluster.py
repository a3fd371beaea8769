"""Distributed execution on the simulated cluster (Sections 4 and 6).

Shards the table quasi-randomly, builds one datastore per shard, and
executes queries through the computation tree with primary+replica
sub-queries. Demonstrates:

- exact agreement with single-node execution,
- replication hiding stragglers,
- the Figure 5 effect: latency grows with bytes loaded from disk, and
  most queries run entirely from memory once the working set is warm.

Run:  python examples/distributed_cluster.py [n_rows]
"""

from __future__ import annotations

import math
import sys

from repro import (
    ClusterConfig,
    DataStore,
    DataStoreOptions,
    DrillDownConfig,
    LogsConfig,
    MachineConfig,
    SimulatedCluster,
    generate_drilldown_sessions,
    generate_query_logs,
)


def main() -> None:
    n_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 60_000
    table = generate_query_logs(LogsConfig(n_rows=n_rows))
    options = DataStoreOptions(
        partition_fields=("country", "table_name"),
        max_chunk_rows=600,
        reorder_rows=True,
    )

    cluster = SimulatedCluster.build(
        table,
        n_shards=8,
        store_options=options,
        config=ClusterConfig(
            n_machines=8,
            replication=2,
            seed=1,
            machine=MachineConfig(
                memory_bytes=1024 * 1024,
                disk_bandwidth_bytes_per_second=10e6,
            ),
            straggler_probability=0.1,
            straggler_slowdown=20.0,
        ),
    )
    single = DataStore.from_table(table, options)

    query = (
        "SELECT country, COUNT(*) as c, AVG(latency) as a FROM data "
        "GROUP BY country ORDER BY c DESC LIMIT 5"
    )
    print(f"query: {query}\n")
    distributed, metrics = cluster.execute(query)
    local = single.execute(query)
    print("distributed result:")
    for row in distributed.rows():
        print(f"  {row}")
    print(
        f"\nmatches single node: "
        f"{distributed.sorted_rows() == local.sorted_rows()}"
    )
    print(
        f"simulated latency {1000 * metrics.latency_seconds:.1f} ms over "
        f"{metrics.sub_queries} sub-queries "
        f"({metrics.replica_wins} answered by the replica first); "
        f"{metrics.bytes_loaded_from_disk / 1024:.0f} KB loaded from disk"
    )

    # -- replication vs stragglers ----------------------------------------
    print("\nreplication vs stragglers (20 repeats, warm memory):")
    for replication in (1, 2):
        trial = SimulatedCluster.build(
            table,
            n_shards=8,
            store_options=options,
            config=ClusterConfig(
                n_machines=8,
                replication=replication,
                seed=9,
                straggler_probability=0.15,
                straggler_slowdown=30.0,
            ),
        )
        trial.execute(query)
        latencies = sorted(
            trial.execute(query)[1].latency_seconds for __ in range(20)
        )
        mean = sum(latencies) / len(latencies)
        print(
            f"  replication={replication}: mean {1000 * mean:7.1f} ms, "
            f"p90 {1000 * latencies[17]:7.1f} ms"
        )

    # -- Figure 5: latency by disk bytes ------------------------------------
    print("\nFigure 5 shape — drill-down mix, latency by disk-bytes bucket:")
    clicks = generate_drilldown_sessions(
        table, DrillDownConfig(n_sessions=6, clicks_per_session=3, seed=2)
    )
    buckets: dict[int, list[float]] = {}
    for batch in clicks:
        for sql in batch:
            __, m = cluster.execute(sql)
            key = (
                -1
                if m.bytes_loaded_from_disk == 0
                else int(math.log2(m.bytes_loaded_from_disk))
            )
            buckets.setdefault(key, []).append(m.latency_seconds)
    for key in sorted(buckets):
        values = buckets[key]
        label = "memory" if key == -1 else f"2^{key} B"
        print(
            f"  {label:>8}: {len(values):>4} queries, "
            f"avg {1000 * sum(values) / len(values):6.2f} ms"
        )
    in_memory = len(buckets.get(-1, []))
    total = sum(len(v) for v in buckets.values())
    print(
        f"\n{in_memory / total:.0%} of queries needed no disk at all "
        "(paper: >70%)"
    )


if __name__ == "__main__":
    main()
