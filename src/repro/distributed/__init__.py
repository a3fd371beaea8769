"""Distributed execution — Section 4, and the Section 6 production setup.

- :mod:`repro.distributed.shard` -- quasi-random sharding of a table
  ("start by sharding the data quasi randomly across the machines"),
  each shard partitioned into chunks independently.
- :mod:`repro.distributed.tree` -- the computation tree: the
  level-by-level fold of columnar shard partials with the store's own
  aggregators (Section 4's group-by rewrite).
- :mod:`repro.distributed.cluster` -- a deterministic simulation of the
  production cluster: machines with fluctuating load, an in-memory /
  on-disk residency model, primary+replica sub-queries, and the
  latency/disk metrics behind Figure 5 and the Section 6 statistics.
- :mod:`repro.distributed.faults` -- Section 4's reliability story:
  seeded fault injection (crashes, timeouts, slow episodes, corrupted
  responses) and the handling engine (hedged dispatch, deadlines, CRC
  verification, bounded retry with backoff, graceful degradation with
  exact row-coverage accounting).
"""

from repro.distributed.cluster import (
    ClusterConfig,
    MachineConfig,
    QueryMetrics,
    SimulatedCluster,
)
from repro.distributed.faults import (
    FaultConfig,
    FaultEvent,
    FaultPlan,
    backoff_delay,
    dispatch_sub_query,
)
from repro.distributed.shard import Shard, shard_table
from repro.distributed.tree import ComputationTree

__all__ = [
    "ClusterConfig",
    "ComputationTree",
    "FaultConfig",
    "FaultEvent",
    "FaultPlan",
    "MachineConfig",
    "QueryMetrics",
    "Shard",
    "SimulatedCluster",
    "backoff_delay",
    "dispatch_sub_query",
    "shard_table",
]
