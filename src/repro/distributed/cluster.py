"""A deterministic simulation of the production cluster — Sections 4 & 6.

The paper's productionized system runs on >1000 machines holding >4 TB
of column data in memory. We reproduce its *behaviour* — which machine
does what, what must be loaded from disk, how replication tames
stragglers — with a deterministic cost model, while all query *results*
are computed for real on per-shard datastores.

Model, mirroring the paper:

- shards are assigned to machines quasi-randomly; each sub-query is
  sent to a **primary and a replica** and "answered" by whichever
  simulated machine finishes first. Both always compute (keeping their
  caches in sync), and both pay their own disk loads — exactly the
  scheme of Section 4 "Reliable Distributed Execution".
- the reliability half of that section lives in
  :mod:`repro.distributed.faults`: a seeded :class:`FaultPlan`
  (``ClusterConfig.faults``) can crash machines, time out / slow down /
  corrupt sub-query responses, and every sub-query then runs through
  hedged dispatch, deadlines, CRC verification and bounded retry with
  exponential backoff. When every replica of a shard is lost the query
  **degrades gracefully**: the merge proceeds without that shard and
  the result carries ``complete=False`` plus an exact ``row_coverage``
  fraction (set ``degrade=False`` to get
  :class:`~repro.errors.ShardUnavailableError` instead).
- each machine has a RAM budget for column data. A sub-query needs its
  accessed fields resident; missing ones are loaded at disk bandwidth
  (the paper assumes ">= 100 MB/second") and kept under LRU.
- machine load fluctuates (log-normal), with occasional stragglers that
  replication hides; scan time is proportional to rows scanned.
- columnar partials are folded up a fan-in computation tree; the root
  reads the fold out as one store does.

The per-query :class:`QueryMetrics` expose latency, cumulative bytes
loaded from disk (Figure 5's x-axis) and the skipped/cached/scanned
split (the Section 6 92.41% / 5.02% / 2.66% statistic).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.datastore import DataStoreOptions, Prepared
from repro.core.result import QueryResult, ScanStats
from repro.core.table import Table
from repro.distributed.faults import (
    NO_FAULTS,
    FaultConfig,
    FaultEvent,
    FaultPlan,
    dispatch_sub_query,
)
from repro.distributed.shard import Shard, shard_table
from repro.distributed.tree import ComputationTree
from repro.core.result import finalize as finalize_rows
from repro.errors import DistributedError, ShardUnavailableError
from repro.monitoring import counters
from repro.sql.ast_nodes import Query


@dataclass(frozen=True)
class MachineConfig:
    """Per-machine capacities (paper-scale C++ rates, deliberately)."""

    memory_bytes: float = 64 * 1024 * 1024
    scan_rate_rows_per_second: float = 50e6
    disk_bandwidth_bytes_per_second: float = 100e6  # the paper's assumption
    merge_rate_groups_per_second: float = 2e6
    base_overhead_seconds: float = 0.005


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster topology and variability knobs."""

    n_machines: int = 8
    replication: int = 2
    fanout: int = 8
    seed: int = 0
    machine: MachineConfig = field(default_factory=MachineConfig)
    load_sigma: float = 0.35
    straggler_probability: float = 0.05
    straggler_slowdown: float = 12.0
    # Fault model (None = the inert plan: nothing ever fails) and the
    # degradation policy when a shard loses every replica: serve an
    # incomplete result (True) or raise ShardUnavailableError (False).
    faults: FaultConfig | None = None
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.n_machines < 1:
            raise DistributedError("cluster needs at least one machine")
        if not 1 <= self.replication <= self.n_machines:
            raise DistributedError(
                "replication must be between 1 and n_machines"
            )
        if self.fanout < 2:
            raise DistributedError(
                f"fanout must be >= 2, got {self.fanout}"
            )
        if self.load_sigma < 0:
            raise DistributedError(
                f"load_sigma must be >= 0, got {self.load_sigma}"
            )
        if not 0.0 <= self.straggler_probability <= 1.0:
            raise DistributedError(
                "straggler_probability must be in [0, 1], got "
                f"{self.straggler_probability}"
            )
        if self.straggler_slowdown < 1.0:
            raise DistributedError(
                f"straggler_slowdown must be >= 1, got "
                f"{self.straggler_slowdown}"
            )


@dataclass
class QueryMetrics:
    """Simulated execution metrics for one distributed query."""

    latency_seconds: float = 0.0
    bytes_loaded_from_disk: int = 0
    sub_queries: int = 0
    replica_wins: int = 0
    merge_operations: int = 0
    stats: ScanStats = field(default_factory=ScanStats)
    # Fault handling (all zero / complete on a fault-free run).
    retries: int = 0
    failovers: int = 0
    timeouts: int = 0
    quarantines: int = 0
    crashes: int = 0
    machines_down: int = 0
    backoff_seconds: float = 0.0
    complete: bool = True
    row_coverage: float = 1.0
    unavailable_shards: tuple[int, ...] = ()
    fault_events: list[FaultEvent] = field(default_factory=list)


class _MachineMemory:
    """LRU residency of (shard, field) column data on one machine."""

    def __init__(self, capacity_bytes: float) -> None:
        self.capacity = capacity_bytes
        self._resident: OrderedDict[tuple, int] = OrderedDict()
        self._used = 0

    def touch(self, key: tuple, size: int) -> int:
        """Mark ``key`` used; returns bytes that had to come from disk."""
        if key in self._resident:
            self._resident.move_to_end(key)
            return 0
        if size > self.capacity:
            # An entry that alone overflows the budget must never be
            # admitted: it would stay resident forever (eviction keeps
            # one entry) and permanently blow the byte accounting.
            # It streams from disk on every access instead.
            return size
        self._resident[key] = size
        self._used += size
        while self._used > self.capacity and len(self._resident) > 1:
            __, evicted = self._resident.popitem(last=False)
            self._used -= evicted
        return size


class SimulatedCluster:
    """Shards + machines + replication + a deterministic cost model."""

    def __init__(
        self,
        shards: list[Shard],
        config: ClusterConfig,
    ) -> None:
        self.shards = shards
        self.config = config
        self._fault_plan = FaultPlan(
            config.faults if config.faults is not None else NO_FAULTS,
            config.n_machines,
        )
        self._rng = np.random.default_rng(config.seed)
        self._memories = [
            _MachineMemory(config.machine.memory_bytes)
            for __ in range(config.n_machines)
        ]
        # Quasi-random placement: primary and replicas on distinct machines.
        placement_rng = np.random.default_rng(config.seed + 1)
        self._placement: list[list[int]] = []
        for shard in shards:
            machines = placement_rng.permutation(config.n_machines)[
                : config.replication
            ]
            self._placement.append([int(m) for m in machines])
        self._query_count = 0

    # -- construction ---------------------------------------------------------
    @classmethod
    def build(
        cls,
        table: Table,
        n_shards: int,
        store_options: DataStoreOptions | None = None,
        config: ClusterConfig | None = None,
    ) -> "SimulatedCluster":
        """Shard ``table`` and build one datastore per shard."""
        config = config or ClusterConfig()
        store_options = store_options or DataStoreOptions()
        pieces = shard_table(table, n_shards, seed=config.seed)
        shards = [
            Shard.build(index, piece, store_options)
            for index, piece in enumerate(pieces)
        ]
        return cls(shards, config)

    # -- cost model ------------------------------------------------------------
    def _load_multiplier(self) -> float:
        multiplier = float(
            np.exp(self._rng.normal(0.0, self.config.load_sigma))
        )
        if self._rng.random() < self.config.straggler_probability:
            multiplier *= self.config.straggler_slowdown
        return multiplier

    def _machine_time(
        self, machine_index: int, shard: Shard, stats: ScanStats
    ) -> tuple[float, int]:
        """Simulated (seconds, disk bytes) for one machine's sub-query."""
        machine = self.config.machine
        disk_bytes = 0
        for name in stats.fields_accessed:
            size = shard.store.field(name).size_bytes()
            disk_bytes += self._memories[machine_index].touch(
                (shard.shard_id, name), size
            )
        compute = (
            machine.base_overhead_seconds
            + stats.rows_scanned / machine.scan_rate_rows_per_second
        )
        # Load fluctuation slows CPU work; disk bandwidth is unaffected.
        seconds = (
            disk_bytes / machine.disk_bandwidth_bytes_per_second
            + compute * self._load_multiplier()
        )
        return seconds, disk_bytes

    # -- execution ---------------------------------------------------------------
    def prepare(self, query: Prepared | Query | str) -> Prepared:
        """Parse and bind once, through the first shard's store: every
        shard store has the same options and table name."""
        return self.shards[0].store.prepare(query)

    def execute(
        self, query: Prepared | Query | str
    ) -> tuple[QueryResult, QueryMetrics]:
        """Run a query across all shards; returns result + sim metrics.

        Every sub-query runs through the fault-handling engine
        (:func:`repro.distributed.faults.dispatch_sub_query`): hedged
        primary+replica dispatch, deadlines, CRC verification, bounded
        retry with backoff. Shards whose every replica is dead or
        unresponsive are dropped from the merge; the result is then
        marked ``complete=False`` with an exact ``row_coverage``
        fraction (or, with ``degrade=False``, the query raises
        :class:`~repro.errors.ShardUnavailableError`).
        """
        prepared = self.prepare(query)
        parsed = prepared.query
        query_index = self._query_count
        self._query_count += 1
        plan = self._fault_plan
        metrics = QueryMetrics()
        merged_stats = ScanStats()

        leaf_partials, leaf_rows = [], []
        slowest_sub_query = 0.0
        # Shards with no live replica cannot answer; skip computing
        # their partials entirely (nobody is up to compute them).
        if plan.config.crash_rate > 0.0:
            metrics.machines_down = len(plan.down_machines(query_index))
            reachable = [
                shard
                for shard in self.shards
                if any(
                    not plan.is_down(m, query_index)
                    for m in self._placement[shard.shard_id]
                )
            ]
        else:
            reachable = self.shards
        # The machines are simulated, so each shard's partial is
        # computed here, in shard order; the cost model prices it.
        shard_results = {
            shard.shard_id: shard.store.execute_partials(prepared)
            for shard in reachable
        }
        unavailable: list[int] = []
        covered_rows = 0
        for shard in self.shards:
            metrics.sub_queries += 1
            stats_partial = shard_results.get(shard.shard_id)
            if stats_partial is None:
                stats, partial = None, None
            else:
                stats, partial = stats_partial

            def attempt_cost(machine_index: int) -> tuple[float, int]:
                # Pure cost callback: disk bytes travel back in
                # DispatchOutcome.disk_bytes, not via captured metrics.
                return self._machine_time(machine_index, shard, stats)

            outcome = dispatch_sub_query(
                plan,
                query_index,
                shard.shard_id,
                self._placement[shard.shard_id],
                attempt_cost,
                response=partial,
            )
            metrics.replica_wins += 1 if outcome.replica_win else 0
            metrics.retries += outcome.retries
            metrics.failovers += 1 if outcome.failover else 0
            metrics.timeouts += outcome.timeouts
            metrics.quarantines += outcome.quarantines
            metrics.crashes += outcome.crashes
            metrics.bytes_loaded_from_disk += outcome.disk_bytes
            metrics.backoff_seconds += outcome.backoff_seconds
            metrics.fault_events.extend(outcome.events)
            slowest_sub_query = max(slowest_sub_query, outcome.seconds)
            if not outcome.served:
                unavailable.append(shard.shard_id)
                continue
            covered_rows += shard.n_rows
            merged_stats = merged_stats.merge(stats)
            if isinstance(partial, list):
                leaf_rows.extend(partial)
            else:
                leaf_partials.append(partial)

        metrics.unavailable_shards = tuple(unavailable)
        metrics.complete = not unavailable
        total_rows = self.total_rows()
        metrics.row_coverage = (
            covered_rows / total_rows if total_rows else 1.0
        )
        self._publish_fault_counters(metrics)
        if unavailable and not self.config.degrade:
            raise ShardUnavailableError(
                f"shards {unavailable} lost every replica (query "
                f"{query_index}); re-run with degrade=True to accept an "
                f"incomplete result covering "
                f"{metrics.row_coverage:.1%} of rows"
            )

        if not leaf_partials:
            # Projection queries — and the fully-degraded case where no
            # shard produced a partial at all — merge plain output rows.
            table = finalize_rows(leaf_rows, parsed)
            merge_seconds = 0.0
            metrics.merge_operations = len(self.shards)
        else:
            tree = ComputationTree(len(self.shards), fanout=self.config.fanout)
            root, operations = tree.merge_levels(leaf_partials)
            metrics.merge_operations = operations
            n_groups = max(root.presence.counts.size, 1)
            merge_seconds = tree.depth * (
                self.config.machine.base_overhead_seconds
                + n_groups / self.config.machine.merge_rate_groups_per_second
            )
            table = root.answer(parsed)

        metrics.latency_seconds = slowest_sub_query + merge_seconds
        metrics.stats = merged_stats
        result = QueryResult(
            table=table,
            stats=merged_stats,
            elapsed_seconds=metrics.latency_seconds,
            complete=metrics.complete,
            row_coverage=metrics.row_coverage,
        )
        return result, metrics

    def _publish_fault_counters(self, metrics: QueryMetrics) -> None:
        """Bump the process-wide fault counters for one query."""
        for name, amount in (
            ("distributed.faults.retries", metrics.retries),
            ("distributed.faults.failovers", metrics.failovers),
            ("distributed.faults.timeouts", metrics.timeouts),
            ("distributed.faults.quarantines", metrics.quarantines),
            ("distributed.faults.crashes", metrics.crashes),
            (
                "distributed.faults.shards_unavailable",
                len(metrics.unavailable_shards),
            ),
            ("distributed.faults.degraded_queries", 0 if metrics.complete else 1),
        ):
            if amount:
                counters.increment(name, amount)

    # -- inspection ----------------------------------------------------------------
    @property
    def n_machines(self) -> int:
        return self.config.n_machines

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def total_rows(self) -> int:
        return sum(shard.n_rows for shard in self.shards)
