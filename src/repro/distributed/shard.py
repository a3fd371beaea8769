"""Quasi-random sharding — Section 4 "Distributing Data to many Machines".

"A better and actually very common approach is to start by sharding
(i.e., distributing) the data quasi randomly across the machines. Each
shard is on one machine and is then partitioned into chunks as
described in Section 2.2. This achieves very good load balancing."

``shard_table`` deals rows to shards with a seeded permutation;
:class:`Shard` wraps the per-shard datastore plus the bookkeeping the
cluster simulation needs (per-field byte sizes for the memory model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.table import Table
from repro.errors import DistributedError


def shard_table(table: Table, n_shards: int, seed: int = 0) -> list[Table]:
    """Split ``table`` into ``n_shards`` quasi-random row subsets."""
    if n_shards < 1:
        raise DistributedError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards > table.n_rows:
        raise DistributedError(
            f"cannot spread {table.n_rows} rows over {n_shards} shards"
        )
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(table.n_rows)
    pieces = np.array_split(permutation, n_shards)
    return [table.take(np.sort(piece)) for piece in pieces]


@dataclass
class Shard:
    """One shard: its datastore and identity within the cluster."""

    shard_id: int
    store: DataStore

    @classmethod
    def build(
        cls, shard_id: int, table: Table, options: DataStoreOptions
    ) -> "Shard":
        return cls(shard_id=shard_id, store=DataStore.from_table(table, options))

    @property
    def n_rows(self) -> int:
        return self.store.n_rows
