"""The computation tree — Section 4's multi-level group-by execution.

The paper rewrites ``SELECT a, SUM(x) FROM (S1 UNION ALL S2) GROUP BY
a`` into an inner select per shard and an outer merge select. Here the
rewrite is a fold of aggregator states, not of SQL rows: shards hand up
columnar partials in value space
(:meth:`repro.core.datastore.DataStore.execute_partials`), and each
level of :class:`ComputationTree` folds its children's into fresh store
aggregators with :func:`fold_level` ("the leaf level machines execute
the inner select in parallel and send the result to the root"), so
COUNT adds partial counts and AVG ships a sum and a count. The level
unions its children's group and argument values into one dictionary,
so merged ids are ranks, and remaps each child with one array lookup.
An interior level hands its fold up as a shard does; the root reads it
out as one store does, HAVING / ORDER BY / LIMIT included ("the servers
at the leaf level execute 'where' clauses and the root executes any
'having' statements"). Exact COUNT DISTINCT folds its (group, value)
pairs — which the paper's SQL rewrite cannot, hence its "approximative
technique" — and APPROX_COUNT_DISTINCT its sketches' retained hashes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.datastore import (
    FieldStore,
    TreePartial,
    _dictionary_from_ordered,
    _GroupedKernel,
)
from repro.core.engine import (
    ApproxCountDistinctAggregator,
    AvgAggregator,
    ColumnarAggregator,
    CountDistinctAggregator,
    MaxAggregator,
    MinAggregator,
    PresenceAggregator,
    SumAggregator,
    _PairAggregator,
)
from repro.errors import DistributedError
from repro.partition.codes import factorize_list
from repro.sql.ast_nodes import Aggregate
from repro.storage.dictionary import SortedTupleDictionary, _null_safe_key



def _union(arrays: list[np.ndarray]) -> tuple[FieldStore, list[np.ndarray]]:
    """One field over several children's distinct values, and each child's
    ids in it. The values rank as an imported column's do (NULL first; a
    composite's tuples member by member), so merged ids are ranks."""
    values = np.concatenate(arrays)
    if values.size and isinstance(values[0], tuple):
        ordered = sorted(set(values.tolist()), key=_null_safe_key)
        rank = {value: code for code, value in enumerate(ordered)}
        codes = np.fromiter(map(rank.__getitem__, values), np.int64, values.size)
        dictionary = SortedTupleDictionary(ordered)
    else:
        codes, ordered = factorize_list(values.tolist())
        dictionary = _dictionary_from_ordered(ordered, optimized=False)
    cuts = np.cumsum([array.size for array in arrays])[:-1]
    return FieldStore("merged", dictionary, []), np.split(codes, cuts)


def _aggregator(
    agg: Aggregate | None, n_groups: int, arg: FieldStore | None
) -> ColumnarAggregator:
    """A fresh store aggregator for ``agg`` (None: group presence) over a
    level's merged groups and argument values; APPROX_COUNT_DISTINCT's is
    built over the hashes its children ship."""
    if agg is None or (agg.name == "COUNT" and not agg.distinct):
        return PresenceAggregator(n_groups)
    if agg.name in ("SUM", "AVG"):
        kind = SumAggregator if agg.name == "SUM" else AvgAggregator
        return kind(n_groups, None, False)
    if agg.name in ("MIN", "MAX"):
        kind = MinAggregator if agg.name == "MIN" else MaxAggregator
        return kind(n_groups, arg.dictionary, False)
    return CountDistinctAggregator(n_groups, arg.dictionary, False)


def fold_level(parts: list[TreePartial]) -> _GroupedKernel:
    """One tree node: its children's partials folded, in child order, into
    fresh store aggregators, so every SUM adds as one parent's would. An
    interior node hands up its :meth:`~_GroupedKernel.partial`; the root
    reads out with :meth:`~_GroupedKernel.answer`."""
    plan = parts[0].plan
    group, remaps = None, [np.zeros(1, dtype=np.int64)] * len(parts)
    if plan.group_exprs:
        group, remaps = _union([part.values for part in parts])
    n_groups = len(group.dictionary) if group else 1
    args, aggregators = [], []
    for slot, agg in enumerate([None, *plan.aggregates]):
        arg, arg_remaps = None, remaps
        if parts[0].args[slot] is not None:
            arg, arg_remaps = _union([part.args[slot] for part in parts])
        pieces = []
        for part, remap, arg_remap in zip(parts, remaps, arg_remaps):
            index, *columns = part.states[slot]
            if arg is not None:
                columns[-1] = arg_remap[columns[-1]]
            pieces.append((remap[index], *columns))
        columns = [np.concatenate(column) for column in zip(*pieces)]
        if agg is not None and agg.approximate:  # the sketches dedup the hashes
            hashes, columns[1] = columns[1], np.arange(columns[1].size)
            aggregator = ApproxCountDistinctAggregator(n_groups, hashes, False, agg.m)
        else:
            aggregator = _aggregator(agg, n_groups, arg)
        if isinstance(aggregator, _PairAggregator):
            columns = [aggregator._pairs(*columns)]
        aggregator.apply(tuple(columns))
        aggregators.append(aggregator)
        args.append(arg)
    return _GroupedKernel.folded(plan, [group, *args[1:]], aggregators)


class ComputationTree:
    """A fan-in tree over leaf tasks, merging partials level by level."""

    def __init__(self, n_leaves: int, fanout: int = 8) -> None:
        if n_leaves < 1:
            raise DistributedError("tree needs at least one leaf")
        if fanout < 2:
            raise DistributedError("tree fanout must be >= 2")
        self.n_leaves = n_leaves
        self.fanout = fanout

    @property
    def depth(self) -> int:
        """Number of merge levels above the leaves."""
        if self.n_leaves == 1:
            return 1
        return max(1, math.ceil(math.log(self.n_leaves, self.fanout)))

    def merge_levels(
        self, leaf_partials: list[TreePartial]
    ) -> tuple[_GroupedKernel, int]:
        """Fold leaf partials up the tree, ``fanout`` children a node.

        Returns (root node, number of merge operations performed) — the
        operation count drives the simulation's merge-time model.
        """
        if not leaf_partials:
            raise DistributedError("no partial to merge")
        level, operations = leaf_partials, 0
        while True:
            nodes = [
                fold_level(level[start : start + self.fanout])
                for start in range(0, len(level), self.fanout)
            ]
            operations += len(level)
            if len(nodes) == 1:
                return nodes[0], operations
            level = [node.partial() for node in nodes]
