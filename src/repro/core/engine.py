"""Vectorized per-chunk aggregation — the Section 2.4 inner loop.

"To evaluate the group-by statement per chunk, an integer array counts
with the same size as the chunk-dictionary is created. We then add up
the counts in a loop over the elements, i.e.,
``counts[elements[row]]++``."

Each aggregator here computes a compact per-chunk *partial* in
chunk-id space (the numpy equivalent of that loop — ``np.bincount``
over the elements, sized by the chunk-dictionary, which then supplies
the partial's global-ids) and then folds partials into global per-group
accumulators keyed by the group field's global-ids. Partials are
self-contained and reusable, which is what the chunk-result cache of
Section 6 stores: a fully-active chunk's partial does not depend on the
WHERE clause, so later queries that fully cover the chunk reuse it
without rescanning.

Group keys are global-ids of the group field, so merging across chunks
(and across shards, in the distributed layer) is plain integer-indexed
accumulation — no hash tables in the hot path, which is exactly the
advantage the paper measures in its Query 1/3 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro.errors import ExecutionError
from repro.sketches.kmv import KmvSketch
from repro.sql.ast_nodes import Aggregate, Star
from repro.storage.dictionary import Dictionary

if TYPE_CHECKING:  # imported only for annotations: datastore imports us
    from repro.core.datastore import FieldStore


class ChunkColumn(NamedTuple):
    """One field of one chunk, in chunk-id space (read-only views)."""

    chunk_dict: np.ndarray  # the ascending global-ids present in the chunk
    elements: np.ndarray  # one chunk-id (an index into chunk_dict) per row


@dataclass
class ChunkData:
    """Per-chunk inputs handed to the aggregators.

    ``group``: the group field's column (one entry, global-id 0, and
    all-zero elements when the query has no GROUP BY). ``mask``:
    boolean row filter, or None when the chunk is fully active.
    ``group_rows``: the group chunk-ids of the rows the mask keeps,
    gathered here once for every aggregator of the query.
    """

    group: ChunkColumn
    mask: np.ndarray | None
    group_rows: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        elements = self.group.elements
        self.group_rows = elements if self.mask is None else elements[self.mask]


class ColumnarAggregator:
    """Base: per-chunk partial computation + global accumulation.

    Threading contract (enforced by lint rule REP007, relied on by the
    parallel executor in :mod:`repro.core.executor`):

    - :meth:`chunk_partial` is **pure with respect to the aggregator**:
      it may read ``self`` (dictionaries, per-gid value tables, flags)
      but must never mutate it. The executor calls it concurrently from
      worker threads, one call per chunk.
    - :meth:`apply` is where all mutable state lives. It runs only on
      the merge thread, in ascending chunk order, which keeps parallel
      execution bit-identical to serial.
    - A partial may be cached and re-applied by later queries, so
      ``apply`` must not mutate the partial either.
    - Execution is **at-least-once**: the process supervisor re-runs a
      chunk task whose worker died or hung mid-flight, and may run the
      same chunk twice when a retried attempt races a straggler. The
      purity above is what makes that safe — a ``chunk_partial`` call
      has no effect other than its return value, so re-dispatch cannot
      double-count; only the merge thread's single ``apply`` per chunk
      position does.
    """

    def __init__(self, n_groups: int, arg_has_null: bool = False) -> None:
        self.n_groups = n_groups
        self.arg_has_null = arg_has_null  # global-id 0 of the argument is NULL

    def chunk_partial(self, data: ChunkData, arg: ChunkColumn | None) -> Any:
        """Compute this aggregate's partial for one chunk.

        ``arg`` is the argument field's column (None for COUNT(*)).
        Must not mutate ``self`` — see the class docstring.
        """
        raise NotImplementedError

    def apply(self, partial: Any) -> None:
        """Fold a partial into the global accumulators (merge thread)."""
        raise NotImplementedError

    def result_columns(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, is-NULL) arrays over ``groups``, any index into the gids.

        The values order as the results do, so ORDER BY ... LIMIT k can
        pick its k groups before :meth:`decode` runs.
        """
        raise NotImplementedError

    def decode(self, values: np.ndarray, null: np.ndarray) -> list[Any]:
        """Result columns as final Python values (None where NULL)."""
        out = values.tolist()
        for position in np.flatnonzero(null).tolist():
            out[position] = None
        return out

    def results(self, groups: np.ndarray) -> list[Any]:
        """Final value for each of ``groups`` (ascending gid order)."""
        return self.decode(*self.result_columns(groups))

    def _row_elements(
        self, data: ChunkData, arg: ChunkColumn | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """(group, argument) chunk-ids of the rows this aggregate reads.

        Rows are selected by the mask, by a non-NULL argument, or both;
        with neither, the element arrays are handed on as they are.
        """
        mask = data.mask
        # NULL is global-id 0: chunk-id 0 of a chunk-dictionary that
        # starts at 0.
        if self.arg_has_null and arg.chunk_dict.size and arg.chunk_dict[0] == 0:
            valid = arg.elements != 0
            if mask is not None:
                valid &= mask
            return data.group.elements[valid], arg.elements[valid]
        if arg is None or mask is None:
            return data.group_rows, None if arg is None else arg.elements
        return data.group_rows, arg.elements[mask]


def _group_counts(
    data: ChunkData, group_elements: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``counts[elements[row]]++``: (chunk-ids seen, their gids, row counts)."""
    if not group_elements.size:
        # float64 counts: the dtype an empty partial has always had.
        none = np.zeros(0, dtype=np.int64)
        return none, none, np.zeros(0, dtype=np.float64)
    counts = np.bincount(group_elements, minlength=data.group.chunk_dict.size)
    seen = counts.nonzero()[0]
    return seen, data.group.chunk_dict[seen].astype(np.int64), counts[seen]


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """Sort ``keys`` in place and drop the repeats (adjacent difference)."""
    keys.sort()
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def _pair_keys(
    arg: ChunkColumn, group_elements: np.ndarray, arg_elements: np.ndarray
) -> np.ndarray:
    """One compact key per row: group chunk-id * n_arg + argument chunk-id.

    Chunk-ids are ranks, so key order is (group gid, argument gid)
    order. Neither chunk-dictionary is longer than the chunk has rows,
    so the key fits int64 and no n_group x n_arg matrix is ever built.
    """
    return group_elements.astype(np.int64) * arg.chunk_dict.size + arg_elements


def _pair_gids(
    data: ChunkData, arg: ChunkColumn, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (group gid, argument gid) int64 columns behind pair ``keys``."""
    group_ids, arg_ids = np.divmod(keys, arg.chunk_dict.size)
    return (
        data.group.chunk_dict[group_ids].astype(np.int64),
        arg.chunk_dict[arg_ids].astype(np.int64),
    )


def _never_null(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return values, np.zeros(values.size, dtype=bool)


class PresenceAggregator(ColumnarAggregator):
    """Row count per group: powers COUNT(*) and group presence."""

    def __init__(self, n_groups: int, arg_has_null: bool = False) -> None:
        super().__init__(n_groups, arg_has_null)
        self.counts = np.zeros(n_groups, dtype=np.int64)

    def chunk_partial(self, data: ChunkData, arg: ChunkColumn | None) -> Any:
        return _group_counts(data, self._row_elements(data, arg)[0])[1:]

    def apply(self, partial: Any) -> None:
        gids, totals = partial
        self.counts[gids] += totals.astype(np.int64)

    def result_columns(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _never_null(self.counts[groups])


class CountValueAggregator(PresenceAggregator):
    """COUNT(x): non-NULL rows per group."""


class SumAggregator(ColumnarAggregator):
    """SUM(x) (and the sum half of AVG)."""

    def __init__(
        self, n_groups: int, numeric_values: np.ndarray, arg_has_null: bool
    ) -> None:
        super().__init__(n_groups, arg_has_null)
        self.numeric_values = numeric_values  # per-gid float64
        self.totals = np.zeros(n_groups, dtype=np.float64)
        self.counts = np.zeros(n_groups, dtype=np.int64)

    def chunk_partial(self, data: ChunkData, arg: ChunkColumn | None) -> Any:
        group_elements, arg_elements = self._row_elements(data, arg)
        seen, gids, counts = _group_counts(data, group_elements)
        if not seen.size:  # bincount of nothing is int64 even with weights
            return gids, np.zeros(0, dtype=np.float64), counts
        # Values are looked up once per chunk-dictionary entry and
        # gathered per row; bincount adds them up in row order.
        totals = np.bincount(
            group_elements,
            weights=self.numeric_values[arg.chunk_dict][arg_elements],
            minlength=data.group.chunk_dict.size,
        )
        return gids, totals[seen], counts

    def apply(self, partial: Any) -> None:
        gids, totals, counts = partial
        self.totals[gids] += totals
        self.counts[gids] += counts.astype(np.int64)

    def result_columns(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.totals[groups], self.counts[groups] == 0


class AvgAggregator(SumAggregator):
    """AVG(x) = SUM(x) / COUNT(x)."""

    def result_columns(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        totals, null = super().result_columns(groups)
        return totals / np.where(null, 1, self.counts[groups]), null


class _ExtremeAggregator(ColumnarAggregator):
    """Shared MIN/MAX machinery over *global-ids*.

    Global-ids are ranks, so the minimum value in a group is the value
    of its minimum global-id — MIN/MAX work on any dictionary type
    (strings included) without touching the values until the very end.
    """

    _is_min = True

    def __init__(
        self, n_groups: int, dictionary: Dictionary, arg_has_null: bool
    ) -> None:
        super().__init__(n_groups, arg_has_null)
        self.dictionary = dictionary
        self.sentinel = np.iinfo(np.int64).max if self._is_min else -1
        self.best = np.full(n_groups, self.sentinel, dtype=np.int64)

    def chunk_partial(self, data: ChunkData, arg: ChunkColumn | None) -> Any:
        # Sorted pair keys fall into one run per group: a run's first
        # key holds the group's minimum argument, its last the maximum.
        keys = _pair_keys(arg, *self._row_elements(data, arg))
        keys.sort()
        groups = keys // arg.chunk_dict.size
        edge = np.ones(keys.size, dtype=bool)
        if self._is_min:
            edge[1:] = groups[1:] != groups[:-1]
        else:
            edge[:-1] = groups[1:] != groups[:-1]
        return _pair_gids(data, arg, keys[edge])

    def apply(self, partial: Any) -> None:
        gids, values = partial
        if not gids.size:
            return
        if self._is_min:
            np.minimum.at(self.best, gids, values)
        else:
            np.maximum.at(self.best, gids, values)

    def result_columns(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The best *global-ids*: ranks, so they order as the values do."""
        best = self.best[groups]
        return best, best == self.sentinel

    def decode(self, values: np.ndarray, null: np.ndarray) -> list[Any]:
        return [
            None if is_null else self.dictionary.value(best)
            for best, is_null in zip(values.tolist(), null.tolist())
        ]


class MinAggregator(_ExtremeAggregator):
    _is_min = True


class MaxAggregator(_ExtremeAggregator):
    _is_min = False


class _PairAggregator(ColumnarAggregator):
    """COUNT DISTINCT, exact or sketched: a chunk's distinct pairs."""

    def chunk_partial(self, data: ChunkData, arg: ChunkColumn | None) -> Any:
        """Sorted distinct ``group gid << 32 | argument gid`` of the chunk."""
        keys = _pair_keys(arg, *self._row_elements(data, arg))
        group_ids, arg_ids = _pair_gids(data, arg, _sorted_distinct(keys))
        return (group_ids << 32) | arg_ids


class CountDistinctAggregator(_PairAggregator):
    """Exact COUNT(DISTINCT x) via global (group, value) pair dedup."""

    def __init__(
        self, n_groups: int, dictionary: Dictionary, arg_has_null: bool
    ) -> None:
        super().__init__(n_groups, arg_has_null)
        self.dictionary = dictionary
        self._pair_chunks: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]

    def apply(self, partial: Any) -> None:
        self._pair_chunks.append(partial)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every distinct (group gid, value gid) folded so far, in order."""
        pairs = _sorted_distinct(np.concatenate(self._pair_chunks))
        return pairs >> 32, pairs & 0xFFFFFFFF

    def result_columns(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        counts = np.bincount(self.pairs()[0], minlength=self.n_groups)
        return _never_null(counts[groups])


class ApproxCountDistinctAggregator(_PairAggregator):
    """KMV-sketched COUNT DISTINCT (Section 5).

    Per chunk, the distinct (group, value) pairs are known from the
    dictionaries; each group's sketch folds in the hashes of its
    distinct values as one vector — the "sorted dictionary" fast path.
    """

    def __init__(
        self, n_groups: int, hash_units: np.ndarray, arg_has_null: bool, m: int
    ) -> None:
        super().__init__(n_groups, arg_has_null)
        self.hash_units = hash_units  # per-gid hash in [0, 1)
        self.m = m
        self._sketches: dict[int, KmvSketch] = {}

    def apply(self, partial: Any) -> None:
        if not partial.size:
            return
        groups = (partial >> 32).astype(np.int64)
        value_ids = (partial & 0xFFFFFFFF).astype(np.int64)
        boundaries = np.ones(groups.size, dtype=bool)
        boundaries[1:] = groups[1:] != groups[:-1]
        starts = np.flatnonzero(boundaries)
        ends = np.append(starts[1:], groups.size)
        for start, end in zip(starts, ends):
            gid = int(groups[start])
            sketch = self._sketches.get(gid)
            if sketch is None:
                sketch = KmvSketch(self.m)
                self._sketches[gid] = sketch
            sketch.add_hash_array(self.hash_units[value_ids[start:end]])

    def result_columns(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        estimates = np.zeros(self.n_groups, dtype=np.int64)
        for gid, sketch in self._sketches.items():
            estimates[gid] = sketch.estimate()
        return _never_null(estimates[groups])


def build_aggregator(
    agg: Aggregate,
    n_groups: int,
    arg_field: "FieldStore | None",
) -> ColumnarAggregator:
    """Instantiate the right aggregator for one aggregate expression."""
    if agg.name == "COUNT":
        if agg.distinct:
            if arg_field is None:
                raise ExecutionError("COUNT DISTINCT requires a field argument")
            if agg.approximate:
                return ApproxCountDistinctAggregator(
                    n_groups,
                    arg_field.hash_units(),
                    arg_field.dictionary.has_null,
                    agg.m,
                )
            return CountDistinctAggregator(
                n_groups, arg_field.dictionary, arg_field.dictionary.has_null
            )
        if isinstance(agg.arg, Star):
            return PresenceAggregator(n_groups)
        return CountValueAggregator(n_groups, arg_field.dictionary.has_null)
    if agg.name == "SUM":
        return SumAggregator(
            n_groups, arg_field.numeric_values(), arg_field.dictionary.has_null
        )
    if agg.name == "AVG":
        return AvgAggregator(
            n_groups, arg_field.numeric_values(), arg_field.dictionary.has_null
        )
    if agg.name == "MIN":
        return MinAggregator(
            n_groups, arg_field.dictionary, arg_field.dictionary.has_null
        )
    if agg.name == "MAX":
        return MaxAggregator(
            n_groups, arg_field.dictionary, arg_field.dictionary.has_null
        )
    raise ExecutionError(f"unsupported aggregate {agg.name!r}")

# -- mergeable state export (for the Section 4 computation tree) ------------
#
# Each aggregator can convert its per-group accumulators into the
# row-level AggStates of repro.core.aggregation. States are mergeable
# across shards (whose dictionaries differ), so the distributed
# execution tree aggregates on every level — and exact COUNT DISTINCT /
# KMV sketches travel as sets/sketches, the paper's Section 5 answer to
# "we cannot support count distinct by [associative rewrites]".


def _count_states(aggregator: PresenceAggregator, present: np.ndarray):
    from repro.core.aggregation import CountStarState, CountValueState

    of_values = isinstance(aggregator, CountValueAggregator)
    out = []
    for count in aggregator.counts[present].tolist():
        state = CountValueState() if of_values else CountStarState()
        state.count = count
        out.append(state)
    return out


def _sum_states(aggregator: SumAggregator, present: np.ndarray):
    from repro.core.aggregation import AvgState, SumState

    out = []
    is_avg = isinstance(aggregator, AvgAggregator)
    for total, count in zip(
        aggregator.totals[present], aggregator.counts[present]
    ):
        if is_avg:
            state = AvgState()
            state.total = float(total)
            state.count = int(count)
        else:
            state = SumState()
            state.total = float(total)
            state.seen = bool(count)
        out.append(state)
    return out


def _extreme_states(aggregator: _ExtremeAggregator, present: np.ndarray):
    from repro.core.aggregation import MaxState, MinState

    out = []
    for best in aggregator.best[present]:
        state = MinState() if aggregator._is_min else MaxState()
        if best != aggregator.sentinel:
            state.best = aggregator.dictionary.value(int(best))
        out.append(state)
    return out


def _count_distinct_states(
    aggregator: CountDistinctAggregator, present: np.ndarray
):
    from repro.core.aggregation import CountDistinctState

    per_group: dict[int, set] = {}
    dictionary = aggregator.dictionary
    groups, value_ids = aggregator.pairs()
    for group, value_id in zip(groups.tolist(), value_ids.tolist()):
        per_group.setdefault(group, set()).add(dictionary.value(value_id))
    out = []
    for gid in np.flatnonzero(present):
        state = CountDistinctState()
        state.values = per_group.get(int(gid), set())
        out.append(state)
    return out


def _approx_states(
    aggregator: ApproxCountDistinctAggregator, present: np.ndarray
):
    from repro.core.aggregation import ApproxCountDistinctState

    out = []
    for gid in np.flatnonzero(present):
        state = ApproxCountDistinctState(aggregator.m)
        sketch = aggregator._sketches.get(int(gid))
        if sketch is not None:
            state.sketch.merge(sketch)
        out.append(state)
    return out


def aggregator_states(
    aggregator: ColumnarAggregator, present: np.ndarray
) -> list[Any]:
    """Per-present-group mergeable AggStates for any aggregator."""
    if isinstance(aggregator, PresenceAggregator):  # covers CountValueAggregator
        return _count_states(aggregator, present)
    if isinstance(aggregator, SumAggregator):  # covers AvgAggregator
        return _sum_states(aggregator, present)
    if isinstance(aggregator, _ExtremeAggregator):
        return _extreme_states(aggregator, present)
    if isinstance(aggregator, CountDistinctAggregator):
        return _count_distinct_states(aggregator, present)
    if isinstance(aggregator, ApproxCountDistinctAggregator):
        return _approx_states(aggregator, present)
    raise ExecutionError(f"no state export for {type(aggregator).__name__}")
