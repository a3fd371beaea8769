"""Vectorized aggregation over runs of chunks — the Section 2.4 inner loop.

"To evaluate the group-by statement per chunk, an integer array counts
with the same size as the chunk-dictionary is created. We then add up
the counts in a loop over the elements, i.e.,
``counts[elements[row]]++``."

A *run* is an ascending list of chunks the pipeline scans with one
kernel call. Every chunk-dictionary of a field is one CSR column
(:class:`~repro.storage.chunk.ChunkDictIndex`), and a row's element
plus its chunk's offset is its *CSR position*: an index into that
column that names both the chunk and the chunk-id. Keyed by CSR
position, the paper's per-chunk counts arrays lie side by side, so one
``np.bincount`` over a run's rows computes every chunk's counts at
once, in a scratch array the size of the run's own CSR span. The
column then supplies the global-ids of the entries that were hit.
An argument stays in its CSR frame too: SUM / AVG weigh each row from a
per-entry table, MIN / MAX translate only their winners to global-ids.

Each aggregator turns a run into a *run partial*: ``(bounds, *columns)``,
where ``columns`` concatenate the run's per-chunk partials in chunk
order and chunk ``k`` of the run owns ``columns[bounds[k]:bounds[k+1]]``.
A chunk's slice is the self-contained partial the chunk-result cache of
Section 6 stores: a fully-active chunk's partial does not depend on the
WHERE clause, so later queries that fully cover the chunk reuse it
without rescanning. A run none of whose chunks enters the cache gets
COUNT DISTINCT's pairs deduplicated across the whole run instead
(:class:`RunPairs`), which has no per-chunk slices. Folding is plain
integer-indexed accumulation keyed by the group field's global-ids — no
hash tables in the hot path, which is exactly the advantage the paper
measures in its Query 1/3 experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro.core.expr_eval import as_list
from repro.errors import ExecutionError
from repro.partition.codes import sorted_distinct as _sorted_distinct
from repro.sketches.kmv import KmvSketch
from repro.sql.ast_nodes import Aggregate, Star
from repro.storage.dictionary import Dictionary

if TYPE_CHECKING:  # imported only for annotations: datastore imports us
    from repro.core.datastore import FieldStore


class RunGroups(NamedTuple):
    """The group side of one run, in the group field's CSR frame.

    ``rows``: per row the run keeps, its group CSR position minus the
    position where the run's first chunk starts (intp). ``gids``: the
    CSR column's global-ids from the run's first chunk to its last, the
    run's *span*. ``starts``: where each of the run's chunks begins in
    that span, ascending. ``kept``: set when every chunk of the span has
    one group, the rows each of the run's chunks keeps; its rows are then
    ``starts`` repeated ``kept`` times, and ``rows`` is None. ``tally``:
    :meth:`counts`, once computed, for every aggregate that keeps all rows.
    """

    rows: np.ndarray | None
    gids: np.ndarray
    starts: np.ndarray
    kept: np.ndarray | None = None
    tally: np.ndarray | None = None

    def positions(self) -> np.ndarray:
        """``rows``, expanded for a one-group-per-chunk run."""
        return self.rows if self.kept is None else np.repeat(self.starts, self.kept)

    def counts(self) -> np.ndarray:
        """The rows at each span position (int64)."""
        if self.tally is not None:
            return self.tally
        if self.kept is None:
            return np.bincount(self.rows, minlength=self.gids.size)
        counts = np.zeros(self.gids.size, dtype=np.int64)
        counts[self.starts] = self.kept
        return counts

    def entries(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(per-chunk bounds, int64 gids) of ascending span ``positions``."""
        bounds = np.append(np.searchsorted(positions, self.starts), positions.size)
        return bounds, self.gids[positions].astype(np.int64)


def _pair_dtype(n: int, bits: int) -> type:
    """uint32 when ``n`` high values fit beside ``bits`` low ones (a 200 k
    uint32 sort is 2.4x faster than int64), else uint64."""
    return np.uint32 if max(n - 1, 0).bit_length() + bits <= 32 else np.uint64


def _pair_keys(high: np.ndarray, n: int, low: np.ndarray, bits: int) -> np.ndarray:
    """``high << bits | low``, in ``_pair_dtype(n, bits)``."""
    keys = high.astype(_pair_dtype(n, bits))
    keys <<= bits
    keys |= low.astype(keys.dtype, copy=False)
    return keys


class RunPairs(tuple):
    """A run's distinct pairs ``(bounds, pairs)``, sorted and deduplicated
    across all of its chunks: the first chunk owns every pair, so the
    partial has no per-chunk slices and never enters the chunk cache."""


def as_run_partial(chunk_partial: Any) -> tuple:
    """A per-chunk partial (what the cache holds) as a one-chunk run partial."""
    columns = chunk_partial if isinstance(chunk_partial, tuple) else (chunk_partial,)
    return (np.array([0, columns[0].size]), *columns)


def in_chunk_order(pieces: list[tuple[tuple[int, ...], tuple]]) -> tuple:
    """The columns of several run partials as one, in ascending chunk order.

    ``pieces`` pairs each run partial with its run's chunk indices. A
    chunk belongs to one piece, so a stable sort on the chunk index of
    every entry interleaves the pieces without reordering any chunk's
    own entries.
    """
    if len(pieces) == 1:
        return pieces[0][1][1:]
    tags = np.concatenate(
        [np.repeat(chunks, np.diff(partial[0])) for chunks, partial in pieces]
    )
    columns = [
        np.concatenate(column)
        for column in zip(*(partial[1:] for __, partial in pieces))
    ]
    if (tags[1:] < tags[:-1]).any():
        order = np.argsort(tags, kind="stable")
        columns = [column[order] for column in columns]
    return tuple(columns)


class ColumnarAggregator:
    """Base: run partial computation + global accumulation.

    Threading contract (checked at run time by the sanitizing executor
    of the test suite, relied on by the parallel executor in
    :mod:`repro.core.executor`):

    - :meth:`run_partial` is **pure with respect to the aggregator**:
      it may read ``self`` (dictionaries, per-gid value tables, flags)
      but must never mutate it. The executor calls it concurrently from
      worker threads, one call per run.
    - :meth:`apply` is where all mutable state lives. It runs only on
      the merge thread, over entries in ascending chunk order, which
      keeps parallel execution bit-identical to serial.
    - A partial may be cached and re-applied by later queries, so
      ``apply`` must not mutate the partial either.
    - Execution is **at-least-once**: the process supervisor re-runs a
      run whose worker died or hung mid-flight, and may run the same
      run twice when a retried attempt races a straggler. The purity
      above is what makes that safe — a ``run_partial`` call has no
      effect other than its return value, so re-dispatch cannot
      double-count; only the merge thread's single fold does.
    """

    #: Column dtypes of an empty per-chunk partial (what the cache has
    #: always held for a chunk where the aggregate saw no row).
    empty_dtypes: tuple[type, ...] = (np.int64, np.float64)

    #: The argument field's CSR column (entry -> global-id) if ``arg`` holds
    #: CSR positions (:func:`build_aggregator`), None if it holds global-ids.
    entries: np.ndarray | None = None

    def __init__(self, n_groups: int, arg_has_null: bool = False) -> None:
        self.n_groups = n_groups
        self.arg_has_null = arg_has_null  # global-id 0 of the argument is NULL

    def run_partial(self, groups: RunGroups, arg: np.ndarray | None) -> tuple:
        """This aggregate over one run: ``(bounds, *columns)``.

        ``arg`` holds, for every row the run keeps, the argument's index
        into ``entries`` (or its global-id; None for COUNT(*)). Must not
        mutate ``self`` — see the class docstring.
        """
        raise NotImplementedError

    def apply(self, columns: tuple) -> None:
        """Fold per-chunk partial columns, in chunk order (merge thread)."""
        raise NotImplementedError

    def chunk_slice(self, partial: tuple, k: int) -> Any:
        """Chunk ``k`` of a run partial, copied, as the cache holds it."""
        assert not isinstance(partial, RunPairs), "run-level pairs have no chunk slices"
        bounds, *columns = partial
        start, stop = bounds[k], bounds[k + 1]
        if start == stop:
            columns = [np.zeros(0, dtype=dtype) for dtype in self.empty_dtypes]
        else:
            columns = [column[start:stop].copy() for column in columns]
        return tuple(columns) if len(columns) > 1 else columns[0]

    def result_columns(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, is-NULL) arrays over ``groups``, any index into the gids.

        The values order as the results do, so ORDER BY ... LIMIT k can
        pick its k groups before :meth:`decode` runs.
        """
        raise NotImplementedError

    def decode(self, values: np.ndarray, null: np.ndarray) -> list[Any]:
        """Result columns as final Python values (None where NULL)."""
        return as_list((values, null))

    def results(self, groups: np.ndarray) -> list[Any]:
        """Final value for each of ``groups`` (ascending gid order)."""
        return self.decode(*self.result_columns(groups))

    def state(self, present: np.ndarray) -> tuple:
        """The folded state over the ascending gids ``present``, as columns
        the first of which indexes ``present``: counts; totals and counts;
        MIN / MAX winners and COUNT DISTINCT pairs, each ending with the
        argument's global-ids; a sketch's retained hashes."""
        raise NotImplementedError

    def _valid(
        self, groups: RunGroups, arg: np.ndarray | None
    ) -> tuple[RunGroups, np.ndarray | None]:
        """(groups, argument) of the rows this aggregate reads.

        NULL is global-id 0, and only when the dictionary ``has_null``;
        rows with a NULL argument are dropped.
        """
        if self.arg_has_null:
            valid = self._gids(arg) != 0
            if not valid.all():
                rows = groups.positions()[valid]
                return RunGroups(rows, groups.gids, groups.starts), arg[valid]
        return groups, arg

    def _gids(self, arg: np.ndarray) -> np.ndarray:
        """The argument's global-ids: one gather through ``entries``."""
        return arg if self.entries is None else self.entries.take(arg)


def _never_null(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return values, np.zeros(values.size, dtype=bool)


class PresenceAggregator(ColumnarAggregator):
    """Row count per group: powers COUNT(*) and group presence."""

    def __init__(self, n_groups: int, arg_has_null: bool = False) -> None:
        super().__init__(n_groups, arg_has_null)
        self.counts = np.zeros(n_groups, dtype=np.int64)

    def run_partial(self, groups: RunGroups, arg: np.ndarray | None) -> tuple:
        counts = self._valid(groups, arg)[0].counts()
        seen = np.flatnonzero(counts)
        return (*groups.entries(seen), counts[seen])

    def apply(self, columns: tuple) -> None:
        gids, counts = columns
        np.add.at(self.counts, gids, counts.astype(np.int64))

    def result_columns(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _never_null(self.counts[groups])

    def state(self, present: np.ndarray) -> tuple:
        return np.arange(present.size), self.counts[present]


class CountValueAggregator(PresenceAggregator):
    """COUNT(x): non-NULL rows per group."""


class SumAggregator(ColumnarAggregator):
    """SUM(x) (and the sum half of AVG)."""

    empty_dtypes = (np.int64, np.float64, np.float64)

    def __init__(
        self, n_groups: int, numeric_values: np.ndarray, arg_has_null: bool
    ) -> None:
        super().__init__(n_groups, arg_has_null)
        self.numeric_values = numeric_values  # float64, indexed as ``arg`` is
        self.totals = np.zeros(n_groups, dtype=np.float64)
        self.counts = np.zeros(n_groups, dtype=np.int64)

    def run_partial(self, groups: RunGroups, arg: np.ndarray | None) -> tuple:
        groups, arg = self._valid(groups, arg)
        counts = groups.counts()
        seen = np.flatnonzero(counts)
        # bincount adds the weights in row order, and each CSR position
        # holds one chunk's group: the per-chunk sums, to the bit.
        totals = np.bincount(
            groups.positions(),
            weights=self.numeric_values.take(arg),
            minlength=groups.gids.size,
        )
        return (*groups.entries(seen), totals[seen], counts[seen])

    def apply(self, columns: tuple) -> None:
        gids, totals, counts = columns
        # Unbuffered and in entry order: each group's total adds its
        # chunks' sums in ascending chunk order.
        np.add.at(self.totals, gids, totals)
        np.add.at(self.counts, gids, counts.astype(np.int64))

    def result_columns(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.totals[groups], self.counts[groups] == 0

    def state(self, present: np.ndarray) -> tuple:
        return np.arange(present.size), self.totals[present], self.counts[present]


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
    Within a chunk CSR positions rank as global-ids do (a chunk-dictionary
    ascends), so a run reduces positions and translates only the winners.
    """

    _is_min = True
    _ufunc = np.minimum
    empty_dtypes = (np.int64, np.int64)

    def __init__(
        self, n_groups: int, dictionary: Dictionary, arg_has_null: bool
    ) -> None:
        super().__init__(n_groups, arg_has_null)
        self.dictionary = dictionary
        self.sentinel = np.iinfo(np.int64).max if self._is_min else -1
        self.best = np.full(n_groups, self.sentinel, dtype=np.int64)

    def run_partial(self, groups: RunGroups, arg: np.ndarray | None) -> tuple:
        groups, arg = self._valid(groups, arg)
        best = np.full(groups.gids.size, self.sentinel, dtype=np.int64)
        if groups.kept is None:
            # int64 values keep ufunc.at on its fast, cast-free path.
            self._ufunc.at(best, groups.rows, arg.astype(np.int64))
        else:  # chunk after chunk: one segment each, the empty ones skipped
            some = groups.kept > 0
            first = (np.cumsum(groups.kept) - groups.kept)[some]
            best[groups.starts[some]] = self._ufunc.reduceat(arg, first)
        seen = np.flatnonzero(best != self.sentinel)
        return (*groups.entries(seen), self._gids(best[seen]).astype(np.int64))

    def apply(self, columns: tuple) -> None:
        gids, values = columns
        self._ufunc.at(self.best, gids, values)

    def result_columns(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The best *global-ids*: ranks, so they order as the values do."""
        best = self.best[groups]
        return best, best == self.sentinel

    def state(self, present: np.ndarray) -> tuple:
        best = self.best[present]
        won = np.flatnonzero(best != self.sentinel)
        return won, best[won]

    def decode(self, values: np.ndarray, null: np.ndarray) -> list[Any]:
        return [
            None if is_null else self.dictionary.value(best)
            for best, is_null in zip(values.tolist(), null.tolist())
        ]


class MinAggregator(_ExtremeAggregator):
    _is_min = True


class MaxAggregator(_ExtremeAggregator):
    _is_min = False
    _ufunc = np.maximum


class _PairAggregator(ColumnarAggregator):
    """COUNT DISTINCT, exact or sketched: a run's distinct pairs.

    A pair is ``group gid << arg_bits | argument gid`` in the narrowest
    dtype that holds every group (``empty_dtypes``), from scan to fold. A
    run sorts ``span position << arg_bits | argument gid``, which sorts as
    (chunk, group gid, argument gid), unless it keeps no chunk's slice
    (:meth:`run_pairs`); no n_group x n_arg matrix is built.
    """

    def __init__(self, n_groups: int, n_args: int, arg_has_null: bool) -> None:
        super().__init__(n_groups, arg_has_null)
        self.arg_bits = max(n_args - 1, 0).bit_length()
        self.empty_dtypes = (_pair_dtype(n_groups, self.arg_bits),)

    def run_partial(self, groups: RunGroups, arg: np.ndarray | None) -> tuple:
        """Per chunk, its sorted distinct pairs."""
        groups, arg = self._valid(groups, arg)
        keys = _sorted_distinct(
            _pair_keys(
                groups.positions(), groups.gids.size, self._gids(arg), self.arg_bits
            )
        )
        bounds, gids = groups.entries(keys >> self.arg_bits)
        return bounds, self._pairs(gids, self.values(keys))

    def run_pairs(self, groups: RunGroups, arg: np.ndarray) -> RunPairs:
        """:meth:`run_partial` of a run that keeps no chunk's slice: one sort
        of the pairs of all of its rows."""
        groups, arg = self._valid(groups, arg)
        keys = _sorted_distinct(
            self._pairs(groups.gids[groups.positions()], self._gids(arg))
        )
        bounds = np.full(groups.starts.size + 1, keys.size)
        bounds[0] = 0
        return RunPairs((bounds, keys))

    def dictionary_partial(
        self, groups: RunGroups, bounds: np.ndarray, arg: np.ndarray
    ) -> tuple:
        """:meth:`run_partial` of a one-group-per-chunk run that keeps every
        row: chunk ``k``'s distinct arguments are its chunk-dictionary,
        ``arg[bounds[k]:bounds[k + 1]]`` (ascending), so no row is read."""
        if self.arg_has_null:
            keep = arg != 0
            arg, bounds = arg[keep], np.concatenate(([0], np.cumsum(keep)))[bounds]
        group = np.repeat(groups.gids[groups.starts], np.diff(bounds))
        return bounds, self._pairs(group, arg)

    def _pairs(self, high: np.ndarray, low: np.ndarray) -> np.ndarray:
        """Group gids ``high`` beside argument gids ``low``, as pairs."""
        return _pair_keys(high, self.n_groups, low, self.arg_bits)

    def values(self, keys: np.ndarray) -> np.ndarray:
        """The argument gids of pairs (or of a run's sort keys)."""
        return keys & ((1 << self.arg_bits) - 1)


class CountDistinctAggregator(_PairAggregator):
    """Exact COUNT(DISTINCT x) via global (group, value) pair dedup."""

    def __init__(
        self, n_groups: int, dictionary: Dictionary, arg_has_null: bool
    ) -> None:
        super().__init__(n_groups, len(dictionary), arg_has_null)
        self.dictionary = dictionary
        self._pair_chunks = [np.zeros(0, *self.empty_dtypes)]

    def apply(self, columns: tuple) -> None:
        self._pair_chunks.append(columns[0])

    def pairs(self) -> np.ndarray:
        """Every distinct pair folded so far, ascending."""
        pairs = np.concatenate(self._pair_chunks)
        if (pairs[1:] <= pairs[:-1]).any():  # not one chunk's, nor in order
            pairs = _sorted_distinct(pairs)
        return pairs

    def result_columns(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Ascending: a group counts its run (4x a bincount of sorted keys).
        high = self.pairs() >> self.arg_bits
        ends = np.flatnonzero(np.append(high[1:] != high[:-1], high.size > 0))
        counts = np.zeros(self.n_groups, dtype=np.int64)
        counts[high[ends]] = np.diff(ends, prepend=-1)
        return _never_null(counts[groups])

    def state(self, present: np.ndarray) -> tuple:
        pairs = self.pairs()
        return np.searchsorted(present, pairs >> self.arg_bits), self.values(pairs)


class ApproxCountDistinctAggregator(_PairAggregator):
    """KMV-sketched COUNT DISTINCT (Section 5).

    The distinct (group, value) pairs are known from the dictionaries;
    each group's sketch folds in the hashes of its distinct values as
    one vector — the "sorted dictionary" fast path. A sketch keeps the
    m smallest distinct hashes of everything folded in, whatever the
    order, so the fold takes each group's pairs of all chunks at once.
    """

    def __init__(
        self, n_groups: int, hash_units: np.ndarray, arg_has_null: bool, m: int
    ) -> None:
        super().__init__(n_groups, hash_units.size, arg_has_null)
        self.hash_units = hash_units  # per-gid hash in [0, 1)
        self.m = m
        self._sketches: dict[int, KmvSketch] = {}

    def apply(self, columns: tuple) -> None:
        keys = columns[0]
        if not keys.size:
            return
        if (keys[1:] < keys[:-1]).any():  # sorted already when one run's
            keys = np.sort(keys)
        groups = keys >> self.arg_bits
        value_ids = self.values(keys)
        boundaries = np.ones(groups.size, dtype=bool)
        boundaries[1:] = groups[1:] != groups[:-1]
        starts = np.flatnonzero(boundaries)
        ends = np.append(starts[1:], groups.size)
        for start, end in zip(starts.tolist(), ends.tolist()):
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

    def state(self, present: np.ndarray) -> tuple:
        gids = sorted(self._sketches)
        hashes = [self._sketches[gid].hashes for gid in gids]
        index = np.repeat(np.searchsorted(present, gids), [h.size for h in hashes])
        return index, np.concatenate([np.zeros(0), *hashes])


def build_aggregator(
    agg: Aggregate,
    n_groups: int,
    arg_field: "FieldStore | None",
) -> ColumnarAggregator:
    """Instantiate the right aggregator for one aggregate expression, in
    its argument's CSR frame: a run hands it its rows' CSR positions."""
    if arg_field is None:  # the argument is *
        if agg.name == "COUNT" and not agg.distinct:
            return PresenceAggregator(n_groups)
        raise ExecutionError(f"{agg.sql()} requires a field argument")
    has_null = arg_field.dictionary.has_null
    if agg.name == "COUNT" and agg.approximate:
        aggregator = ApproxCountDistinctAggregator(
            n_groups, arg_field.hash_units(), has_null, agg.m
        )
    elif agg.name == "COUNT" and agg.distinct:
        aggregator = CountDistinctAggregator(n_groups, arg_field.dictionary, has_null)
    elif agg.name == "COUNT":
        aggregator = CountValueAggregator(n_groups, has_null)
    elif agg.name in ("SUM", "AVG"):
        kind = SumAggregator if agg.name == "SUM" else AvgAggregator
        aggregator = kind(n_groups, arg_field.entry_values(), has_null)
    elif agg.name in ("MIN", "MAX"):
        kind = MinAggregator if agg.name == "MIN" else MaxAggregator
        aggregator = kind(n_groups, arg_field.dictionary, has_null)
    else:
        raise ExecutionError(f"unsupported aggregate {agg.name!r}")
    aggregator.entries = arg_field.chunk_dict_index().gids
    return aggregator
