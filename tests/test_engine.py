"""Columnar aggregator unit tests (the vectorized engine pieces)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import engine
from repro.core.datastore import (
    DataStore,
    DataStoreOptions,
    FieldStore,
    _GroupedKernel,
)
from repro.core.engine import (
    ApproxCountDistinctAggregator,
    AvgAggregator,
    CountDistinctAggregator,
    CountValueAggregator,
    MaxAggregator,
    MinAggregator,
    PresenceAggregator,
    RunGroups,
    RunPairs,
    SumAggregator,
    as_run_partial,
)
from repro.core.plan import resolve_group_aliases
from repro.distributed import ClusterConfig, SimulatedCluster
from repro.distributed.shard import shard_table
from repro.formats.rowexec import execute_on_rows
from repro.sql.parser import parse_query
from repro.storage.chunk import ColumnChunk
from repro.storage.dictionary import NumericDictionary
from repro.storage.elements import (
    BitsetElements,
    ConstantElements,
    PackedElements,
)
from repro.workload.generator import LogsConfig, generate_query_logs

from tests import engine_oracle
from tests.conftest import make_store, run_of
from tests.import_oracle import build_dictionary
from tests.sanitizer import assert_results_equal


def _chunk(group_ids, mask=None):
    """A one-chunk run's groups, from a real encoded column chunk."""
    chunk = ColumnChunk.from_global_ids(np.asarray(group_ids, dtype=np.uint32))
    rows = chunk.elements.as_array().astype(np.intp)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        rows = rows[mask]
    return RunGroups(rows, chunk.chunk_dict, np.zeros(1, dtype=np.intp)), mask


def _apply(aggregator, chunk, arg_ids=None):
    groups, mask = chunk
    arg = None
    if arg_ids is not None:
        arg = np.asarray(arg_ids, dtype=np.uint32)
        arg = arg if mask is None else arg[mask]
    # A one-chunk run partial's columns are that chunk's partial.
    aggregator.apply(aggregator.run_partial(groups, arg)[1:])


class TestPresence:
    def test_counts_rows_per_group(self):
        agg = PresenceAggregator(3)
        _apply(agg, _chunk([0, 1, 1, 2, 2, 2]))
        assert agg.counts.tolist() == [1, 2, 3]

    def test_mask_applies(self):
        agg = PresenceAggregator(2)
        _apply(agg, _chunk([0, 0, 1, 1], mask=[True, False, True, True]))
        assert agg.counts.tolist() == [1, 2]

    def test_accumulates_across_chunks(self):
        agg = PresenceAggregator(2)
        _apply(agg, _chunk([0, 1]))
        _apply(agg, _chunk([1, 1]))
        assert agg.counts.tolist() == [1, 3]

    def test_results_only_present(self):
        agg = PresenceAggregator(3)
        _apply(agg, _chunk([0, 2]))
        present = agg.counts > 0
        assert agg.results(present) == [1, 1]


class TestCountValue:
    def test_nulls_excluded_via_gid_zero(self):
        agg = CountValueAggregator(2, arg_has_null=True)
        # arg gid 0 means NULL for a has_null dictionary.
        _apply(agg, _chunk([0, 0, 1, 1]), arg_ids=[0, 3, 0, 5])
        assert agg.counts.tolist() == [1, 1]

    def test_without_nulls_counts_all(self):
        agg = CountValueAggregator(1, arg_has_null=False)
        _apply(agg, _chunk([0, 0, 0]), arg_ids=[0, 1, 2])
        assert agg.counts.tolist() == [3]


class TestSumAvg:
    def test_sum_uses_dictionary_values(self):
        values = np.array([10.0, 20.0, 30.0])
        agg = SumAggregator(2, values, arg_has_null=False)
        _apply(agg, _chunk([0, 0, 1]), arg_ids=[0, 2, 1])
        assert agg.results(np.array([True, True])) == [40.0, 20.0]

    def test_sum_null_group_is_none(self):
        values = np.array([np.nan, 5.0])  # gid 0 = NULL
        agg = SumAggregator(2, values, arg_has_null=True)
        _apply(agg, _chunk([0, 1]), arg_ids=[0, 1])
        assert agg.results(np.array([True, True])) == [None, 5.0]

    def test_avg(self):
        values = np.array([2.0, 4.0])
        agg = AvgAggregator(1, values, arg_has_null=False)
        _apply(agg, _chunk([0, 0]), arg_ids=[0, 1])
        assert agg.results(np.array([True])) == [3.0]


class TestMinMax:
    def test_min_max_over_ranks(self):
        dictionary = build_dictionary(["apple", "mango", "zebra"])
        low = MinAggregator(2, dictionary, arg_has_null=False)
        high = MaxAggregator(2, dictionary, arg_has_null=False)
        data = _chunk([0, 0, 1])
        for agg in (low, high):
            _apply(agg, data, arg_ids=[2, 0, 1])
        present = np.array([True, True])
        assert low.results(present) == ["apple", "mango"]
        assert high.results(present) == ["zebra", "mango"]

    def test_empty_group_is_none(self):
        dictionary = build_dictionary([None, "x"])
        agg = MinAggregator(2, dictionary, arg_has_null=True)
        # All arg values NULL for group 0.
        _apply(agg, _chunk([0, 1]), arg_ids=[0, 1])
        assert agg.results(np.array([True, True])) == [None, "x"]

    def test_min_merges_across_chunks(self):
        dictionary = build_dictionary([1, 5, 9])
        agg = MinAggregator(1, dictionary, arg_has_null=False)
        _apply(agg, _chunk([0]), arg_ids=[2])
        _apply(agg, _chunk([0]), arg_ids=[1])
        assert agg.results(np.array([True])) == [5]


class TestCountDistinct:
    def test_dedup_across_chunks(self):
        dictionary = build_dictionary(["a", "b", "c"])
        agg = CountDistinctAggregator(1, dictionary, arg_has_null=False)
        _apply(agg, _chunk([0, 0]), arg_ids=[0, 1])
        _apply(agg, _chunk([0, 0]), arg_ids=[1, 2])
        assert agg.results(np.array([True])) == [3]

    def test_per_group_sets(self):
        dictionary = build_dictionary(["a", "b"])
        agg = CountDistinctAggregator(2, dictionary, arg_has_null=False)
        _apply(agg, _chunk([0, 0, 1]), arg_ids=[0, 0, 1])
        assert agg.results(np.array([True, True])) == [1, 1]


class TestApprox:
    def test_small_cardinality_exact(self):
        hashes = np.linspace(0.01, 0.99, 50)
        agg = ApproxCountDistinctAggregator(1, hashes, False, m=64)
        _apply(agg, _chunk([0] * 50), arg_ids=list(range(50)))
        assert agg.results(np.array([True])) == [50]

    def test_group_without_rows_is_zero(self):
        hashes = np.array([0.5])
        agg = ApproxCountDistinctAggregator(2, hashes, False, m=8)
        _apply(agg, _chunk([1]), arg_ids=[0])
        assert agg.results(np.array([True, True])) == [0, 1]


class TestStateExport:
    """An aggregator's :meth:`state` applies to a fresh aggregator of its
    kind as its chunk partials did: the same results, shard after shard."""

    @staticmethod
    def _refold(shards, fresh, present):
        """Apply each shard's state over ``present``, in shard order."""
        for shard in shards:
            columns = shard.state(present)
            if isinstance(fresh, CountDistinctAggregator):
                columns = (fresh._pairs(*columns),)
            fresh.apply(columns)
        return fresh.results(np.arange(present.size))

    def test_presence_export(self):
        agg = PresenceAggregator(3)
        _apply(agg, _chunk([0, 2, 2]))
        index, counts = agg.state(np.array([0, 2]))
        assert (index.tolist(), counts.tolist()) == ([0, 1], [1, 2])
        fresh = PresenceAggregator(2)
        assert self._refold([agg, agg], fresh, np.array([0, 2])) == [2, 4]

    def test_sum_export(self):
        values = np.array([1.0, 2.0])
        agg = SumAggregator(2, values, arg_has_null=False)
        _apply(agg, _chunk([1, 1]), arg_ids=[0, 1])
        index, totals, counts = agg.state(np.array([1]))
        assert (index.tolist(), totals.tolist(), counts.tolist()) == ([0], [3.0], [2])
        fresh = SumAggregator(1, None, arg_has_null=False)
        assert self._refold([agg], fresh, np.array([1])) == [3.0]

    def test_avg_export(self):
        values = np.array([2.0, 6.0])
        shard_a = AvgAggregator(1, values, arg_has_null=False)
        shard_b = AvgAggregator(1, values, arg_has_null=False)
        _apply(shard_a, _chunk([0]), arg_ids=[0])
        _apply(shard_b, _chunk([0, 0]), arg_ids=[1, 1])
        fresh = AvgAggregator(1, None, arg_has_null=False)
        assert self._refold([shard_a, shard_b], fresh, np.array([0])) == [14 / 3]

    def test_min_export(self):
        """A group without a winner ships none; the winner is a global-id."""
        dictionary = build_dictionary([None, "p", "q"])
        shards = [MinAggregator(2, dictionary, arg_has_null=True) for __ in "ab"]
        _apply(shards[0], _chunk([0, 1]), arg_ids=[0, 2])
        _apply(shards[1], _chunk([0, 1]), arg_ids=[0, 1])
        index, winners = shards[0].state(np.array([0, 1]))
        assert (index.tolist(), winners.tolist()) == ([1], [2])
        fresh = MinAggregator(2, dictionary, arg_has_null=False)
        assert self._refold(shards, fresh, np.array([0, 1])) == [None, "p"]

    def test_distinct_export_carries_values(self):
        dictionary = build_dictionary(["a", "b", "c"])
        shard_a = CountDistinctAggregator(2, dictionary, arg_has_null=False)
        shard_b = CountDistinctAggregator(2, dictionary, arg_has_null=False)
        _apply(shard_a, _chunk([0, 0, 1]), arg_ids=[0, 1, 1])
        _apply(shard_b, _chunk([0, 1]), arg_ids=[1, 2])
        index, values = shard_a.state(np.array([0, 1]))
        assert list(zip(index.tolist(), values.tolist())) == [(0, 0), (0, 1), (1, 1)]
        fresh = CountDistinctAggregator(2, dictionary, arg_has_null=False)
        assert self._refold([shard_a, shard_b], fresh, np.array([0, 1])) == [2, 2]

    def test_approx_export(self):
        """A sketch ships its retained hashes, indexed by its group."""
        hashes = np.array([0.1, 0.2, 0.3, 0.4])
        agg = ApproxCountDistinctAggregator(3, hashes, False, m=2)
        _apply(agg, _chunk([2, 2, 2, 0]), arg_ids=[3, 1, 2, 0])
        index, retained = agg.state(np.array([0, 2]))
        assert (index.tolist(), retained.tolist()) == ([0, 1, 1], [0.1, 0.2, 0.3])

    def test_exported_states_merge(self):
        """Folding two shards' states == one combined shard, to the bit."""
        values = np.array([0.1, 0.2, 0.3])
        shard_a = SumAggregator(1, values, arg_has_null=False)
        shard_b = SumAggregator(1, values, arg_has_null=False)
        combined = SumAggregator(1, values, arg_has_null=False)
        _apply(shard_a, _chunk([0]), arg_ids=[0])
        _apply(shard_b, _chunk([0, 0]), arg_ids=[1, 2])
        combined.apply(shard_a.run_partial(*_chunk([0])[:1], np.array([0]))[1:])
        combined.apply(shard_b.run_partial(*_chunk([0, 0])[:1], np.array([1, 2]))[1:])
        fresh = SumAggregator(1, None, arg_has_null=False)
        folded = self._refold([shard_a, shard_b], fresh, np.array([0]))
        assert folded == combined.results(np.array([0])) == [0.1 + (0.2 + 0.3)]


# -- differential: run partials == the gid-space oracle, chunk by chunk ---------

_N_GIDS = 5000  # global dictionary size the random chunks draw from
#: A group dictionary this wide needs 20 bits beside the argument's 13:
#: COUNT DISTINCT's pairs take uint64.
_WIDE_GIDS = 2**19 + 1

_AGGREGATES = (
    "COUNT(*)",
    "COUNT(a)",
    "SUM(a)",
    "AVG(a)",
    "MIN(a)",
    "MAX(a)",
    "COUNT(DISTINCT a)",
    "APPROX_COUNT_DISTINCT(a, 8)",
)


@st.composite
def _stores(draw):
    """Chunks of (group gids, arg gids, mask), the flags, and run cuts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arg_has_null = draw(st.booleans())
    group_kind = draw(st.sampled_from(["field", "same", "none", "constant"]))

    def gids(n_rows, with_null):
        # 1 / 2 / a few / >256 distinct values: constant, bitset, one-
        # and two-byte packed elements (four-byte when not optimized).
        distinct = min(draw(st.sampled_from([1, 2, 5, 400])), max(n_rows, 1))
        pool = rng.choice(np.arange(1, _N_GIDS), size=distinct, replace=False)
        if with_null:
            pool[0] = 0
        return pool[rng.integers(0, distinct, size=n_rows)].astype(np.int64)

    chunks = []
    for __ in range(draw(st.integers(1, 6))):
        n_rows = draw(st.sampled_from([0, 1, 2, 7, 300, 700]))
        # gid 0 without has_null is a value like any other.
        arg_ids = gids(n_rows, with_null=draw(st.booleans()))
        if group_kind == "same":  # GROUP BY x with an aggregate over x
            group_ids = arg_ids
        elif group_kind == "none":  # no GROUP BY: one group
            group_ids = np.zeros(n_rows, dtype=np.int64)
        elif group_kind == "constant":  # one group per chunk, shared, maybe gid 0
            group_ids = np.full(n_rows, draw(st.sampled_from([0, 1, 4999])))
        else:
            group_ids = gids(n_rows, with_null=draw(st.booleans()))
        mask_kind = draw(st.sampled_from(["full", "random", "none_pass"]))
        mask = None
        if mask_kind == "random":
            mask = rng.random(n_rows) < 0.5
        elif mask_kind == "none_pass":
            mask = np.zeros(n_rows, dtype=bool)
        chunks.append((group_ids, arg_ids, mask))
    cuts = draw(st.sets(st.integers(1, max(len(chunks) - 1, 1))))
    cached = draw(st.sets(st.integers(0, len(chunks) - 1)))
    kept = draw(st.sets(st.integers(0, len(chunks) - 1)))
    return chunks, arg_has_null, group_kind, draw(st.booleans()), cuts, cached, kept


def _store(chunks, arg_has_null, optimized, n_group_gids=_N_GIDS):
    """Fields ``g`` (group, ``n_group_gids`` values) and ``a`` (argument)
    over the given chunks."""
    values = np.sort(np.random.default_rng(7).normal(size=_N_GIDS - arg_has_null))

    def field(name, dictionary, column):
        return FieldStore(
            name,
            dictionary,
            [
                ColumnChunk.from_global_ids(ids.astype(np.uint32), optimized)
                for ids in column
            ],
        )

    fields = {
        "g": field(
            "g", NumericDictionary(np.arange(n_group_gids)), [c[0] for c in chunks]
        ),
        "a": field(
            "a", NumericDictionary(values, has_null=arg_has_null), [c[1] for c in chunks]
        ),
    }
    return DataStore(
        DataStoreOptions(), sum(c[0].size for c in chunks), [c[0].size for c in chunks], fields
    )


def _kernel(store, group_kind):
    group_by = {"same": " GROUP BY a", "none": ""}.get(group_kind, " GROUP BY g")
    sql = f"SELECT {', '.join(_AGGREGATES)} FROM data{group_by}"
    return _GroupedKernel(store, resolve_group_aliases(parse_query(sql)), store.ensure_field)


def _oracle_partials(chunk, arg_has_null, numeric, n_groups):
    """The per-chunk partials of every kernel slot, by the gid-space oracle."""
    group_ids, arg_ids, mask = chunk
    presence = engine_oracle.presence(group_ids, mask)
    pairs = engine_oracle.distinct_pairs(
        group_ids, mask, arg_ids, arg_has_null, n_groups, numeric.size
    )
    total = engine_oracle.total(group_ids, mask, arg_ids, arg_has_null, numeric)
    return [
        presence,
        presence,
        engine_oracle.count_value(group_ids, mask, arg_ids, arg_has_null),
        total,
        total,
        engine_oracle.extreme(group_ids, mask, arg_ids, arg_has_null, True),
        engine_oracle.extreme(group_ids, mask, arg_ids, arg_has_null, False),
        pairs,
        pairs,
    ]


def _assert_same_partial(actual, expected, label):
    actual = actual if isinstance(actual, tuple) else (actual,)
    expected = expected if isinstance(expected, tuple) else (expected,)
    assert len(actual) == len(expected), label
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype, (label, got.dtype, want.dtype)
        assert got.shape == want.shape, label
        # tobytes: float sums must match to the last bit, not nearly.
        assert got.tobytes() == want.tobytes(), (label, got, want)


def _folded(kernel):
    """Every accumulator of a folded kernel, as bytes."""
    groups = np.arange(kernel.presence.n_groups)
    return [kernel.presence.counts.tobytes()] + [
        [column.tobytes() for column in aggregator.result_columns(groups)]
        for aggregator in kernel.aggregators
    ]


def _check_every_aggregator(
    chunks, arg_has_null, group_kind, optimized, cuts, cached, kept, n_gids=_N_GIDS
):
    """For runs of one chunk, of every chunk and cut at random points:
    in a run that keeps a chunk for the cache, each chunk's slice of a
    run partial is the oracle's partial, byte for byte; a run that
    keeps none has its COUNT DISTINCT pairs run-level, without chunk
    slices. Folded with per-chunk pieces, run-level pieces and cached
    chunks interleaved, the accumulators are the bits a chunk-by-chunk
    fold of the oracle gives."""
    store = _store(chunks, arg_has_null, optimized, n_gids)
    numeric = store.field("a").numeric_values()
    n_groups = {"same": numeric.size, "none": 1}.get(group_kind, n_gids)
    expected = [_oracle_partials(c, arg_has_null, numeric, n_groups) for c in chunks]
    reference = _kernel(store, group_kind)
    for chunk_index in range(len(chunks)):
        reference.fold(
            [((chunk_index,), [as_run_partial(p) for p in expected[chunk_index]])]
        )
    bounds = [0, *sorted(cuts), len(chunks)]
    layouts = {
        "single": [[c] for c in range(len(chunks))],
        "whole": [list(range(len(chunks)))],
        "cut": [list(range(a, b)) for a, b in zip(bounds, bounds[1:]) if a < b],
    }
    for label, layout in layouts.items():
        kernel = _kernel(store, group_kind)
        slots = [kernel.presence, *kernel.aggregators]
        ready = []
        for run_chunks in layout:
            # Cached chunks are served apart, so a run skips over them.
            scanned = [c for c in run_chunks if c not in cached] or run_chunks
            flags = [c in kept for c in scanned]
            run = run_of(store, scanned, [chunks[c][2] for c in scanned], flags)
            partials = kernel.scan(run)
            for k, chunk_index in enumerate(scanned):
                for slot, (aggregator, partial) in enumerate(zip(slots, partials)):
                    if isinstance(partial, RunPairs):
                        assert not any(flags), label
                        with pytest.raises(AssertionError):
                            aggregator.chunk_slice(partial, k)
                        continue
                    _assert_same_partial(
                        aggregator.chunk_slice(partial, k),
                        expected[chunk_index][slot],
                        (label, chunk_index, slot),
                    )
            ready.append((run.chunks, partials))
        served = {c for run_chunks, __ in ready for c in run_chunks}
        ready += [
            ((c,), [as_run_partial(p) for p in expected[c]])
            for c in sorted(cached - served)
        ]
        kernel.fold(ready[::-1])  # arrival order does not matter
        assert _folded(kernel) == _folded(reference), label


class TestPartialsMatchTheGidSpaceOracle:
    @settings(max_examples=150, deadline=None)
    @given(_stores())
    def test_every_aggregator(self, drawn):
        """Random stores, all of whose pairs fit in uint32."""
        _check_every_aggregator(*drawn)

    def test_wide_pairs_take_uint64(self):
        """20 group bits beside 13 argument bits: the same checks, over
        uint64 pairs (the random stores' fit in uint32)."""
        rng = np.random.default_rng(11)
        chunks = []
        for n_rows in (300, 0, 700, 7, 300):
            group_ids = rng.choice([0, 3, 4999, _WIDE_GIDS - 1], size=n_rows)
            arg_ids = rng.integers(0, _N_GIDS, size=n_rows)
            chunks.append((group_ids, arg_ids, rng.random(n_rows) < 0.5))
        chunks[2] = chunks[2][:2] + (None,)
        kernel = _kernel(_store(chunks, True, True, _WIDE_GIDS), "field")
        assert kernel.aggregators[-1].empty_dtypes == (np.uint64,)
        for kept in ({0, 2}, set()):
            _check_every_aggregator(
                chunks, True, "field", True, {2, 3}, {1, 4}, kept, _WIDE_GIDS
            )

    def test_a_run_keeping_no_chunk_holds_its_pairs_once(self):
        """Two chunks with the same pairs: a run that keeps either chunk for
        the cache has them in both slices; one that keeps neither has them
        once, sorted, in its first chunk's, and no slice to give."""
        ids = np.array([3, 1, 3, 2, 1, 3])
        chunks = [(ids, ids[::-1].copy(), None)] * 2
        store = _store(chunks, False, True)
        for kept in ((True, False), (False, False)):
            kernel = _kernel(store, "field")
            partials = kernel.scan(run_of(store, [0, 1], [None, None], kept))
            for aggregator, partial in zip(kernel.aggregators[-2:], partials[-2:]):
                bounds, pairs = partial
                assert isinstance(partial, RunPairs) is not any(kept)
                if any(kept):
                    assert bounds.tolist() == [0, 4, 8]
                    assert pairs[:4].tolist() == pairs[4:].tolist()
                    continue
                assert bounds.tolist() == [0, 4, 4]
                distinct = ((1, 1), (2, 3), (3, 2), (3, 3))  # 13-bit arguments
                assert pairs.dtype == np.uint32
                assert pairs.tolist() == [(g << 13) | a for g, a in distinct]
                with pytest.raises(AssertionError):
                    aggregator.chunk_slice(partial, 0)

    def test_the_random_chunks_cover_every_elements_encoding(self):
        def encoding(distinct, optimized=True):
            chunk = ColumnChunk.from_global_ids(
                np.arange(700, dtype=np.uint32) % distinct, optimized=optimized
            )
            return type(chunk.elements), getattr(chunk.elements, "width", None)

        assert encoding(1) == (ConstantElements, None)
        assert encoding(2) == (BitsetElements, None)
        assert encoding(5) == (PackedElements, 1)
        assert encoding(400) == (PackedElements, 2)
        assert encoding(400, optimized=False) == (PackedElements, 4)

    def test_kernels_leave_read_only_columns_alone(self):
        """Row positions are read-only views: no kernel writes its inputs,
        for a run of rows and for a one-group-per-chunk run alike."""
        groups, __ = _chunk(np.arange(300) % 7)
        constant = RunGroups(
            None,
            np.array([2, 5, 2], dtype=np.uint32),
            np.arange(3),
            np.array([100, 0, 200]),
        )
        arg = (np.arange(300) % 7).astype(np.uint32)
        for array in (*groups, *constant, arg):
            if array is not None:
                array.setflags(write=False)
        dictionary = build_dictionary(list(range(7)))
        for run in (groups, constant):
            for aggregator in (
                PresenceAggregator(7),
                SumAggregator(7, np.arange(7.0), True),
                MinAggregator(7, dictionary, True),
                CountDistinctAggregator(7, dictionary, True),
                ApproxCountDistinctAggregator(7, np.linspace(0, 1, 7), True, 8),
            ):
                aggregator.apply(aggregator.run_partial(run, arg)[1:])

    def test_wide_chunks_build_no_pair_matrix(self):
        """2 k groups x 2 k arguments is 4 M cells; the kernels stay O(rows)."""
        import tracemalloc

        rng = np.random.default_rng(5)
        groups, __ = _chunk(rng.permutation(2000))
        arg = (rng.permutation(2000) + 1).astype(np.uint32)
        dictionary = build_dictionary(list(range(2001)))
        tracemalloc.start()
        try:
            for aggregator in (
                MinAggregator(2000, dictionary, False),
                CountDistinctAggregator(2000, dictionary, False),
            ):
                aggregator.run_partial(groups, arg)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000  # bytes; a one-byte-per-cell matrix is 4 MB

    def test_wide_pair_keys_take_64_bits(self):
        """2**20 span positions beside 13-bit argument gids: 33-bit keys."""
        groups = RunGroups(
            np.array([2**20 - 1, 3, 3], dtype=np.intp),
            np.arange(2**20, dtype=np.uint32),
            np.zeros(1, dtype=np.intp),
        )
        arg = np.array([8191, 2, 2], dtype=np.uint32)
        wide = [(3 << 13) | 2, ((2**20 - 1) << 13) | 8191]
        dictionary = build_dictionary(list(range(8192)))
        exact = CountDistinctAggregator(2**20, dictionary, False)
        approx = ApproxCountDistinctAggregator(2**20, np.linspace(0, 1, 8192), False, 8)
        for aggregator in (exact, approx):
            __, pairs = aggregator.run_partial(groups, arg)
            assert pairs.dtype == np.uint64 and pairs.tolist() == wide
            aggregator.apply((pairs,))
            assert aggregator.results(np.array([3, 2**20 - 1])) == [1, 1]
        assert exact.pairs().tolist() == wide


# -- COUNT DISTINCT folds: one RunPairs, two runs, cache hits mixed in -----------

#: Exact COUNT DISTINCT over a NULL-bearing argument and over a string,
#: grouped by a field that is not one per chunk, so runs sort rows.
_DISTINCT_SQL = (
    "SELECT table_name, COUNT(DISTINCT latency) AS d, "
    "COUNT(DISTINCT user_name) AS u FROM data GROUP BY table_name"
)


class TestCountDistinctFolds:
    @pytest.fixture
    def folds(self, monkeypatch):
        """The pair sorts of a query."""
        seen = SimpleNamespace(sorts=0)
        sorted_distinct = engine._sorted_distinct

        def counted_sorted_distinct(keys):
            seen.sorts += 1
            return sorted_distinct(keys)

        monkeypatch.setattr(engine, "_sorted_distinct", counted_sorted_distinct)
        return seen

    @staticmethod
    def _check(store, table, sql=_DISTINCT_SQL):
        parsed = parse_query(sql)
        expected = execute_on_rows(parsed, table.schema, table.iter_rows())
        result = store.execute(parsed)
        assert_results_equal(result.rows(), list(expected.iter_rows()), context=sql)
        return result.stats

    def test_one_run_folds_its_run_pairs_without_a_sort(self, null_log_table, folds):
        store = make_store(null_log_table, cache_chunk_results=False)
        self._check(store, null_log_table)
        assert folds.sorts == 2  # one per aggregate, in the scan

    def test_two_runs_on_threads_sort_once_more(self, null_log_table, folds):
        store = make_store(
            null_log_table, cache_chunk_results=False, executor="thread", workers=2
        )
        try:
            self._check(store, null_log_table)
        finally:
            store.executor.close()
        assert folds.sorts == 2 * 2 + 2  # each run's, then each fold's

    def test_cache_hits_mixed_with_scanned_runs(self, null_log_table):
        store = make_store(null_log_table)
        self._check(store, null_log_table)  # every chunk FULL: all admitted
        country = null_log_table.row(0)[3]
        mixed = _DISTINCT_SQL.replace(
            " GROUP BY", f" WHERE country = '{country}' OR latency > 300 GROUP BY"
        )
        stats = self._check(store, null_log_table, mixed)
        assert stats.chunks_cached and stats.chunks_scanned

    def test_cluster_shards_hand_up_their_distinct_values(self, null_log_table):
        options = DataStoreOptions(
            partition_fields=("country", "table_name"),
            max_chunk_rows=200,
            cache_chunk_results=False,
        )
        config = ClusterConfig(n_machines=4, seed=3)
        cluster = SimulatedCluster.build(null_log_table, 4, options, config)
        pieces = shard_table(null_log_table, 4, seed=config.seed)
        names = null_log_table.field_names
        for shard, piece in zip(cluster.shards, pieces):
            expected: dict = {}
            for row in piece.iter_rows():
                row = dict(zip(names, row))
                group = expected.setdefault(row["table_name"], (set(), set()))
                latencies, users = group
                latencies.update({row["latency"]} - {None})
                users.add(row["user_name"])
            __, partial = shard.store.execute_partials(_DISTINCT_SQL)
            sets = []
            for slot in (1, 2):  # the pairs: group index, argument value code
                index, codes = partial.states[slot]
                values = [set() for __ in partial.values]
                for group, value in zip(index, partial.args[slot][codes]):
                    values[group].add(value)
                sets.append(values)
            assert dict(zip(partial.values, zip(*sets))) == expected
        result, __ = cluster.execute(_DISTINCT_SQL)
        parsed = parse_query(_DISTINCT_SQL)
        table = null_log_table
        expected = execute_on_rows(parsed, table.schema, table.iter_rows())
        assert_results_equal(result.rows(), list(expected.iter_rows()))


# -- one group per chunk: Query 1 reads chunk-dictionaries, not rows -----------


@pytest.fixture(scope="module")
def logs_100k():
    return generate_query_logs(LogsConfig(n_rows=100_000, seed=5))


def _partitioned_like_the_benchmark(table):
    """``country`` leads the partition: one value in every chunk."""
    store = DataStore.from_table(
        table,
        DataStoreOptions(
            partition_fields=("country", "table_name"),
            max_chunk_rows=table.n_rows // 100,
            reorder_rows=True,
            cache_chunk_results=False,
        ),
    )
    assert (np.diff(store.field("country").chunk_dict_index().offsets) == 1).all()
    return store


class TestOneGroupPerChunk:
    def test_query_1_costs_o_chunks(self, logs_100k):
        import tracemalloc

        store = _partitioned_like_the_benchmark(logs_100k)
        tracemalloc.start()
        try:
            result = store.execute(
                "SELECT country, COUNT(*) FROM data GROUP BY country"
            )
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(row[1] for row in result.rows()) == 100_000
        assert store.field("country")._row_positions is None
        assert peak < 100_000  # bytes; the row positions alone are 400 KB

    @pytest.mark.parametrize(
        "aggregate",
        ["APPROX_COUNT_DISTINCT(table_name, 1024)", "COUNT(DISTINCT table_name)"],
    )
    def test_distinct_counts_read_the_argument_chunk_dictionaries(
        self, logs_100k, aggregate
    ):
        store = _partitioned_like_the_benchmark(logs_100k)
        store.execute(f"SELECT country, {aggregate} FROM data GROUP BY country")
        assert store.field("table_name")._row_positions is None
        assert store.field("country")._row_positions is None
