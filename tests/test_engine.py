"""Columnar aggregator unit tests (the vectorized engine pieces)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import (
    AvgState,
    CountDistinctState,
    CountStarState,
    MinState,
    SumState,
)
from repro.core.engine import (
    ApproxCountDistinctAggregator,
    AvgAggregator,
    ChunkColumn,
    ChunkData,
    CountDistinctAggregator,
    CountValueAggregator,
    MaxAggregator,
    MinAggregator,
    PresenceAggregator,
    SumAggregator,
    aggregator_states,
)
from repro.storage.chunk import ColumnChunk
from repro.storage.dictionary import build_dictionary
from repro.storage.elements import (
    BitsetElements,
    ConstantElements,
    PackedElements,
)

from tests import engine_oracle


def _column(global_ids, optimized=True):
    """What the scan hands a kernel, from a real encoded column chunk."""
    chunk = ColumnChunk.from_global_ids(
        np.asarray(global_ids, dtype=np.uint32), optimized=optimized
    )
    return ChunkColumn(chunk.chunk_dict, chunk.elements.as_array())


def _chunk(group_ids, mask=None):
    return ChunkData(
        group=_column(group_ids),
        mask=None if mask is None else np.asarray(mask, dtype=bool),
    )


def _apply(aggregator, data, arg_ids=None):
    arg = None if arg_ids is None else _column(arg_ids)
    aggregator.apply(aggregator.chunk_partial(data, arg))


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
    """aggregator_states must mirror .results() through AggStates."""

    def test_presence_export(self):
        agg = PresenceAggregator(2)
        _apply(agg, _chunk([0, 1, 1]))
        states = aggregator_states(agg, np.array([True, True]))
        assert [type(s) for s in states] == [CountStarState, CountStarState]
        assert [s.result() for s in states] == [1, 2]

    def test_sum_export(self):
        values = np.array([1.0, 2.0])
        agg = SumAggregator(1, values, arg_has_null=False)
        _apply(agg, _chunk([0, 0]), arg_ids=[0, 1])
        (state,) = aggregator_states(agg, np.array([True]))
        assert isinstance(state, SumState)
        assert state.result() == 3.0

    def test_avg_export(self):
        values = np.array([2.0, 6.0])
        agg = AvgAggregator(1, values, arg_has_null=False)
        _apply(agg, _chunk([0, 0]), arg_ids=[0, 1])
        (state,) = aggregator_states(agg, np.array([True]))
        assert isinstance(state, AvgState)
        assert state.result() == 4.0

    def test_min_export(self):
        dictionary = build_dictionary(["p", "q"])
        agg = MinAggregator(1, dictionary, arg_has_null=False)
        _apply(agg, _chunk([0]), arg_ids=[1])
        (state,) = aggregator_states(agg, np.array([True]))
        assert isinstance(state, MinState)
        assert state.result() == "q"

    def test_distinct_export_carries_values(self):
        dictionary = build_dictionary(["a", "b"])
        agg = CountDistinctAggregator(1, dictionary, arg_has_null=False)
        _apply(agg, _chunk([0, 0]), arg_ids=[0, 1])
        (state,) = aggregator_states(agg, np.array([True]))
        assert isinstance(state, CountDistinctState)
        assert state.values == {"a", "b"}

    def test_exported_states_merge(self):
        """Merging two shards' exported states == one combined shard."""
        values = np.array([1.0, 10.0])
        shard_a = SumAggregator(1, values, arg_has_null=False)
        shard_b = SumAggregator(1, values, arg_has_null=False)
        combined = SumAggregator(1, values, arg_has_null=False)
        _apply(shard_a, _chunk([0]), arg_ids=[0])
        _apply(shard_b, _chunk([0]), arg_ids=[1])
        _apply(combined, _chunk([0, 0]), arg_ids=[0, 1])
        (a,) = aggregator_states(shard_a, np.array([True]))
        (b,) = aggregator_states(shard_b, np.array([True]))
        a.merge(b)
        (expected,) = aggregator_states(combined, np.array([True]))
        assert a.result() == expected.result()


# -- differential: chunk-id kernels == the gid-space oracle, array for array ---

_N_GIDS = 5000  # global dictionary size the random chunks draw from


@st.composite
def _chunks(draw):
    """(group gids, arg gids, mask, arg_has_null, optimized) of one chunk."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.sampled_from([0, 1, 2, 7, 300, 700]))

    def gids(with_null):
        # 1 / 2 / a few / >256 distinct values: constant, bitset, one-
        # and two-byte packed elements (four-byte when not optimized).
        distinct = min(draw(st.sampled_from([1, 2, 5, 400])), max(n_rows, 1))
        pool = rng.choice(np.arange(1, _N_GIDS), size=distinct, replace=False)
        if with_null:
            pool[0] = 0
        return pool[rng.integers(0, distinct, size=n_rows)].astype(np.int64)

    arg_has_null = draw(st.booleans())
    # gid 0 without has_null is a value like any other.
    arg_ids = gids(with_null=draw(st.booleans()))
    group_kind = draw(st.sampled_from(["field", "same", "none"]))
    if group_kind == "same":  # GROUP BY x with an aggregate over x
        group_ids = arg_ids
    elif group_kind == "none":  # no GROUP BY: one group
        group_ids = np.zeros(n_rows, dtype=np.int64)
    else:
        group_ids = gids(with_null=draw(st.booleans()))
    mask_kind = draw(st.sampled_from(["full", "random", "none_pass"]))
    mask = None
    if mask_kind == "random":
        mask = rng.random(n_rows) < 0.5
    elif mask_kind == "none_pass":
        mask = np.zeros(n_rows, dtype=bool)
    return group_ids, arg_ids, mask, arg_has_null, draw(st.booleans())


def _assert_same_partial(actual, expected, label):
    actual = actual if isinstance(actual, tuple) else (actual,)
    expected = expected if isinstance(expected, tuple) else (expected,)
    assert len(actual) == len(expected), label
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype, (label, got.dtype, want.dtype)
        assert got.shape == want.shape, label
        # tobytes: float sums must match to the last bit, not nearly.
        assert got.tobytes() == want.tobytes(), (label, got, want)


class TestPartialsMatchTheGidSpaceOracle:
    @settings(max_examples=300, deadline=None)
    @given(_chunks())
    def test_every_aggregator(self, chunk):
        group_ids, arg_ids, mask, has_null, optimized = chunk
        data = ChunkData(group=_column(group_ids, optimized), mask=mask)
        arg = _column(arg_ids, optimized)
        numeric = np.random.default_rng(7).normal(size=_N_GIDS)
        numeric[0] = np.nan
        dictionary = build_dictionary(list(range(3)))  # unused by the kernels
        n = _N_GIDS
        cases = {
            "presence": (
                PresenceAggregator(n).chunk_partial(data, None),
                engine_oracle.presence(group_ids, mask),
            ),
            "count": (
                CountValueAggregator(n, has_null).chunk_partial(data, arg),
                engine_oracle.count_value(group_ids, mask, arg_ids, has_null),
            ),
            "sum": (
                SumAggregator(n, numeric, has_null).chunk_partial(data, arg),
                engine_oracle.total(group_ids, mask, arg_ids, has_null, numeric),
            ),
            "avg": (
                AvgAggregator(n, numeric, has_null).chunk_partial(data, arg),
                engine_oracle.total(group_ids, mask, arg_ids, has_null, numeric),
            ),
            "min": (
                MinAggregator(n, dictionary, has_null).chunk_partial(data, arg),
                engine_oracle.extreme(group_ids, mask, arg_ids, has_null, True),
            ),
            "max": (
                MaxAggregator(n, dictionary, has_null).chunk_partial(data, arg),
                engine_oracle.extreme(group_ids, mask, arg_ids, has_null, False),
            ),
            "distinct": (
                CountDistinctAggregator(n, dictionary, has_null).chunk_partial(
                    data, arg
                ),
                engine_oracle.distinct_pairs(group_ids, mask, arg_ids, has_null),
            ),
            "approx": (
                ApproxCountDistinctAggregator(
                    n, numeric, has_null, m=8
                ).chunk_partial(data, arg),
                engine_oracle.distinct_pairs(group_ids, mask, arg_ids, has_null),
            ),
        }
        for label, (actual, expected) in cases.items():
            _assert_same_partial(actual, expected, label)

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
        """Arena-backed columns are read-only views: no kernel writes them."""
        chunk = ColumnChunk.from_global_ids(np.arange(300, dtype=np.uint32) % 7)
        chunk_dict, elements = chunk.chunk_dict.copy(), chunk.elements.as_array().copy()
        chunk_dict.setflags(write=False)
        elements.setflags(write=False)
        column = ChunkColumn(chunk_dict, elements)
        data = ChunkData(group=column, mask=None)
        dictionary = build_dictionary(list(range(7)))
        for aggregator in (
            PresenceAggregator(7),
            SumAggregator(7, np.arange(7.0), True),
            MinAggregator(7, dictionary, True),
            CountDistinctAggregator(7, dictionary, True),
        ):
            aggregator.apply(aggregator.chunk_partial(data, column))

    def test_wide_chunks_build_no_pair_matrix(self):
        """2 k groups x 2 k arguments is 4 M cells; the kernels stay O(rows)."""
        import tracemalloc

        rng = np.random.default_rng(5)
        group_ids = rng.permutation(2000).astype(np.int64)
        arg_ids = rng.permutation(2000).astype(np.int64) + 1
        data, arg = ChunkData(group=_column(group_ids), mask=None), _column(arg_ids)
        dictionary = build_dictionary(list(range(2001)))
        tracemalloc.start()
        try:
            for aggregator in (
                MinAggregator(2000, dictionary, False),
                CountDistinctAggregator(2000, dictionary, False),
            ):
                aggregator.chunk_partial(data, arg)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000  # bytes; a one-byte-per-cell matrix is 4 MB
