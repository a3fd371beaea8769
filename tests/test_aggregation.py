"""Aggregation state tests — the row-wise reference semantics."""

import pytest

from repro.core.aggregation import (
    ApproxCountDistinctState,
    AvgState,
    CountDistinctState,
    CountStarState,
    CountValueState,
    MaxState,
    MinState,
    SumState,
    make_state,
)
from repro.core.datastore import DataStore
from repro.core.table import Table
from repro.distributed import ComputationTree
from repro.errors import ExecutionError, UnsupportedQueryError
from repro.sql.ast_nodes import Aggregate, FieldRef, Star
from repro.sql.parser import parse_query


def _merged(aggregate, state, *shards):
    """Merge one aggregate's shard partials as the distributed tree does
    (the store's own aggregators fold them) and check the answer against
    ``state`` fed every shard's values in one pass."""
    query = parse_query(f"SELECT {aggregate} AS r FROM data")
    partials = [
        DataStore.from_table(Table.from_columns({"v": values})).execute_partials(
            query
        )[1]
        for values in shards
    ]
    root, __ = ComputationTree(len(shards)).merge_levels(partials)
    (answer,) = root.answer(query).column("r").values
    for values in shards:
        for value in values:
            state.add(value)
    assert answer == state.result()
    return answer


class TestCountStates:
    def test_count_star_counts_everything(self):
        state = CountStarState()
        for value in (1, None, "x"):
            state.add(value)
        assert state.result() == 3

    def test_count_value_skips_nulls(self):
        state = CountValueState()
        for value in (1, None, 2, None):
            state.add(value)
        assert state.result() == 2

    def test_merge(self):
        assert _merged("COUNT(*)", CountStarState(), [1], [1, 1]) == 3


class TestSumAvg:
    def test_sum(self):
        state = SumState()
        for value in (1, 2.5, None):
            state.add(value)
        assert state.result() == 3.5

    def test_sum_empty_is_null(self):
        assert SumState().result() is None
        state = SumState()
        state.add(None)
        assert state.result() is None

    def test_sum_string_raises(self):
        with pytest.raises(ExecutionError):
            SumState().add("x")

    def test_avg(self):
        state = AvgState()
        for value in (2, 4, None):
            state.add(value)
        assert state.result() == 3.0

    def test_avg_empty_is_null(self):
        assert AvgState().result() is None

    def test_avg_merge(self):
        assert _merged("AVG(v)", AvgState(), [2], [4, 6]) == 4.0


class TestMinMax:
    def test_min_max_numbers(self):
        low, high = MinState(), MaxState()
        for value in (5, None, 3, 9):
            low.add(value)
            high.add(value)
        assert low.result() == 3
        assert high.result() == 9

    def test_min_max_strings(self):
        low, high = MinState(), MaxState()
        for value in ("pear", "apple", None, "zebra"):
            low.add(value)
            high.add(value)
        assert low.result() == "apple"
        assert high.result() == "zebra"

    def test_empty_is_null(self):
        assert MinState().result() is None
        assert MaxState().result() is None

    def test_merge(self):
        assert _merged("MIN(v)", MinState(), [5], [2]) == 2


class TestDistinct:
    def test_exact(self):
        state = CountDistinctState()
        for value in (1, 1, 2, None, 2, 3):
            state.add(value)
        assert state.result() == 3

    def test_exact_merge_unions(self):
        assert _merged("COUNT(DISTINCT v)", CountDistinctState(), [1, 2], [2, 3]) == 3

    def test_approx_small_is_exact(self):
        state = ApproxCountDistinctState(m=64)
        for i in range(40):
            state.add(i)
            state.add(i)
        assert state.result() == 40

    def test_approx_merge(self):
        odd, even = ([i for i in range(2000) if i % 2 == r] for r in (1, 0))
        state = ApproxCountDistinctState(m=512)
        merged = _merged("APPROX_COUNT_DISTINCT(v, 512)", state, odd, even)
        assert abs(merged - 2000) / 2000 < 0.2



class TestMakeState:
    def _agg(self, sql: str) -> Aggregate:
        return parse_query(f"SELECT {sql} FROM t").select[0].expr

    @pytest.mark.parametrize(
        "sql,cls",
        [
            ("COUNT(*)", CountStarState),
            ("COUNT(x)", CountValueState),
            ("SUM(x)", SumState),
            ("MIN(x)", MinState),
            ("MAX(x)", MaxState),
            ("AVG(x)", AvgState),
            ("COUNT(DISTINCT x)", CountDistinctState),
            ("APPROX_COUNT_DISTINCT(x, 32)", ApproxCountDistinctState),
        ],
    )
    def test_dispatch(self, sql, cls):
        assert isinstance(make_state(self._agg(sql)), cls)

    def test_unknown_aggregate(self):
        with pytest.raises(UnsupportedQueryError):
            make_state(Aggregate("MEDIAN", FieldRef("x")))

    def test_approx_m_passed_through(self):
        state = make_state(self._agg("APPROX_COUNT_DISTINCT(x, 32)"))
        assert state.sketch.m == 32
