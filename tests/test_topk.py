"""Top-k fast-path tests: it must be invisible except for speed.

The shortcut selects the LIMIT k groups from aggregate values and
group global-ids *before* looking up group values in the dictionary.
These tests pin the trickiest equivalences: ties, descending string
keys (not invertible -> fallback), NULL aggregate values (fallback),
HAVING (fallback), and composite groups (fallback).
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import datastore as datastore_module
from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.table import Table
from repro.formats.rowexec import execute_on_rows
from repro.sql.parser import parse_query
from tests.sanitizer import assert_results_equal


def _store(data: dict) -> tuple[DataStore, Table]:
    table = Table.from_columns(data)
    return (
        DataStore.from_table(
            table,
            DataStoreOptions(partition_fields=("g",), max_chunk_rows=4),
        ),
        table,
    )


def _check(store: DataStore, table: Table, sql: str) -> None:
    parsed = parse_query(sql)
    expected = execute_on_rows(parsed, table.schema, table.iter_rows())
    assert_results_equal(
        store.execute(parsed).rows(), list(expected.iter_rows()), context=sql
    )


class TestTies:
    def test_all_counts_equal(self):
        store, table = _store(
            {"g": ["d", "b", "a", "c", "e", "f"], "x": [1, 2, 3, 4, 5, 6]}
        )
        # Every group has count 1: the tie-break (group value ascending)
        # decides which two survive LIMIT 2.
        _check(store, table, (
            "SELECT g, COUNT(*) as c FROM data GROUP BY g "
            "ORDER BY c DESC LIMIT 2"
        ))

    def test_partial_ties_at_the_cut(self):
        store, table = _store(
            {
                "g": ["a", "a", "b", "b", "c", "d", "e"],
                "x": [1] * 7,
            }
        )
        # counts: a=2, b=2, c=1, d=1, e=1; LIMIT 4 cuts through the
        # count-1 tie between c, d, e.
        _check(store, table, (
            "SELECT g, COUNT(*) as c FROM data GROUP BY g "
            "ORDER BY c DESC LIMIT 4"
        ))

    def test_ascending_order_ties(self):
        store, table = _store(
            {"g": ["a", "b", "c", "a", "b", "c"], "x": [1, 1, 1, 2, 2, 2]}
        )
        _check(store, table, (
            "SELECT g, SUM(x) as s FROM data GROUP BY g "
            "ORDER BY s ASC LIMIT 2"
        ))


class TestFallbackPaths:
    def test_descending_string_key_falls_back(self):
        store, table = _store(
            {"g": ["a", "b", "c"], "name": ["zz", "mm", "aa"]}
        )
        # MIN(name) is a string: not invertible for DESC -> general path.
        _check(store, table, (
            "SELECT g, MIN(name) as m FROM data GROUP BY g "
            "ORDER BY m DESC LIMIT 2"
        ))

    def test_null_aggregate_falls_back(self):
        store, table = _store(
            {"g": ["a", "a", "b"], "x": [None, None, 5]}
        )
        # SUM over all-NULL group 'a' is NULL: ordering needs NULL
        # placement -> general path.
        _check(store, table, (
            "SELECT g, SUM(x) as s FROM data GROUP BY g "
            "ORDER BY s DESC LIMIT 2"
        ))

    @pytest.mark.parametrize("aggregate", ["SUM(x)", "MIN(x)", "MAX(x)", "AVG(x)"])
    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_null_aggregate_at_the_cut(self, aggregate, direction):
        store, table = _store(
            {"g": ["a", "a", "b", "c", "c"], "x": [None, None, -1, 1, 2]}
        )
        # NULL sorts first ascending, last descending — not where 0 or
        # a sentinel would; LIMIT 1 / 2 cut right beside it.
        for limit in (1, 2):
            _check(store, table, (
                f"SELECT g, {aggregate} AS v FROM data GROUP BY g "
                f"ORDER BY v {direction} LIMIT {limit}"
            ))

    def test_having_falls_back(self):
        store, table = _store(
            {"g": ["a", "a", "b", "c"], "x": [1, 1, 1, 1]}
        )
        _check(store, table, (
            "SELECT g, COUNT(*) as c FROM data GROUP BY g "
            "HAVING c > 1 ORDER BY c DESC LIMIT 1"
        ))

    def test_composite_group_falls_back(self):
        store, table = _store(
            {
                "g": ["a", "a", "b", "b"],
                "x": [1, 2, 1, 2],
            }
        )
        _check(store, table, (
            "SELECT g, x, COUNT(*) as c FROM data GROUP BY g, x "
            "ORDER BY c DESC LIMIT 3"
        ))

    def test_order_by_group_expression_falls_back(self):
        store, table = _store(
            {"g": ["ab", "cd", "ef"], "x": [1, 2, 3]}
        )
        # upper(g) needs the group value -> general path.
        _check(store, table, (
            "SELECT g, COUNT(*) as c FROM data GROUP BY g "
            "ORDER BY upper(g) DESC LIMIT 2"
        ))


class TestFastPathOrdering:
    def test_order_by_group_alias_ascending(self):
        """ORDER BY the group column itself: gid order == value order."""
        store, table = _store(
            {"g": ["m", "a", "z", "k"], "x": [1, 2, 3, 4]}
        )
        _check(store, table, (
            "SELECT g, COUNT(*) as c FROM data GROUP BY g "
            "ORDER BY g ASC LIMIT 3"
        ))

    def test_order_by_group_descending(self):
        store, table = _store(
            {"g": ["m", "a", "z", "k"], "x": [1, 2, 3, 4]}
        )
        _check(store, table, (
            "SELECT g, COUNT(*) as c FROM data GROUP BY g "
            "ORDER BY g DESC LIMIT 2"
        ))

    def test_expression_over_aggregates_as_key(self):
        store, table = _store(
            {"g": ["a", "a", "b", "b", "b", "c"], "x": [10, 20, 1, 2, 3, 9]}
        )
        _check(store, table, (
            "SELECT g, SUM(x) / COUNT(*) as mean FROM data GROUP BY g "
            "ORDER BY mean DESC LIMIT 2"
        ))

    def test_limit_larger_than_groups(self):
        store, table = _store({"g": ["a", "b"], "x": [1, 2]})
        _check(store, table, (
            "SELECT g, COUNT(*) as c FROM data GROUP BY g "
            "ORDER BY c DESC LIMIT 50"
        ))

    def test_limit_one(self):
        store, table = _store(
            {"g": ["a", "b", "b"], "x": [1, 2, 3]}
        )
        _check(store, table, (
            "SELECT g, COUNT(*) as c FROM data GROUP BY g "
            "ORDER BY c DESC LIMIT 1"
        ))


# -- property: the shortcut selects what the general path selects ---------------


class _Spy:
    """Wraps ``_topk_positions``: records its verdicts, or forces the general path."""

    def __init__(self, force_general=False):
        self.force_general = force_general
        self.verdicts = []
        self._real = datastore_module._topk_positions

    def __call__(self, *args):
        positions = self._real(*args)
        self.verdicts.append(positions is not None)
        return None if self.force_general else positions

    def __enter__(self):
        self._patch = mock.patch.object(datastore_module, "_topk_positions", self)
        self._patch.start()
        return self

    def __exit__(self, *exc_info):
        self._patch.stop()


#: (select list, ORDER BY choices): int, float, string, expression and
#: distinct-count keys, ascending and descending, alone and combined.
_SHAPES = [
    ("g, COUNT(*) AS c", ["c DESC", "c", "g DESC", "c DESC, g DESC"]),
    ("g, SUM(x) AS s, COUNT(*) AS c", ["s DESC", "s", "c DESC, s DESC"]),
    ("g, AVG(y) AS a, COUNT(x) AS n", ["a DESC", "a", "n DESC, a"]),
    ("g, SUM(y) / COUNT(*) AS mean", ["mean DESC", "mean"]),
    ("g, MIN(name) AS lo, MAX(y) AS hi", ["lo DESC", "lo", "hi DESC"]),
    ("g, COUNT(DISTINCT x) AS d, MAX(x) AS hi", ["d DESC", "hi DESC, d"]),
    ("g, upper(MIN(name)) AS shout, COUNT(*) AS c", ["c DESC", "shout"]),
]
# Few distinct values everywhere, so aggregates tie at the LIMIT cut;
# x and name carry NULLs, so some groups' aggregates are NULL.
_rows = st.lists(
    st.tuples(
        st.sampled_from("abcdefg"),
        st.sampled_from([None, -1, 0, 1, 2]),
        st.sampled_from([-2.0, 0.5, 1.5]),
        st.sampled_from([None, "kiwi", "lime", "plum"]),
    ),
    min_size=1,
    max_size=30,
)


class TestShortcutEqualsGeneralPath:
    @settings(max_examples=200, deadline=None)
    @given(
        _rows,
        st.sampled_from(_SHAPES).flatmap(
            lambda shape: st.tuples(st.just(shape[0]), st.sampled_from(shape[1]))
        ),
        st.sampled_from([None, 1, 2, 3, 50]),
        st.booleans(),
    )
    def test_random_grouped_queries(self, rows, shape, limit, having):
        store, table = _store(dict(zip(("g", "x", "y", "name"), zip(*rows))))
        select, order_by = shape
        sql = f"SELECT {select} FROM data GROUP BY g"
        if having:
            sql += f" HAVING {select.split(' AS ')[-1].split(',')[0]} IS NOT NULL"
        sql += f" ORDER BY {order_by}"
        if limit is not None:
            sql += f" LIMIT {limit}"
        parsed = parse_query(sql)
        with _Spy() as spy:
            fast = store.execute(parsed).rows()
        with _Spy(force_general=True):
            general = store.execute(parsed).rows()
        assert [tuple(map(repr, row)) for row in fast] == [
            tuple(map(repr, row)) for row in general
        ], sql
        expected = execute_on_rows(parsed, table.schema, table.iter_rows())
        assert_results_equal(fast, list(expected.iter_rows()), context=sql)
        if having or limit is None:
            assert spy.verdicts == [False], sql

    @pytest.mark.parametrize(
        "order_by",
        [
            "c DESC",  # int, descending
            "a DESC",  # float, descending
            "mean DESC",  # an expression over aggregates
            "lo DESC",  # MIN over strings: ordered by rank, never decoded
            "lo",
            "shout",  # a string-valued expression, ascending
        ],
    )
    def test_keys_that_take_the_shortcut(self, order_by):
        store, table = _store(
            {
                "g": list("aabbccddee"),
                "y": [1.5, 0.5, -2.0, 1.5, 0.5, 0.5, 1.5, 1.5, -2.0, 0.5],
                "name": ["kiwi", "lime", "plum", "kiwi", "lime"] * 2,
            }
        )
        sql = (
            "SELECT g, COUNT(*) AS c, AVG(y) AS a, SUM(y) / COUNT(*) AS mean, "
            "MIN(name) AS lo, upper(MAX(name)) AS shout FROM data GROUP BY g "
            f"ORDER BY {order_by} LIMIT 3"
        )
        with _Spy() as spy:
            _check(store, table, sql)
        assert spy.verdicts == [True]

    @pytest.mark.parametrize(
        "order_by",
        [
            "neg",  # an int expression over SUM's float column
            "doubled DESC",
            "shout DESC",  # a string expression over MIN: decoded, then ranked
            "size",  # an int expression over MIN
        ],
    )
    def test_expression_keys_over_sum_and_min(self, order_by):
        store, __ = _store(
            {
                "g": list("aabbccddee"),
                "y": [1.5, 0.5, -2.0, 1.5, 0.5, 0.5, 1.5, 1.5, -2.0, 3.0],
                "name": ["kiwi", "lime", "plum", "fig", "banana"] * 2,
            }
        )
        parsed = parse_query(
            "SELECT g, SUM(y) * -1 AS neg, SUM(y) + SUM(y) AS doubled, "
            "upper(MIN(name)) AS shout, length(MIN(name)) AS size FROM data "
            f"GROUP BY g ORDER BY {order_by} LIMIT 3"
        )
        with _Spy() as spy:
            fast = store.execute(parsed).rows()
        with _Spy(force_general=True):
            general = store.execute(parsed).rows()
        assert spy.verdicts == [True]
        assert [tuple(map(repr, row)) for row in fast] == [
            tuple(map(repr, row)) for row in general
        ]
