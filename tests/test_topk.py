"""Top-k fast-path tests: it must be invisible except for speed.

The shortcut selects the LIMIT k groups from aggregate values and
group global-ids *before* looking up group values in the dictionary,
and a projection's LIMIT k rows from its columns' global-ids before
decoding any. These tests pin the trickiest equivalences: ties,
descending string keys (not invertible -> fallback), NULL aggregate
values (fallback), HAVING (fallback), composite groups (fallback), and
for projections NULLs, 0 / 0.0 / -0.0, NaN (fallback) and shard
partials, which keep every row. The shortcut selects the candidates
before it sorts; hundreds of groups or rows, with LIMIT 0 to 10, check
that selection against the general path's sort of every row.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import datastore as datastore_module, result as result_module
from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.table import Table
from repro.distributed import ClusterConfig, SimulatedCluster
from repro.errors import UnsupportedQueryError
from repro.formats.rowexec import execute_on_rows
from repro.sql.parser import parse_query
from repro.storage.dictionary import NumericDictionary
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


#: Ties (twin aggregates), DESC keys and duplicate output names, which the
#: shortcut and the general path must reject alike.
_TWIN_SHAPES = [
    ("g, COUNT(*) AS c, COUNT(x) AS n", ["c DESC", "n DESC, c", "c, n DESC"]),
    ("g, COUNT(*) AS c, COUNT(*) AS d", ["c DESC", "d", "c DESC, d DESC"]),
    ("g, SUM(y) AS s, MAX(y) AS m", ["s DESC, m DESC", "m, g DESC"]),
    ("g, MAX(y) AS m, MIN(y) AS m", ["m DESC"]),
    ("g AS c, COUNT(*) AS c", ["c DESC", "c"]),
    ("g, g, SUM(y) AS s", ["s DESC", "s"]),
]


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


    @settings(max_examples=150, deadline=None)
    @given(
        _rows,
        st.sampled_from(_TWIN_SHAPES).flatmap(
            lambda shape: st.tuples(st.just(shape[0]), st.sampled_from(shape[1]))
        ),
        st.sampled_from([1, 2, 3, 50]),
    )
    def test_survivors_are_not_sorted_again(self, rows, shape, limit):
        """Top-k survivors reach the Table in the order the kernel picked
        them, which is the general path's; both reject twin names alike."""
        store, __ = _store(dict(zip(("g", "x", "y", "name"), zip(*rows))))
        select, order_by = shape
        sql = f"SELECT {select} FROM data GROUP BY g ORDER BY {order_by} LIMIT {limit}"
        outcomes, sorts, apply_order_limit = [], [], result_module.apply_order_limit

        def counted(rows, query):
            sorts.append(len(rows))
            return apply_order_limit(rows, query)

        with mock.patch.object(result_module, "apply_order_limit", counted):
            for force_general in (False, True):
                with _Spy(force_general=force_general) as spy:
                    try:
                        outcomes.append(_reprs(store.execute(sql).rows()))
                    except UnsupportedQueryError as error:
                        outcomes.append(str(error))
                # The shortcut's survivors skip the sorts; the general path sorts.
                assert len(sorts) == (not spy.verdicts[0] or force_general), sql
                sorts.clear()
        assert outcomes[0] == outcomes[1], sql


# -- projections: ORDER BY ... LIMIT on global-ids, then k rows decoded ---------


def _reprs(rows):
    return [tuple(map(repr, row)) for row in rows]


def _projection_store(rows, **options):
    table = Table.from_columns(dict(zip(("g", "x", "y", "name"), map(list, zip(*rows)))))
    store = DataStore.from_table(
        table, DataStoreOptions(partition_fields=("g",), max_chunk_rows=4, **options)
    )
    return store, table


#: Ints with NULL, floats mixing 0 / 0.0 / -0.0, strings DESC, several
#: keys, and none (LIMIT alone orders by the implicit tie-break).
_PROJECTION_ORDERS = [
    "", "x", "x DESC", "name DESC", "f, name DESC", "x DESC, f", "name, x DESC, f",
    "g DESC, x",
]
# Few distinct values, so rows tie at the LIMIT cut.
_projection_rows = st.lists(
    st.tuples(
        st.sampled_from("abc"),
        st.sampled_from([None, -1, 0, 1, 2]),
        st.sampled_from([None, 0, 0.0, -0.0, 0.5, -1.5]),
        st.sampled_from([None, "", "kiwi", "lime", "plum"]),
    ),
    min_size=1,
    max_size=40,
)


class TestProjectionShortcut:
    @settings(max_examples=200, deadline=None)
    @given(
        _projection_rows,
        st.sampled_from(_PROJECTION_ORDERS),
        st.sampled_from([None, 0, 1, 3, 7, 100]),
        st.sampled_from(["", " WHERE x > 0", " WHERE name IS NULL OR y < 0"]),
        st.booleans(),
    )
    def test_equals_the_rows_and_the_decode_everything_path(
        self, rows, order_by, limit, where, threads
    ):
        """Over PARTIAL chunks too, and on two threads."""
        options = {"executor": "thread", "workers": 2} if threads else {}
        store, table = _projection_store(rows, **options)
        sql = f"SELECT g, x, y AS f, name FROM data{where}"
        matching = len(store.execute(sql).rows())
        if order_by:
            sql += f" ORDER BY {order_by}"
        if limit is not None:
            sql += f" LIMIT {limit}"
        parsed = parse_query(sql)
        with _Spy() as spy:
            fast = store.execute(parsed).rows()
        with _Spy(force_general=True):
            general = store.execute(parsed).rows()
        assert _reprs(fast) == _reprs(general), sql
        expected = execute_on_rows(parsed, table.schema, table.iter_rows())
        assert_results_equal(fast, list(expected.iter_rows()), context=sql)
        assert spy.verdicts == [limit is not None and limit < matching], sql

    def test_duplicate_output_names_still_raise(self):
        store, __ = _projection_store([("a", 1, 0.5, "kiwi")] * 5)
        for force_general in (False, True):
            with _Spy(force_general=force_general), pytest.raises(
                UnsupportedQueryError, match="duplicate output column names"
            ):
                store.execute("SELECT x, name AS x FROM data ORDER BY x LIMIT 2")

    def test_a_nan_key_falls_back(self):
        """An imported NaN is NULL; a dictionary read from a file may still
        hold one, as its only value."""
        store, __ = _projection_store(
            [("a", 3, 0.5, "kiwi"), ("b", 1, None, "lime"), ("a", 2, 0.5, "plum")]
        )
        store.field("y").dictionary = NumericDictionary(
            np.array([np.nan]), has_null=True
        )
        parsed = parse_query("SELECT y, x FROM data ORDER BY y DESC, x LIMIT 2")
        with _Spy() as spy:
            fast = store.execute(parsed).rows()
        with _Spy(force_general=True):
            general = store.execute(parsed).rows()
        assert spy.verdicts == [False]
        assert _reprs(fast) == _reprs(general) == [("nan", "2"), ("nan", "3")]

    def test_shard_partials_keep_every_row(self):
        """LIMIT is applied above the shards: each hands up all its rows."""
        rows = [(g, x, 0.5, "kiwi") for g in "abc" for x in range(6)]
        store, table = _projection_store(rows)
        sql = "SELECT g, x FROM data WHERE x > 1 ORDER BY x DESC, g LIMIT 3"
        __, shard_rows = store.execute_partials(sql)
        assert sorted((row["g"], row["x"]) for row in shard_rows) == sorted(
            (g, x) for g in "abc" for x in range(2, 6)
        )
        cluster = SimulatedCluster.build(
            table,
            n_shards=3,
            store_options=DataStoreOptions(partition_fields=("g",), max_chunk_rows=4),
            config=ClusterConfig(n_machines=4, seed=3),
        )
        result, __ = cluster.execute(sql)
        assert result.rows() == [("a", 5), ("b", 5), ("c", 5)]


# -- many more groups or rows than LIMIT: the selection keeps every tie ---------


@st.composite
def _many_groups(draw):
    """Hundreds of groups of a few rows, no NULL: every count may tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_groups = draw(st.sampled_from([100, 300]))
    if draw(st.booleans()):  # two rows a group: every count ties at the cut
        groups = np.repeat(np.arange(n_groups), 2)
    else:
        groups = rng.integers(0, n_groups, size=3 * n_groups)
    return {
        "g": [f"g{group:03d}" for group in groups.tolist()],
        "x": rng.integers(-1, 3, size=groups.size).tolist(),
        "y": rng.choice([-2.0, 0.5, 1.5], size=groups.size).tolist(),
    }


#: DESC int keys (``~x``), DESC float keys (``-x``) and ascending ones.
_MANY_SHAPES = [
    ("g, COUNT(*) AS c", "c DESC"),
    ("g, SUM(y) AS s, COUNT(*) AS c", "s DESC"),
    ("g, AVG(y) AS a", "a DESC, g"),
    ("g, COUNT(*) AS c, MIN(x) AS lo", "c, lo DESC"),
]


class TestSelectionBeforeTheSort:
    @settings(max_examples=40, deadline=None)
    @given(
        _many_groups(), st.sampled_from(_MANY_SHAPES), st.sampled_from([0, 1, 3, 10])
    )
    def test_hundreds_of_groups(self, data, shape, limit):
        store, table = _store(data)
        select, order_by = shape
        sql = f"SELECT {select} FROM data GROUP BY g ORDER BY {order_by} LIMIT {limit}"
        parsed = parse_query(sql)
        with _Spy() as spy:
            fast = store.execute(parsed).rows()
        with _Spy(force_general=True):
            general = store.execute(parsed).rows()
        assert _reprs(fast) == _reprs(general), sql
        expected = execute_on_rows(parsed, table.schema, table.iter_rows())
        assert_results_equal(fast, list(expected.iter_rows()), context=sql)
        assert spy.verdicts == [True], sql

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["x", "x DESC", "f DESC", "x, f DESC", "name DESC, x"]),
        st.sampled_from([0, 1, 3, 10]),
    )
    def test_a_projection_whose_keys_repeat(self, seed, order_by, limit):
        rng = np.random.default_rng(seed)
        n = 400
        rows = zip(
            rng.choice(list("abc"), size=n).tolist(),
            rng.integers(-1, 3, size=n).tolist(),
            rng.choice([0.0, -0.0, 0.5, -1.5], size=n).tolist(),
            rng.choice(["kiwi", "lime", "plum"], size=n).tolist(),
        )
        store, table = _projection_store(list(rows))
        sql = f"SELECT g, x, y AS f, name FROM data ORDER BY {order_by} LIMIT {limit}"
        parsed = parse_query(sql)
        with _Spy() as spy:
            fast = store.execute(parsed).rows()
        with _Spy(force_general=True):
            general = store.execute(parsed).rows()
        assert _reprs(fast) == _reprs(general), sql
        expected = execute_on_rows(parsed, table.schema, table.iter_rows())
        assert_results_equal(fast, list(expected.iter_rows()), context=sql)
        assert spy.verdicts == [True], sql
