"""Property test: randomly generated queries agree across backends.

Hypothesis builds arbitrary queries from the supported dialect and
checks that the partitioned column-store (with skipping, virtual-field
materialization and result caching all active) returns exactly what the
reference row executor returns on the raw table.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.table import Table
from repro.formats.rowexec import execute_on_rows
from repro.sql.parser import parse_query
from repro.workload.generator import LogsConfig, generate_query_logs
from tests.sanitizer import assert_results_equal

_TABLE = generate_query_logs(
    LogsConfig(n_rows=800, n_days=12, n_teams=5, seed=31, null_latency_fraction=0.05)
)
_STORE = DataStore.from_table(
    _TABLE,
    DataStoreOptions(
        partition_fields=("country", "table_name"),
        max_chunk_rows=60,
        reorder_rows=True,
    ),
)

_COUNTRIES = sorted(set(_TABLE.column("country").values))[:6]
_GROUPS = ["country", "user_name", "date(timestamp)", "month(timestamp)"]
_METRICS = [
    "COUNT(*)",
    "COUNT(latency)",
    "SUM(latency)",
    "MIN(latency)",
    "MAX(latency)",
    "AVG(latency)",
    "COUNT(DISTINCT table_name)",
    "APPROX_COUNT_DISTINCT(user_name, 64)",
    "MIN(table_name)",
]


def _quoted(values):
    return ", ".join(f"'{v}'" for v in values)


_predicates = st.one_of(
    st.sampled_from(
        [
            "latency > 200",
            "latency <= 150",
            "latency IS NULL",
            "latency IS NOT NULL",
            "contains(table_name, 'team0') = 1",
            "date(timestamp) >= '2011-10-05'",
            "latency BETWEEN 50 AND 400",
            "latency NOT BETWEEN 10 AND 5000",
            "table_name LIKE '%dataset0_%'",
            "user_name NOT LIKE 'user00%'",
        ]
    ),
    st.lists(st.sampled_from(_COUNTRIES), min_size=1, max_size=3).map(
        lambda cs: f"country IN ({_quoted(sorted(set(cs)))})"
    ),
    st.sampled_from(_COUNTRIES).map(lambda c: f"country = '{c}'"),
    st.sampled_from(_COUNTRIES).map(lambda c: f"NOT country = '{c}'"),
)


@st.composite
def _where_clause(draw) -> str:
    n = draw(st.integers(min_value=0, max_value=3))
    if n == 0:
        return ""
    parts = [draw(_predicates) for __ in range(n)]
    joiners = [draw(st.sampled_from([" AND ", " OR "])) for __ in range(n - 1)]
    clause = parts[0]
    for joiner, part in zip(joiners, parts[1:]):
        clause = f"({clause}{joiner}{part})"
    return f" WHERE {clause}"


@st.composite
def _group_query(draw) -> str:
    group = draw(st.sampled_from(_GROUPS + [None]))
    metric = draw(st.sampled_from(_METRICS))
    where = draw(_where_clause())
    limit = draw(st.integers(min_value=1, max_value=15))
    direction = draw(st.sampled_from(["ASC", "DESC"]))
    if group is None:
        return f"SELECT {metric} as m FROM data{where}"
    return (
        f"SELECT {group} as g, {metric} as m FROM data{where} "
        f"GROUP BY g ORDER BY m {direction} LIMIT {limit}"
    )


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_group_query())
def test_random_queries_match_reference(sql):
    parsed = parse_query(sql)
    expected = execute_on_rows(parsed, _TABLE.schema, _TABLE.iter_rows())
    got = _STORE.execute(parsed)
    assert_results_equal(
        got.rows(), list(expected.iter_rows()), context=sql
    )


@settings(max_examples=40, deadline=None)
@given(_where_clause())
def test_random_filters_count_matches(where):
    sql = f"SELECT COUNT(*) FROM data{where}"
    parsed = parse_query(sql)
    expected = execute_on_rows(parsed, _TABLE.schema, _TABLE.iter_rows())
    got = _STORE.execute(parsed)
    assert got.rows() == list(expected.iter_rows()), sql


@settings(max_examples=40, deadline=None)
@given(_where_clause())
def test_skip_soundness_accounting(where):
    """Skipped + cached + scanned always covers every row exactly."""
    sql = f"SELECT COUNT(*) FROM data{where}"
    stats = _STORE.execute(sql).stats
    assert (
        stats.rows_skipped + stats.rows_cached + stats.rows_scanned
        == stats.rows_total
    )
