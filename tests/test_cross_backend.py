"""Cross-backend equality: all five execution paths agree on every query.

This is the repository's strongest end-to-end property: the CSV,
record-io and column-io full-scan backends, the single-node
column-store (in several configurations) and the simulated distributed
cluster all produce the same result table for the same query (up to
floating-point summation order).
"""

import re

import pytest

from repro.core.datastore import DataStore, DataStoreOptions
from repro.distributed import ClusterConfig, SimulatedCluster
from repro.errors import ExecutionError
from repro.formats import (
    ColumnIoBackend,
    CsvBackend,
    RecordIoBackend,
    write_columnio,
    write_csv,
    write_recordio,
)
from tests.sanitizer import assert_results_equal

QUERIES = [
    # The paper's three experimental queries:
    "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10",
    "SELECT date(timestamp) as date, COUNT(*), SUM(latency) FROM data GROUP BY date ORDER BY date ASC LIMIT 10",
    "SELECT table_name, COUNT(*) as c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10",
    # Section 2.4's IN-restriction shape:
    "SELECT country, COUNT(*) as c FROM data WHERE country IN ('US', 'DE') GROUP BY country ORDER BY c DESC LIMIT 10",
    # Restrictions on the many-distinct and numeric fields:
    "SELECT COUNT(*) FROM data WHERE latency > 500",
    "SELECT country, SUM(latency) as s FROM data WHERE latency <= 100 GROUP BY country ORDER BY s DESC LIMIT 5",
    "SELECT user_name, COUNT(*) as c FROM data WHERE NOT country = 'US' GROUP BY user_name ORDER BY c DESC LIMIT 7",
    # Aggregate variety:
    "SELECT country, MIN(latency), MAX(latency), AVG(latency) FROM data GROUP BY country ORDER BY country ASC LIMIT 30",
    "SELECT country, COUNT(DISTINCT table_name) as cd FROM data GROUP BY country ORDER BY cd DESC, country ASC LIMIT 8",
    "SELECT country, APPROX_COUNT_DISTINCT(table_name, 128) as ad FROM data GROUP BY country ORDER BY ad DESC, country ASC LIMIT 8",
    "SELECT MIN(table_name), MAX(table_name) FROM data",
    # Expressions, multi-group-by, HAVING:
    "SELECT SUM(latency) / COUNT(*) as mean FROM data",
    "SELECT country, month(timestamp) as m, COUNT(*) as c FROM data GROUP BY country, m ORDER BY c DESC LIMIT 12",
    "SELECT country, COUNT(*) as c FROM data GROUP BY country HAVING c > 50 ORDER BY c ASC LIMIT 5",
    "SELECT hour(timestamp) as h, AVG(latency) as a FROM data GROUP BY h ORDER BY h ASC",
    # Computed restrictions (materialized expressions):
    "SELECT COUNT(*) FROM data WHERE contains(table_name, 'team01') = 1",
    "SELECT country, COUNT(*) as c FROM data WHERE date(timestamp) >= '2011-10-15' GROUP BY country ORDER BY c DESC LIMIT 5",
    # Projections:
    "SELECT country, latency FROM data WHERE latency > 2000 ORDER BY latency DESC LIMIT 9",
    # Empty results:
    "SELECT country, COUNT(*) FROM data WHERE country = 'XX' GROUP BY country",
    "SELECT COUNT(*), SUM(latency) FROM data WHERE country = 'XX'",
]

NULL_QUERIES = [
    "SELECT COUNT(*), COUNT(latency) FROM data",
    "SELECT country, SUM(latency) as s FROM data GROUP BY country ORDER BY s DESC LIMIT 5",
    "SELECT COUNT(*) FROM data WHERE latency IS NULL",
    "SELECT COUNT(*) FROM data WHERE latency IS NOT NULL AND latency > 300",
    "SELECT country, AVG(latency) as a FROM data GROUP BY country ORDER BY a DESC LIMIT 5",
    "SELECT COUNT(*) FROM data WHERE NOT latency > 100",
]


@pytest.fixture(scope="module")
def backends(log_table, tmp_path_factory):
    base = tmp_path_factory.mktemp("formats")
    csv_path = str(base / "t.csv")
    rio_path = str(base / "t.rio")
    cio_path = str(base / "t.cio")
    write_csv(log_table, csv_path)
    write_recordio(log_table, rio_path)
    write_columnio(log_table, cio_path)
    return [
        CsvBackend(csv_path, log_table.schema),
        RecordIoBackend(rio_path, log_table.schema),
        ColumnIoBackend(cio_path),
    ]


@pytest.fixture(scope="module")
def store_variants(log_table):
    partitioned = DataStoreOptions(
        partition_fields=("country", "table_name"),
        max_chunk_rows=150,
        reorder_rows=True,
    )
    unoptimized = DataStoreOptions(
        partition_fields=("country", "table_name"),
        max_chunk_rows=150,
        optimized_columns=False,
        optimized_dicts=False,
    )
    single_chunk = DataStoreOptions()
    return [
        DataStore.from_table(log_table, partitioned),
        DataStore.from_table(log_table, unoptimized),
        DataStore.from_table(log_table, single_chunk),
    ]


@pytest.fixture(scope="module")
def cluster(log_table):
    return SimulatedCluster.build(
        log_table,
        n_shards=5,
        store_options=DataStoreOptions(
            partition_fields=("country", "table_name"),
            max_chunk_rows=150,
            reorder_rows=True,
        ),
        config=ClusterConfig(n_machines=6, seed=11),
    )


@pytest.mark.parametrize("query", QUERIES, ids=range(len(QUERIES)))
def test_all_backends_agree(query, backends, store_variants, cluster):
    reference = backends[0].execute(query).rows()
    for backend in backends[1:]:
        assert_results_equal(
            backend.execute(query).rows(), reference, context=backend.name
        )
    for index, store in enumerate(store_variants):
        assert_results_equal(
            store.execute(query).rows(), reference, context=f"store[{index}]"
        )
        # Run again: the chunk-result cache must not change results.
        assert_results_equal(
            store.execute(query).rows(), reference, context=f"store[{index}] rerun"
        )
    result, __ = cluster.execute(query)
    assert_results_equal(result.rows(), reference, context="cluster")


@pytest.mark.parametrize("query", NULL_QUERIES, ids=range(len(NULL_QUERIES)))
def test_null_heavy_agreement(query, null_log_table, tmp_path):
    csv_path = str(tmp_path / "nulls.csv")
    write_csv(null_log_table, csv_path)
    reference = CsvBackend(csv_path, null_log_table.schema).execute(query).rows()
    store = DataStore.from_table(
        null_log_table,
        DataStoreOptions(
            partition_fields=("country", "table_name"),
            max_chunk_rows=150,
            reorder_rows=True,
        ),
    )
    assert_results_equal(store.execute(query).rows(), reference, context=query)


#: Queries whose functions or values fail on the data, each with the
#: start of its typed error: the function (or field) and argument types.
#: The last fails only in the store, whose numeric dictionaries are
#: int64; the row backends compute with Python ints.
FAILING_QUERIES = [
    ("SELECT date(table_name) AS d, COUNT(*) FROM data GROUP BY d", "date(str)"),
    ("SELECT date(timestamp * 1e300) AS d FROM data", "date(float)"),
    ("SELECT abs(table_name) AS a FROM data", "abs(str)"),
    ("SELECT substr(table_name, country) AS s FROM data", "substr(str, str)"),
    ("SELECT latency * 99999999999999999999 FROM data", "field (latency"),
]


@pytest.mark.parametrize(
    "query, message", FAILING_QUERIES, ids=range(len(FAILING_QUERIES))
)
def test_failing_functions_raise_execution_error(
    query, message, backends, store_variants
):
    scalar = message != FAILING_QUERIES[-1][1]
    for executor in [*store_variants, *(backends if scalar else ())]:
        with pytest.raises(ExecutionError, match=re.escape(message)):
            executor.execute(query)
