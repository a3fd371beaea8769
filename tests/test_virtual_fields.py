"""Virtual field (materialized expression) tests — Section 5."""

import pytest

from repro.core.table import Table
from repro.core.datastore import DataStore, DataStoreOptions
from repro.errors import BindError, UnsupportedQueryError
from repro.sql.ast_nodes import FieldRef
from repro.sql.parser import parse_query
from tests.conftest import make_store


def _expr(sql: str):
    return parse_query(f"SELECT {sql} FROM data").select[0].expr


class TestEnsureField:
    def test_plain_field_passthrough(self, log_store):
        assert log_store.ensure_field(FieldRef("country")) == "country"

    def test_unknown_field_rejected(self, log_store):
        with pytest.raises(BindError):
            log_store.ensure_field(FieldRef("missing"))

    def test_materialized_once(self, log_table):
        store = make_store(log_table)
        first = store.ensure_field(_expr("date(timestamp)"))
        second = store.ensure_field(_expr("date(timestamp)"))
        assert first == second
        assert store.fields[first].virtual

    def test_single_field_expression_values(self, log_table):
        store = make_store(log_table)
        name = store.ensure_field(_expr("year(timestamp)"))
        field = store.fields[name]
        assert field.dictionary.values() == [2011]

    def test_multi_field_expression(self):
        table = Table.from_columns({"a": [1, 2, 3, 4], "b": [10, 20, 30, 40]})
        store = DataStore.from_table(table, DataStoreOptions())
        name = store.ensure_field(_expr("a + b"))
        field = store.fields[name]
        decoded = field.value_array()[field.row_global_ids(0)].tolist()
        assert decoded == [11, 22, 33, 44]

    def test_constant_expression(self, log_store):
        name = log_store.ensure_field(_expr("1 + 1"))
        field = log_store.fields[name]
        assert field.dictionary.values() == [2]

    def test_boolean_expression_coerced_to_int(self):
        table = Table.from_columns({"a": [1, 5, 9]})
        store = DataStore.from_table(table, DataStoreOptions())
        name = store.ensure_field(_expr("a > 4"))
        field = store.fields[name]
        decoded = field.value_array()[field.row_global_ids(0)].tolist()
        assert decoded == [0, 1, 1]

    def test_null_propagates_into_virtual_field(self):
        table = Table.from_columns({"a": [1, None, 3]})
        store = DataStore.from_table(table, DataStoreOptions())
        name = store.ensure_field(_expr("a * 2"))
        field = store.fields[name]
        decoded = field.value_array()[field.row_global_ids(0)].tolist()
        assert decoded == [2, None, 6]

    def test_aggregate_cannot_materialize(self, log_store):
        with pytest.raises(UnsupportedQueryError):
            log_store.ensure_field(_expr("SUM(latency)"))

    def test_a_column_named_like_a_virtual_field_is_not_replaced(self):
        table = Table.from_columns({"__v0": [1, 2, 3], "a": [10, 20, 30]})
        store = DataStore.from_table(table, DataStoreOptions())
        store.execute("SELECT a * 2 AS y, COUNT(*) FROM data GROUP BY y")
        assert store.execute("SELECT SUM(__v0) AS x FROM data").rows() == [(6.0,)]
        assert store.ensure_field(_expr("a * 2")) == "__v1"


class TestVirtualFieldSkipping:
    def test_restriction_on_expression_skips_chunks(self, log_table):
        # Section 5: materialized date(timestamp) enables chunk
        # skipping via its chunk-dictionaries.
        store = make_store(log_table)
        dates = sorted(
            {
                __import__("repro.sql.functions", fromlist=["apply_scalar"])
                .apply_scalar("date", [ts])
                for ts in log_table.column("timestamp").values
            }
        )
        probe = dates[0]
        result = store.execute(
            "SELECT country, COUNT(*) FROM data "
            f"WHERE date(timestamp) IN ('{probe}') GROUP BY country"
        )
        # The first query materializes; re-run to exercise reuse.
        again = store.execute(
            "SELECT country, COUNT(*) FROM data "
            f"WHERE date(timestamp) IN ('{probe}') GROUP BY country"
        )
        assert again.rows() == result.rows()
        expected = sum(
            1
            for ts in log_table.column("timestamp").values
            if __import__("repro.sql.functions", fromlist=["apply_scalar"])
            .apply_scalar("date", [ts])
            == probe
        )
        assert sum(row[1] for row in result.rows()) == expected

    def test_contains_expression(self, log_table):
        store = make_store(log_table)
        result = store.execute(
            "SELECT COUNT(*) FROM data WHERE contains(table_name, 'team00') = 1"
        )
        expected = sum(
            1
            for name in log_table.column("table_name").values
            if "team00" in name
        )
        assert result.rows() == [(expected,)]


class TestCompositeField:
    def test_composite_round_trip(self, log_table):
        store = make_store(log_table)
        name = store.ensure_composite_field(["country", "user_name"])
        field = store.fields[name]
        expected_pairs = set(
            zip(
                log_table.column("country").values,
                log_table.column("user_name").values,
            )
        )
        assert set(field.dictionary.values()) == expected_pairs

    def test_composite_reused(self, log_table):
        store = make_store(log_table)
        first = store.ensure_composite_field(["country", "user_name"])
        second = store.ensure_composite_field(["country", "user_name"])
        assert first == second
