"""Virtual field (materialized expression) tests — Section 5."""

import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_a_virtual_fields_label_is_not_sql(self):
        """``__v0`` means the same in every store: nothing, unless a column
        is called that. Internal callers still reach a field by its label."""
        table = Table.from_columns({"a": [1, 2, 3], "ts": [1317427200, 1317513600, 0]})
        messages = set()
        for materialised in (None, "date(ts)", "a + 1"):
            store = DataStore.from_table(table, DataStoreOptions())
            if materialised is not None:
                store.ensure_field(_expr(materialised))
                assert store.field("__v0").virtual
            for sql in (
                "SELECT __v0, COUNT(*) AS n FROM data GROUP BY __v0",
                "SELECT a FROM data WHERE __v0 = 2",
            ):
                with pytest.raises(BindError) as error:
                    store.execute(sql)
                messages.add(str(error.value))
        assert messages == {"unknown field '__v0'; store has ['a', 'ts']"}


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


# -- a field is its spec; its label depends on materialisation order -----------

_TABLE = Table.from_columns(
    {
        "i": [None if k % 11 == 0 else k % 5 - 1 for k in range(40)],
        "f": [(k % 7) / 2 for k in range(40)],
        "s": ["abc"[: k % 4] for k in range(40)],
        "t": [1317427200 + 43_200 * (k % 9) for k in range(40)],
    }
)

#: Expressions (one member) and composites; date(t) and i * 2 are
#: virtual members of the composites that name them.
_DERIVED = (
    ("date(t)",),
    ("i * 2",),
    ("length(s)",),
    ("i + f",),
    ("s", "i"),
    ("date(t)", "s"),
    ("i * 2", "date(t)", "f"),
)


def _ensure(store: DataStore, members: tuple) -> str:
    names = [store.ensure_field(_expr(member)) for member in members]
    return names[0] if len(names) == 1 else store.ensure_composite_field(names)


def _queries(members: tuple) -> list[str]:
    """A GROUP BY over ``members``, bare and under a WHERE on the first."""
    select = ", ".join(f"{member} AS g{j}" for j, member in enumerate(members))
    group = ", ".join(f"g{j}" for j in range(len(members)))
    return [
        f"SELECT {select}, COUNT(*) AS c, SUM(i) AS x FROM data{where} GROUP BY {group}"
        for where in ("", f" WHERE {members[0]} IS NOT NULL")
    ]


def _atoms(key):
    if isinstance(key, tuple):
        for part in key:
            yield from _atoms(part)
    else:
        yield key


class TestFieldIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.sampled_from(_DERIVED), unique=True, min_size=2, max_size=5),
        st.data(),
    )
    def test_materialisation_order_changes_labels_only(self, derived, data):
        options = DataStoreOptions(partition_fields=("s", "i"), max_chunk_rows=6)
        stores = [DataStore.from_table(_TABLE, options) for __ in range(2)]
        orders = [derived, data.draw(st.permutations(derived))]
        names = [
            {members: _ensure(store, members) for members in order}
            for store, order in zip(stores, orders)
        ]
        for members in derived:
            specs = [store.field(n[members]).spec for store, n in zip(stores, names)]
            assert specs[0] == specs[1]
        for __ in range(2):  # cold, then from the chunk cache
            for members in derived:
                for query in _queries(members):
                    first, second = (store.execute(query) for store in stores)
                    assert first.rows() == second.rows(), query
        keys = [set(store._chunk_cache._entries) for store in stores]
        assert keys[0] == keys[1]
        atoms = [atom for key in keys[0] for atom in _atoms(key)]
        assert not [a for a in atoms if isinstance(a, str) and re.search(r"__v\d", a)]

    def test_racing_first_touches_build_each_field_once(self):
        """A catalog hit takes no lock; a miss materialises under one."""
        options = DataStoreOptions(partition_fields=("s", "i"), max_chunk_rows=6)
        store = DataStore.from_table(_TABLE, options)
        barrier = threading.Barrier(6)
        results: dict[int, dict] = {}

        def client(worker: int) -> None:
            barrier.wait(timeout=60)
            rotated = _DERIVED[worker:] + _DERIVED[:worker]
            results[worker] = {members: _ensure(store, members) for members in rotated}

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(6))
        assert all(names == results[0] for names in results.values())
        assert sum(field.virtual for field in store.fields.values()) == len(_DERIVED)


class TestFirstTouchWork:
    """Materialising is dictionary work: the scalar functions run per
    distinct value, and the datetime ones not at all (an exact count, not
    a timing)."""

    def test_scalar_calls_per_distinct_value_not_per_row(self, log_table, monkeypatch):
        from repro.core import expr_eval

        calls = []
        apply_scalar = expr_eval.apply_scalar
        monkeypatch.setattr(
            expr_eval,
            "apply_scalar",
            lambda name, args: calls.append(name) or apply_scalar(name, args),
        )
        store = make_store(log_table)
        store.ensure_field(_expr("date(timestamp)"))
        assert calls == []
        store.ensure_field(_expr("upper(country)"))
        assert len(calls) == len(store.field("country").dictionary) < store.n_rows
