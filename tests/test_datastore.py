"""DataStore tests: import invariants, queries, caching, statistics."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.datastore import DataStore, DataStoreOptions, FieldStore
from repro.core.table import Table
from repro.errors import BindError, ExecutionError, UnsupportedQueryError
from repro.partition.codes import factorize_list
from tests.conftest import make_store


class TestImport:
    def test_round_trip_per_field(self, log_table, log_store):
        """decode(encode(column)) == reordered original column."""
        from repro.partition.composite import PartitionSpec, partition_table
        from repro.partition.reorder import reorder_table
        from tests.test_reorder import lexicographic_order

        order = lexicographic_order(log_table, ["country", "table_name"])
        reordered = reorder_table(log_table, order)
        spec = PartitionSpec(
            ("country", "table_name"), log_store.options.max_chunk_rows
        )
        chunk_rows = partition_table(reordered, spec)
        for name in log_table.field_names:
            store_field = log_store.field(name)
            decoded = []
            for chunk_index in range(log_store.n_chunks):
                gids = store_field.row_global_ids(chunk_index)
                decoded.extend(store_field.value_array()[gids].tolist())
            expected = []
            for rows in chunk_rows:
                expected.extend(
                    reordered.column(name).values[int(i)] for i in rows
                )
            assert decoded == expected

    def test_chunk_row_counts_sum(self, log_table, log_store):
        assert sum(log_store.chunk_row_counts) == log_table.n_rows

    def test_global_ids_are_ranks(self, log_store):
        dictionary = log_store.field("country").dictionary
        values = dictionary.values()
        assert values == sorted(values)

    def test_chunk_dicts_subset_of_global(self, log_store):
        field = log_store.field("table_name")
        n = len(field.dictionary)
        for chunk in field.chunks:
            if chunk.chunk_dict.size:
                assert int(chunk.chunk_dict.max()) < n

    def test_single_chunk_without_partitioning(self, log_table):
        store = DataStore.from_table(log_table, DataStoreOptions())
        assert store.n_chunks == 1

    def test_memory_smaller_with_optimizations(self, log_table):
        basic = DataStore.from_table(
            log_table,
            DataStoreOptions(optimized_columns=False, optimized_dicts=False),
        )
        optimized = make_store(log_table)
        fields = ["country", "table_name", "latency"]
        def encoded_bytes(store: DataStore) -> int:
            return sum(store.field(name).size_bytes() for name in fields)

        assert encoded_bytes(optimized) < encoded_bytes(basic)

    def test_a_nan_cell_is_null(self):
        """As sqlite stores a bound NaN: a float column may hold NaN beside
        numbers, and no comparison keeps it."""
        nan = float("nan")
        table = Table.from_columns({"latency": [nan, 1.0, 2.0, None, nan]})
        store = DataStore.from_table(table, DataStoreOptions())
        assert store.field("latency").dictionary.values() == [None, 1.0, 2.0]
        counts = "SELECT COUNT(*) AS c, COUNT(latency) AS n FROM data WHERE latency > 1"
        assert store.execute(counts).rows() == [(1, 1)]
        assert store.execute("SELECT COUNT(latency) AS n FROM data").rows() == [(2,)]

    def test_unknown_field(self, log_store):
        with pytest.raises(BindError):
            log_store.field("nope")


class TestQueries:
    def test_count_star_matches_python(self, log_table, log_store):
        from collections import Counter

        result = log_store.execute(
            "SELECT country, COUNT(*) as c FROM data GROUP BY country "
            "ORDER BY c DESC LIMIT 100"
        )
        expected = Counter(log_table.column("country").values)
        assert dict(result.rows()) == dict(expected)

    def test_where_filters(self, log_table, log_store):
        result = log_store.execute(
            "SELECT COUNT(*) FROM data WHERE country = 'US'"
        )
        expected = sum(
            1 for c in log_table.column("country").values if c == "US"
        )
        assert result.rows() == [(expected,)]

    def test_sum_latency(self, log_table, log_store):
        result = log_store.execute("SELECT SUM(latency) FROM data")
        expected = sum(log_table.column("latency").values)
        assert result.rows()[0][0] == pytest.approx(expected)

    def test_group_by_alias_of_expression(self, log_store):
        result = log_store.execute(
            "SELECT date(timestamp) as d, COUNT(*) FROM data "
            "GROUP BY d ORDER BY d ASC LIMIT 3"
        )
        dates = [row[0] for row in result.rows()]
        assert dates == sorted(dates)
        assert all(len(d) == 10 for d in dates)

    def test_multi_group_by(self, log_table, log_store):
        result = log_store.execute(
            "SELECT country, user_name, COUNT(*) as c FROM data "
            "GROUP BY country, user_name ORDER BY c DESC LIMIT 5"
        )
        from collections import Counter

        pairs = Counter(
            zip(
                log_table.column("country").values,
                log_table.column("user_name").values,
            )
        )
        top = result.rows()[0]
        assert pairs[(top[0], top[1])] == top[2]

    def test_ungrouped_aggregate_on_empty_match(self, log_store):
        result = log_store.execute(
            "SELECT COUNT(*), SUM(latency) FROM data WHERE country = 'XX'"
        )
        assert result.rows() == [(0, None)]

    def test_grouped_empty_match_returns_no_rows(self, log_store):
        result = log_store.execute(
            "SELECT country, COUNT(*) FROM data WHERE country = 'XX' "
            "GROUP BY country"
        )
        assert result.rows() == []

    def test_projection_query(self, log_table, log_store):
        result = log_store.execute(
            "SELECT table_name FROM data WHERE country = 'FI' LIMIT 5"
        )
        names = set(log_table.column("table_name").values)
        assert all(row[0] in names for row in result.rows())

    def test_having(self, log_store):
        result = log_store.execute(
            "SELECT country, COUNT(*) as c FROM data GROUP BY country "
            "HAVING c > 100 ORDER BY c DESC"
        )
        assert all(row[1] > 100 for row in result.rows())

    def test_expression_over_aggregates(self, log_store):
        result = log_store.execute(
            "SELECT SUM(latency) / COUNT(*) as mean, AVG(latency) as avg "
            "FROM data"
        )
        mean, avg = result.rows()[0]
        assert mean == pytest.approx(avg)

    def test_wrong_table_name(self, log_store):
        with pytest.raises(ExecutionError):
            log_store.execute("SELECT COUNT(*) FROM other_table")

    def test_ungrouped_field_rejected(self, log_store):
        with pytest.raises(UnsupportedQueryError):
            log_store.execute("SELECT country, COUNT(*) FROM data")

    def test_min_max_strings_via_ranks(self, log_table, log_store):
        result = log_store.execute(
            "SELECT MIN(table_name), MAX(table_name) FROM data"
        )
        values = log_table.column("table_name").values
        assert result.rows() == [(min(values), max(values))]


class TestScanStats:
    def test_full_scan_counts_all_rows(self, log_table, log_store):
        result = log_store.execute("SELECT COUNT(*) FROM data")
        stats = result.stats
        assert stats.rows_total == log_table.n_rows
        assert stats.rows_skipped == 0

    def test_selective_query_skips(self, log_store):
        result = log_store.execute(
            "SELECT COUNT(*) FROM data WHERE country = 'FI'"
        )
        assert result.stats.rows_skipped > 0
        assert result.stats.skip_fraction > 0.5

    def test_fractions_sum_to_one(self, log_store):
        result = log_store.execute(
            "SELECT COUNT(*) FROM data WHERE country IN ('US', 'DE')"
        )
        stats = result.stats
        total = stats.rows_skipped + stats.rows_cached + stats.rows_scanned
        assert total == stats.rows_total

    def test_fields_accessed_recorded(self, log_store):
        result = log_store.execute(
            "SELECT country, SUM(latency) FROM data GROUP BY country"
        )
        assert "country" in result.stats.fields_accessed
        assert "latency" in result.stats.fields_accessed

    def test_memory_counts_only_accessed_fields(self, log_store):
        narrow = log_store.execute("SELECT COUNT(*) FROM data WHERE country = 'US'")
        wide = log_store.execute(
            "SELECT table_name, COUNT(*) FROM data GROUP BY table_name LIMIT 1"
        )
        assert narrow.stats.memory_bytes < wide.stats.memory_bytes


class TestChunkResultCache:
    def test_repeat_query_served_from_cache(self, log_table):
        store = make_store(log_table)
        query = "SELECT country, COUNT(*) FROM data GROUP BY country"
        first = store.execute(query)
        second = store.execute(query)
        assert first.rows() == second.rows()
        assert first.stats.rows_cached == 0
        assert second.stats.rows_cached == second.stats.rows_total
        assert second.stats.rows_scanned == 0

    def test_cache_applies_across_different_where(self, log_table):
        # A different WHERE whose fully-active chunks were already
        # computed reuses those chunk results (Section 6 caching).
        store = make_store(log_table)
        store.execute("SELECT country, COUNT(*) FROM data GROUP BY country")
        countries = sorted(set(log_table.column("country").values))
        listed = ", ".join(f"'{c}'" for c in countries)
        restricted = store.execute(
            f"SELECT country, COUNT(*) FROM data WHERE country IN ({listed}) "
            "GROUP BY country"
        )
        # Every chunk is fully active under the all-countries filter.
        assert restricted.stats.rows_cached == restricted.stats.rows_total

    def test_cache_disabled(self, log_table):
        store = make_store(log_table, cache_chunk_results=False)
        query = "SELECT country, COUNT(*) FROM data GROUP BY country"
        store.execute(query)
        second = store.execute(query)
        assert second.stats.rows_cached == 0

    def test_partial_chunks_not_cached(self, log_table):
        store = make_store(log_table)
        query = (
            "SELECT country, COUNT(*) FROM data "
            "WHERE latency > 200 GROUP BY country"
        )
        store.execute(query)
        second = store.execute(query)
        # latency isn't a partition field: chunks are PARTIAL, no cache.
        assert second.stats.rows_cached == 0


class TestFactorizeValues:
    def test_null_first(self):
        codes, ordered = factorize_list(["b", None, "a", "b"])
        assert ordered == [None, "a", "b"]
        assert codes.tolist() == [2, 0, 1, 2]

    def test_numeric_mixed(self):
        codes, ordered = factorize_list([2, 1.5, 2])
        assert ordered == [1.5, 2]
        assert codes.tolist() == [1, 0, 1]


class TestImportStats:
    def test_phases_and_sizes_populated(self, log_table, log_store):
        stats = log_store.import_stats
        assert stats is not None
        assert stats.rows == log_table.n_rows
        assert stats.columns == log_table.n_columns
        assert stats.chunks == log_store.n_chunks
        phases = stats.phase_seconds()
        assert list(phases) == [
            "factorize", "reorder", "partition", "dictionary", "encode",
            "advisor",
        ]
        assert all(seconds >= 0 for seconds in phases.values())
        assert sum(phases.values()) <= stats.total_seconds
        assert stats.dictionary_bytes > 0
        assert stats.chunk_bytes > 0

    def test_throughput_and_dict_views(self, log_store):
        stats = log_store.import_stats
        as_dict = stats.as_dict()
        assert as_dict["rows"] == stats.rows
        assert as_dict["phase_seconds"] == stats.phase_seconds()
        assert stats.rows_per_second()["total"] > 0

    def test_unpartitioned_import_single_chunk(self, log_table):
        store = DataStore.from_table(log_table, DataStoreOptions())
        stats = store.import_stats
        assert stats.chunks == 1
        assert stats.rows == log_table.n_rows

    def test_import_publishes_counters(self, log_table):
        from repro.monitoring import counters

        runs = counters.get("datastore.import.runs")
        rows = counters.get("datastore.import.rows")
        DataStore.from_table(log_table, DataStoreOptions())
        assert counters.get("datastore.import.runs") == runs + 1
        assert counters.get("datastore.import.rows") == rows + log_table.n_rows


class TestCandidateChunkPruning:
    # AND-ing conjuncts onto a WHERE only shrinks the set of chunks it
    # cannot skip: restriction analysis alone prunes a drill-down
    # refinement to (a subset of) its parent's active chunks.

    PARENT = (
        "SELECT country, COUNT(*) as c FROM data "
        "WHERE latency > 100 GROUP BY country ORDER BY c DESC LIMIT 10;"
    )
    CHILD = (
        "SELECT country, COUNT(*) as c FROM data "
        "WHERE latency > 100 AND country IN ('FI', 'US') "
        "GROUP BY country ORDER BY c DESC LIMIT 10;"
    )

    def test_refinement_pruned_by_parent_footprint(self, log_store):
        parent = log_store.execute(self.PARENT)
        child = log_store.execute(self.CHILD)
        assert set(child.stats.active_chunks) < set(parent.stats.active_chunks)
        assert child.stats.rows_skipped > parent.stats.rows_skipped
        assert child.table.n_rows == 2

    def test_projection_path_pruned(self, log_store):
        parent = log_store.execute(self.PARENT)
        projection = log_store.execute(
            "SELECT country, latency FROM data "
            "WHERE latency > 100 AND country IN ('FI', 'US') LIMIT 40;"
        )
        assert set(projection.stats.active_chunks) < set(
            parent.stats.active_chunks
        )
        assert projection.table.n_rows == 40
        assert {row[0] for row in projection.rows()} <= {"FI", "US"}

    def test_empty_footprint_serves_empty_result(self, log_store):
        result = log_store.execute(
            self.PARENT.replace("latency > 100", "country IN ('XX')")
        )
        assert result.table.n_rows == 0
        assert result.stats.rows_scanned == 0
        assert result.stats.rows_skipped == result.stats.rows_total
        assert result.stats.chunks_skipped == result.stats.chunks_total
        assert result.stats.active_chunks == ()


class TestFieldStoreMemos:
    """Derived state stays out of copies, pickles and the byte counts."""

    _WARMING_QUERY = (
        "SELECT country, SUM(latency) AS s, APPROX_COUNT_DISTINCT(user_name, 64) AS u "
        "FROM data WHERE country IN ('US', 'DE') AND latency > 10 GROUP BY country"
    )

    def _filled(self, field) -> set[str]:
        return {
            name for name in FieldStore._MEMO_ATTRS if getattr(field, name) is not None
        }

    def test_copies_and_pickles_drop_every_memo(self, log_table):
        store = make_store(log_table)
        expected = store.execute(self._WARMING_QUERY)
        store.field("country").value_array()
        warmed = {name: self._filled(field) for name, field in store.fields.items()}
        assert set().union(*warmed.values()) == set(FieldStore._MEMO_ATTRS)
        clone = copy.deepcopy(store)
        for name, field in store.fields.items():
            assert self._filled(field) == warmed[name]  # the source keeps them
            assert self._filled(clone.field(name)) == set()
            revived = pickle.loads(pickle.dumps(field))
            assert self._filled(revived) == set()
            assert revived.size_bytes() == field.size_bytes()
        assert clone.execute(self._WARMING_QUERY).content_equal(expected)

    def test_sanitizer_ignores_exactly_the_memos(self):
        from tests.sanitizer import LAZY_MEMO_ATTRS

        assert LAZY_MEMO_ATTRS["FieldStore"] == frozenset(FieldStore._MEMO_ATTRS)

    def test_memoised_sizes_equal_a_fresh_sum(self, log_store):
        for field in log_store.fields.values():
            chunk_dicts = sum(chunk.dict_size_bytes() for chunk in field.chunks)
            elements = sum(chunk.elements_size_bytes() for chunk in field.chunks)
            for __ in range(2):  # the first call fills the memo
                assert field.dictionary_size_bytes() == field.dictionary.size_bytes()
                assert field.chunk_dicts_size_bytes() == chunk_dicts
                assert field.elements_size_bytes() == elements
                assert field.size_bytes() == (
                    field.dictionary.size_bytes() + chunk_dicts + elements
                )


class TestDictionaryArrays:
    """value_array / numeric_values / hash_units are array passes over the
    dictionary, equal to the per-value loops they replaced."""

    _COLUMNS = {
        "ints": [3, -7, 3, 2**40, 0],
        "floats": [2.5, -0.5, 1e300, 2.0, -0.0],
        "null_ints": [None, 5, 1, None, -2],
        "null_floats": [0.25, None, 7.0, 0.25, None],
        "nulls": [None] * 5,
        "strs": ["b", "", "日本", "a", "b"],
        "null_strs": ["x", None, "y", "x", None],
    }

    @pytest.fixture(scope="class")
    def store(self):
        table = Table.from_columns(self._COLUMNS)
        return DataStore.from_table(table, DataStoreOptions())

    @staticmethod
    def _loop_value_array(values: list) -> np.ndarray:
        array = np.empty(len(values), dtype=object)
        for index, value in enumerate(values):
            array[index] = value
        return array

    @staticmethod
    def _loop_numeric_values(values: list) -> np.ndarray:
        out = np.empty(len(values), dtype=np.float64)
        for index, value in enumerate(values):
            if value is None:
                out[index] = np.nan
            elif isinstance(value, (int, float)):
                out[index] = float(value)
            else:
                raise ExecutionError(f"found {type(value).__name__}")
        return out

    @pytest.mark.parametrize("name", list(_COLUMNS))
    def test_value_array_equals_the_loop(self, store, name):
        values = store.field(name).dictionary.values()
        array = FieldStore(name, store.field(name).dictionary, []).value_array()
        expected = self._loop_value_array(values)
        assert array.dtype == expected.dtype == object
        assert [(type(v), v) for v in array] == [(type(v), v) for v in expected]

    @pytest.mark.parametrize("name", [n for n in _COLUMNS if "strs" not in n])
    def test_numeric_values_equal_the_loop(self, store, name):
        field = FieldStore(name, store.field(name).dictionary, [])
        expected = self._loop_numeric_values(field.dictionary.values())
        numeric = field.numeric_values()
        assert numeric.dtype == expected.dtype == np.float64
        assert numeric.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["strs", "null_strs"])
    def test_a_non_numeric_field_still_raises(self, store, name):
        message = rf"field '{name}' is not numeric \(found str\)"
        with pytest.raises(ExecutionError, match=message):
            FieldStore(name, store.field(name).dictionary, []).numeric_values()

    @pytest.mark.parametrize("name", list(_COLUMNS))
    def test_hash_units_are_bit_identical_to_hash_to_unit(self, store, name):
        from repro.sketches.hashing import hash_to_unit

        field = FieldStore(name, store.field(name).dictionary, [])
        expected = np.array([hash_to_unit(v) for v in field.dictionary.values()])
        assert field.hash_units().dtype == np.float64
        assert field.hash_units().tobytes() == expected.tobytes()

    def test_hash_units_of_many_values_are_bit_identical(self):
        from repro.sketches.hashing import hash_to_unit, hash_units

        rng = np.random.default_rng(5)
        for values in (
            [f"v{k}" for k in range(20_000)],
            rng.integers(-(2**62), 2**62, 20_000).tolist(),
            [None, *rng.normal(0, 1e6, 20_000).round(2).tolist(), 3.0],
            [(1, "a"), None, 2, "2", 2.0, True],  # not one type: the general rule
        ):
            expected = np.array([hash_to_unit(v) for v in values])
            assert hash_units(values).tobytes() == expected.tobytes()
