"""Composite range partitioning tests — Section 2.2."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.table import Table
from repro.errors import PartitionError
from repro.partition import codes as codes_module
from repro.partition.codes import distinct_tuples
from repro.partition.composite import PartitionSpec, partition_table
from tests.import_oracle import reference_partition_table


def _table(countries, names=None, extra=None):
    data = {"country": countries}
    if names is not None:
        data["name"] = names
    if extra is not None:
        data["extra"] = extra
    return Table.from_columns(data)


class TestPartitionSpec:
    def test_requires_fields(self):
        with pytest.raises(PartitionError):
            PartitionSpec((), 10)

    def test_requires_positive_threshold(self):
        with pytest.raises(PartitionError):
            PartitionSpec(("a",), 0)


class TestPartitionTable:
    def test_small_table_single_chunk(self):
        table = _table(["a", "b", "c"])
        chunks = partition_table(table, PartitionSpec(("country",), 10))
        assert len(chunks) == 1
        assert chunks[0].tolist() == [0, 1, 2]

    def test_rows_partition_exactly(self):
        import random

        random.seed(1)
        table = _table([random.choice("abcdef") for __ in range(500)])
        chunks = partition_table(table, PartitionSpec(("country",), 100))
        combined = np.sort(np.concatenate(chunks))
        assert combined.tolist() == list(range(500))

    def test_chunks_respect_threshold_when_splittable(self):
        import random

        random.seed(2)
        table = _table(
            [random.choice("ab") for __ in range(400)],
            [f"n{random.randrange(50)}" for __ in range(400)],
        )
        chunks = partition_table(table, PartitionSpec(("country", "name"), 60))
        assert max(chunk.size for chunk in chunks) <= 60

    def test_range_split_is_a_value_range(self):
        # Every chunk must cover a contiguous value range on the first
        # field that distinguishes its rows.
        import random

        random.seed(3)
        countries = [random.choice("abcdef") for __ in range(600)]
        table = _table(countries)
        chunks = partition_table(table, PartitionSpec(("country",), 150))
        ranges = []
        for rows in chunks:
            values = sorted({countries[i] for i in rows})
            ranges.append((values[0], values[-1]))
        # Ranges must not interleave: sort by low end and check highs.
        ranges.sort()
        for (__, high), (low, __) in zip(ranges, ranges[1:]):
            assert high <= low

    def test_unsplittable_chunk_exceeds_threshold(self):
        table = _table(["same"] * 100)
        chunks = partition_table(table, PartitionSpec(("country",), 10))
        assert len(chunks) == 1
        assert chunks[0].size == 100

    def test_second_field_used_when_first_constant(self):
        table = _table(["same"] * 100, [f"n{i % 10}" for i in range(100)])
        chunks = partition_table(table, PartitionSpec(("country", "name"), 30))
        assert len(chunks) > 1
        assert max(chunk.size for chunk in chunks) <= 30

    def test_unknown_field_rejected(self):
        table = _table(["a"])
        with pytest.raises(PartitionError):
            partition_table(table, PartitionSpec(("missing",), 10))

    @pytest.mark.parametrize("n_codes", [2, 4])
    def test_field_codes_of_the_wrong_length_rejected(self, n_codes):
        table = _table(["a", "b", "c"])
        spec = PartitionSpec(("country",), 1)
        codes = np.arange(n_codes, dtype=np.uint8) % 3
        with pytest.raises(
            PartitionError, match=f"'country': {n_codes} codes for 3 rows"
        ):
            partition_table(table, spec, field_codes=[codes])
        with pytest.raises(PartitionError, match="negative code"):
            partition_table(table, spec, field_codes=[np.array([0, -1, 1])])

    def test_heaviest_first_balances(self):
        # Skewed data: the heaviest-first strategy still yields chunks
        # within ~2x of each other when splits are available.
        import random

        random.seed(4)
        values = [random.choice("aaaabbc") for __ in range(1000)]
        names = [f"n{random.randrange(100)}" for __ in range(1000)]
        table = _table(values, names)
        chunks = partition_table(table, PartitionSpec(("country", "name"), 200))
        sizes = sorted(chunk.size for chunk in chunks)
        assert sizes[-1] <= 200

    def test_nulls_sort_first_and_split_cleanly(self):
        table = _table([None] * 50 + ["a"] * 50 + ["b"] * 50)
        chunks = partition_table(table, PartitionSpec(("country",), 60))
        combined = np.sort(np.concatenate(chunks))
        assert combined.size == 150

    def test_deterministic(self):
        import random

        random.seed(5)
        countries = [random.choice("abcd") for __ in range(300)]
        table = _table(countries)
        spec = PartitionSpec(("country",), 80)
        first = [c.tolist() for c in partition_table(table, spec)]
        second = [c.tolist() for c in partition_table(table, spec)]
        assert first == second

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            min_size=1,
            max_size=300,
        ),
        st.integers(min_value=1, max_value=100),
    )
    def test_partition_preserves_rows_property(self, countries, threshold):
        table = _table(countries)
        chunks = partition_table(table, PartitionSpec(("country",), threshold))
        combined = np.sort(np.concatenate(chunks))
        assert combined.tolist() == list(range(len(countries)))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 40), st.integers(0, 2)
            ),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=60),
        st.booleans(),
    )
    def test_histogram_split_matches_the_row_wise_oracle(
        self, rows, n_fields, threshold, in_order
    ):
        """Same chunks, same order, same dtype as splitting row arrays."""
        if in_order:
            rows = sorted(rows)
        table = Table.from_columns(
            {f"f{j}": [row[j] for row in rows] for j in range(n_fields)}
        )
        spec = PartitionSpec(tuple(table.field_names), threshold)
        # Codes need not be tight: any non-negative integers partition.
        field_codes = [
            np.array([3 * row[j] + 1 for row in rows], dtype=dtype)
            for j, dtype in zip(range(n_fields), (np.uint8, np.int64, np.uint16))
        ]
        chunks = partition_table(table, spec, field_codes=field_codes)
        expected = reference_partition_table(table, spec, field_codes)
        assert [c.tolist() for c in chunks] == [c.tolist() for c in expected]
        assert {c.dtype for c in chunks} == {np.dtype(np.int64)}


class TestDistinctTuples:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 3).flatmap(
            lambda n_fields: st.lists(
                st.tuples(*[st.integers(0, 6)] * n_fields), max_size=30
            ).map(lambda rows: (n_fields, rows))
        ),
        st.sampled_from([0, None, 10**9]),
    )
    def test_both_algorithms_number_tuples_as_np_unique_does(self, shape, dense):
        n_fields, rows = shape
        matrix = np.array(rows, dtype=np.uint8).reshape(len(rows), n_fields)
        field_codes = [matrix[:, j] for j in range(n_fields)]
        with pytest.MonkeyPatch.context() as patch:
            if dense is not None:
                patch.setattr(codes_module, "_DENSE_KEYS_PER_ROW", dense)
            numbers, counts, tuples = distinct_tuples(field_codes, len(rows))
        if not n_fields:  # one tuple, the empty one, even over no rows
            assert numbers.tolist() == [0] * len(rows)
            assert counts.tolist() == [len(rows)] and tuples == []
            return
        unique, inverse, expected_counts = np.unique(
            matrix, axis=0, return_inverse=True, return_counts=True
        )
        assert numbers.tolist() == inverse.reshape(-1).tolist()
        assert counts.tolist() == expected_counts.tolist()
        assert np.stack(tuples, axis=1).reshape(-1, n_fields).tolist() == unique.tolist()
