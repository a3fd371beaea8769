"""Row reordering and Hamming-path tests — Section 3 / Figures 2-4."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.table import Table
from repro.errors import PartitionError
from repro.partition.codes import factorize
from repro.partition.hamming import hamming_path_length, rle_counter_total
from repro.partition.reorder import (
    nearest_neighbor_order,
    order_from_codes,
    reorder_table,
)


def lexicographic_order(table: Table, fields: list[str]) -> np.ndarray:
    """The import's reorder: rows sorted by their fields' codes in turn."""
    return order_from_codes([factorize(table.column(name))[0] for name in fields])


class TestLexicographicOrder:
    def test_sorts_by_field_order(self):
        table = Table.from_columns(
            {"a": ["y", "x", "x"], "b": [1, 2, 1]}
        )
        order = lexicographic_order(table, ["a", "b"])
        reordered = reorder_table(table, order)
        assert list(reordered.iter_rows()) == [("x", 1), ("x", 2), ("y", 1)]

    def test_stable_for_ties(self):
        table = Table.from_columns({"a": ["x", "x", "x"], "b": [3, 1, 2]})
        order = lexicographic_order(table, ["a"])
        assert order.tolist() == [0, 1, 2]

    def test_nulls_first(self):
        table = Table.from_columns({"a": ["b", None, "a"]})
        order = lexicographic_order(table, ["a"])
        assert reorder_table(table, order).column("a").values == [None, "a", "b"]

    def test_requires_fields(self):
        table = Table.from_columns({"a": [1]})
        with pytest.raises(PartitionError):
            lexicographic_order(table, [])

    def test_reorder_size_mismatch(self):
        table = Table.from_columns({"a": [1, 2]})
        with pytest.raises(PartitionError):
            reorder_table(table, np.array([0]))

    def test_reordering_improves_rle(self):
        # The Figure 2 effect: sorting shrinks run-length encodings.
        import random

        def runs(values: list[str]) -> int:
            return 1 + sum(a != b for a, b in zip(values, values[1:]))

        random.seed(6)
        values = [random.choice("abcd") for __ in range(400)]
        table = Table.from_columns({"a": values})
        order = lexicographic_order(table, ["a"])
        before = runs(values)
        after = runs(reorder_table(table, order).column("a").values)
        assert after == 4  # one run per distinct value
        assert after < before


class TestHamming:
    def test_distance(self):
        a = np.array([0, 1, 1, 0])
        b = np.array([1, 1, 0, 0])
        assert hamming_path_length(np.array([a, b])) == 2  # one step: their distance

    def test_path_length(self):
        matrix = np.array([[0, 0], [0, 1], [1, 1]])
        assert hamming_path_length(matrix) == 2
        assert hamming_path_length(matrix, np.array([0, 2, 1])) == 3

    def test_figure3_identity(self):
        """RLE counter total == n_columns + Hamming path length."""
        rng = np.random.default_rng(1)
        matrix = (rng.random((40, 6)) < 0.5).astype(np.uint8)
        assert rle_counter_total(matrix) == 6 + hamming_path_length(matrix)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=8))
    def test_figure3_identity_property(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        matrix = (rng.random((rows, cols)) < 0.4).astype(np.uint8)
        assert rle_counter_total(matrix) == cols + hamming_path_length(matrix)

    def test_reorder_never_changes_identity(self):
        rng = np.random.default_rng(2)
        matrix = (rng.random((30, 5)) < 0.5).astype(np.uint8)
        order = nearest_neighbor_order(matrix, block_rows=None)
        assert rle_counter_total(matrix, order) == 5 + hamming_path_length(
            matrix, order
        )


class TestNearestNeighbor:
    def test_is_permutation(self):
        rng = np.random.default_rng(3)
        matrix = (rng.random((50, 8)) < 0.5).astype(np.uint8)
        order = nearest_neighbor_order(matrix, block_rows=None)
        assert sorted(order.tolist()) == list(range(50))

    def test_improves_random_matrix(self):
        rng = np.random.default_rng(4)
        matrix = (rng.random((120, 10)) < 0.3).astype(np.uint8)
        order = nearest_neighbor_order(matrix, block_rows=None)
        assert hamming_path_length(matrix, order) < hamming_path_length(matrix)

    def test_blocked_mode_is_permutation(self):
        rng = np.random.default_rng(5)
        matrix = (rng.random((100, 6)) < 0.5).astype(np.uint8)
        order = nearest_neighbor_order(matrix, block_rows=32)
        assert sorted(order.tolist()) == list(range(100))

    def test_empty_matrix(self):
        assert nearest_neighbor_order(np.zeros((0, 4))).size == 0

    def test_rejects_non_2d(self):
        with pytest.raises(PartitionError):
            nearest_neighbor_order(np.zeros(5))
