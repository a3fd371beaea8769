"""Global dictionary tests: ranks, nulls, ranges, tuple dictionaries."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import DictionaryError
from repro.storage.dictionary import (
    NumericDictionary,
    SortedStringDictionary,
    SortedTupleDictionary,
)
from tests.import_oracle import build_dictionary


class TestStringDictionary:
    def test_rank_and_value(self):
        d = SortedStringDictionary(["amazon", "cheap flights", "ebay"])
        assert d.global_id("ebay") == 2
        assert d.value(0) == "amazon"
        assert d.global_id("yahoo") is None

    def test_unsorted_rejected(self):
        with pytest.raises(DictionaryError):
            SortedStringDictionary(["b", "a"])

    def test_duplicates_rejected(self):
        with pytest.raises(DictionaryError):
            SortedStringDictionary(["a", "a"])

    def test_non_string_rejected_before_order(self):
        # A non-str is named as such, though the list is unsorted too.
        with pytest.raises(DictionaryError, match="requires str"):
            SortedStringDictionary(["b", 1, "a"])

    def test_ids_are_ranks(self):
        values = ["a", "bb", "c", "dd", "e"]
        d = SortedStringDictionary(values)
        assert [d.global_id(v) for v in values] == list(range(5))
        assert d.values() == values

    def test_null_takes_id_zero(self):
        d = build_dictionary(["b", None, "a"])
        assert d.has_null
        assert d.global_id(None) == 0
        assert d.value(0) is None
        assert d.global_id("a") == 1
        assert len(d) == 3

    def test_contains(self):
        d = build_dictionary(["x", "y"])
        assert "x" in d
        assert "z" not in d
        assert None not in d

    def test_out_of_range_id(self):
        d = build_dictionary(["x"])
        with pytest.raises(DictionaryError):
            d.value(5)

    def test_gid_range_operators(self):
        d = SortedStringDictionary(["b", "d", "f"])
        assert d.gid_range("<", "d") == (0, 1)
        assert d.gid_range("<=", "d") == (0, 2)
        assert d.gid_range(">", "d") == (2, 3)
        assert d.gid_range(">=", "d") == (1, 3)
        # Absent probe value between entries:
        assert d.gid_range("<", "c") == (0, 1)
        assert d.gid_range(">=", "g") == (3, 3)

    def test_gid_range_with_null_offset(self):
        d = build_dictionary([None, "b", "d"])
        # NULL never matches a comparison: intervals start at id 1.
        assert d.gid_range(">=", "b") == (1, 3)
        assert d.gid_range("<", "d") == (1, 2)


class TestNumericDictionary:
    def test_int_ranks(self):
        d = NumericDictionary(np.array([3, 7, 10], dtype=np.int64))
        assert d.global_id(7) == 1
        assert d.global_id(8) is None
        assert d.value(2) == 10
        assert isinstance(d.value(2), int)

    def test_float_values(self):
        d = NumericDictionary(np.array([1.5, 2.5], dtype=np.float64))
        assert d.global_id(2.5) == 1
        assert isinstance(d.value(0), float)

    def test_int_literal_matches_float_entry(self):
        d = NumericDictionary(np.array([2.0, 3.5], dtype=np.float64))
        assert d.global_id(2) == 0

    def test_unsorted_rejected(self):
        with pytest.raises(DictionaryError):
            NumericDictionary(np.array([3, 1], dtype=np.int64))

    def test_optimized_packing_size(self):
        values = np.arange(1000, 1256, dtype=np.int64)  # span 255 -> 1 byte
        plain = NumericDictionary(values, optimized=False)
        packed = NumericDictionary(values, optimized=True)
        assert plain.size_bytes() == 8 * 256
        assert packed.size_bytes() == 8 + 256  # base + 1 byte each

    def test_optimized_round_trip_values(self):
        values = np.array([-50, 0, 7, 123456], dtype=np.int64)
        d = NumericDictionary(values, optimized=True)
        assert [d.value(i) for i in range(4)] == values.tolist()
        assert len(d.to_bytes()) == 8 + 4 * 4  # span needs 4 bytes

    def test_min_max(self):
        d = NumericDictionary(np.array([3, 9], dtype=np.int64))
        assert d.value(0) == 3  # sorted: the ends hold the extremes
        assert d.value(len(d) - 1) == 9

    def test_gid_range(self):
        d = NumericDictionary(np.array([10, 20, 30], dtype=np.int64))
        assert d.gid_range(">", 15) == (1, 3)
        assert d.gid_range("<=", 30) == (0, 3)

    def test_bool_is_not_numeric(self):
        d = NumericDictionary(np.array([0, 1], dtype=np.int64))
        assert d.global_id(True) is None


class TestTupleDictionary:
    def test_ranks(self):
        values = [("DE", 1), ("DE", 2), ("US", 1)]
        d = SortedTupleDictionary(values)
        assert d.global_id(("DE", 2)) == 1
        assert d.value(2) == ("US", 1)
        assert d.global_id(("FR", 1)) is None

    def test_none_inside_tuples_sorts_first(self):
        values = [(None, 5), ("a", 1)]
        d = SortedTupleDictionary(values)
        assert d.global_id((None, 5)) == 0

    def test_unsorted_rejected(self):
        with pytest.raises(DictionaryError):
            SortedTupleDictionary([("b",), ("a",)])


class TestBuildDictionary:
    def test_infers_string(self):
        d = build_dictionary(["b", "a", "b"])
        assert d.kind == "string"
        assert d.values() == ["a", "b"]

    def test_infers_numeric(self):
        d = build_dictionary([3, 1, 2, 3])
        assert d.kind == "numeric"
        assert d.values() == [1, 2, 3]

    def test_mixed_int_float(self):
        d = build_dictionary([1, 2.5])
        assert d.values() == [1.0, 2.5]

    def test_optimized_string_is_trie(self):
        d = build_dictionary(["b", "a"], optimized=True)
        assert d.kind == "trie"
        assert d.values() == ["a", "b"]

    def test_mixed_types_rejected(self):
        with pytest.raises(DictionaryError):
            build_dictionary(["a", 1])

    def test_empty_column(self):
        d = build_dictionary([])
        assert len(d) == 0

    def test_all_null_column(self):
        d = build_dictionary([None, None])
        assert len(d) == 1
        assert d.value(0) is None

    @given(st.sets(st.text(max_size=8), max_size=40))
    def test_rank_bijection_property(self, values):
        d = build_dictionary(values)
        ordered = sorted(values)
        assert d.values() == ordered
        for index, value in enumerate(ordered):
            assert d.global_id(value) == index
            assert d.value(index) == value

    @given(st.sets(st.integers(min_value=-10000, max_value=10000), max_size=40))
    def test_numeric_rank_bijection_property(self, values):
        d = build_dictionary(values)
        ordered = sorted(values)
        for index, value in enumerate(ordered):
            assert d.global_id(value) == index
            assert d.value(index) == value
