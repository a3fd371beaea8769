"""Nibble-trie dictionary tests — Section 3 "Optimize Global-Dictionaries"."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.table import Table
from repro.errors import DictionaryError
from repro.storage.dictionary import SortedStringDictionary
from repro.storage.trie import TrieDictionary, _nibbles
from tests.import_oracle import _pack_nibbles, build_dictionary


class TestNibbles:
    def test_ascii(self):
        assert _nibbles("A") == [0x4, 0x1]  # 'A' = 0x41

    def test_empty(self):
        assert _nibbles("") == []

    def test_utf8_multibyte(self):
        # 'é' = 0xC3 0xA9 in UTF-8
        assert _nibbles("é") == [0xC, 0x3, 0xA, 0x9]

    def test_pack_odd_count_pads(self):
        assert _pack_nibbles([0xA, 0xB, 0xC]) == bytes([0xAB, 0xC0])


class TestTrieDictionary:
    def test_basic_bijection(self):
        values = ["amazon", "cheap flights", "cheap tickets", "ebay"]
        trie = TrieDictionary.from_sorted(values)
        for index, value in enumerate(values):
            assert trie.value(index) == value
            assert trie.global_id(value) == index

    def test_misses(self):
        trie = TrieDictionary.from_sorted(["abc", "abd"])
        assert trie.global_id("ab") is None  # strict prefix
        assert trie.global_id("abcd") is None  # extension
        assert trie.global_id("abe") is None
        assert trie.global_id("") is None

    def test_empty_string_member(self):
        trie = TrieDictionary.from_sorted(["", "a"])
        assert trie.global_id("") == 0
        assert trie.value(0) == ""

    def test_prefix_members(self):
        # Shorter strings sort (and rank) before their extensions.
        values = ["a", "aa", "aaa", "ab"]
        trie = TrieDictionary.from_sorted(values)
        assert [trie.value(i) for i in range(4)] == values
        assert [trie.global_id(v) for v in values] == [0, 1, 2, 3]

    def test_unsorted_rejected(self):
        with pytest.raises(DictionaryError):
            TrieDictionary.from_sorted(["b", "a"])

    def test_duplicate_rejected(self):
        with pytest.raises(DictionaryError):
            TrieDictionary.from_sorted(["a", "a"])

    def test_from_values_sorts_and_dedupes(self):
        trie = build_dictionary(["b", "a", "b", None], optimized=True)
        assert isinstance(trie, TrieDictionary) and trie.has_null
        assert trie.value(1) == "a"

    def test_unicode(self):
        values = sorted(["köln", "käse", "日本", "日本語", "a"])
        trie = TrieDictionary.from_sorted(values)
        for index, value in enumerate(values):
            assert trie.value(index) == value
            assert trie.global_id(value) == index

    def test_a_rank_is_walked_once_and_never_pickled(self, monkeypatch):
        import pickle

        trie = TrieDictionary.from_sorted(["apple", "banana", "cherry"])
        walk, walks = TrieDictionary._walk_to, []

        def counted(dictionary, index):
            walks.append(index)
            return walk(dictionary, index)

        monkeypatch.setattr(TrieDictionary, "_walk_to", counted)
        assert [trie.value(1), trie.value(1), trie.value(2)] == ["banana", "banana", "cherry"]
        assert walks == [1, 2]
        clone = pickle.loads(pickle.dumps(trie))
        assert clone._walked == {} and clone.to_bytes() == trie.to_bytes()
        assert clone.value(1) == "banana"

    def test_shared_prefixes_compress(self):
        # The table_name effect: date-suffixed names share everything
        # but the tail, and the trie stores shared prefixes once.
        values = sorted(
            f"/analytics/logs/team{t:02d}/queries/2011-{m:02d}-{d:02d}"
            for t in range(8)
            for m in range(1, 13)
            for d in range(1, 28, 3)
        )
        trie = TrieDictionary.from_sorted(values)
        plain = SortedStringDictionary(values)
        assert trie.size_bytes() < plain.size_bytes() / 2

    def test_rank_lower_bound(self):
        values = ["apple", "banana", "cherry"]
        trie = TrieDictionary.from_sorted(values)
        assert trie.gid_range("<", "banana") == (0, 1)
        assert trie.gid_range("<=", "banana") == (0, 2)
        assert trie.gid_range(">", "apple") == (1, 3)
        assert trie.gid_range(">=", "b") == (1, 3)  # absent probe
        assert trie.gid_range("<", "a") == (0, 0)
        assert trie.gid_range(">", "zzz") == (3, 3)

    def test_rank_lower_bound_prefix_probes(self):
        values = ["ab", "abc", "ac"]
        trie = TrieDictionary.from_sorted(values)
        # "ab" itself is not strictly smaller than "ab".
        assert trie.gid_range(">=", "ab") == (0, 3)
        # probe inside a skip run
        assert trie.gid_range("<", "abb") == (0, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.text(min_size=0, max_size=12), min_size=1, max_size=60))
    def test_bijection_property(self, values):
        ordered = sorted(values)
        trie = TrieDictionary.from_sorted(ordered)
        for index, value in enumerate(ordered):
            assert trie.value(index) == value
            assert trie.global_id(value) == index

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.text(max_size=10), min_size=1, max_size=40),
        st.text(max_size=10),
    )
    def test_lower_bound_matches_sorted_scan(self, values, probe):
        import bisect

        ordered = sorted(values)
        trie = TrieDictionary.from_sorted(ordered)
        expected = bisect.bisect_left(ordered, probe)
        assert trie._rank_lower_bound(probe) == expected


class TestLoneSurrogates:
    """UTF-8 cannot encode a lone surrogate, so no dictionary holds one;
    a probe for one answers as ``str`` comparison does, on either kind."""

    @pytest.mark.parametrize("optimized", [False, True])
    def test_import_is_a_dictionary_error(self, optimized):
        table = Table.from_columns({"s": ["a\ud800", "b"]})
        with pytest.raises(DictionaryError):
            DataStore.from_table(table, DataStoreOptions(optimized_dicts=optimized))

    def test_probes_agree_across_dictionary_kinds(self):
        values = ["", "a", "a\ud7ff", "a\ue000", "b", "\U00010000"] * 3
        probes = ["a\ud800", "\udfff", "a", "a\ue000"]
        wheres = [f"s {op} '{p}'" for p in probes for op in ("=", "<", ">=")]
        wheres += [f"s IN ('{p}')" for p in probes]
        # Eight values or more take the bulk global_ids path.
        listed = probes + [f"x{i}" for i in range(8)]
        wheres.append("s IN (" + ", ".join(f"'{p}'" for p in listed) + ")")
        expected = [
            [(sum(test(v, p) for v in values),)]
            for p in probes
            for test in (str.__eq__, str.__lt__, str.__ge__)
        ]
        expected += [[(values.count(p),)] for p in probes]
        expected.append([(sum(v in listed for v in values),)])
        for optimized in (False, True):
            store = DataStore.from_table(
                Table.from_columns({"s": values}),
                DataStoreOptions(optimized_dicts=optimized),
            )
            assert [
                store.execute(f"SELECT COUNT(*) c FROM data WHERE {where}").rows()
                for where in wheres
            ] == expected
