"""Sub-dictionary tests — Section 5 "Further Optimizing the Global-Dictionaries"."""

import numpy as np
import pytest

from repro.errors import DictionaryError
from repro.storage.subdict import SubDictionarySet
from tests.import_oracle import build_dictionary


def _make(n_values=200, n_chunks=10, per_chunk=30, seed=3, **kwargs):
    import random

    rng = random.Random(seed)
    values = [f"value-{i:04d}" for i in range(n_values)]
    dictionary = build_dictionary(values)
    chunk_gids = [
        np.array(sorted(rng.sample(range(n_values), per_chunk)), dtype=np.uint32)
        for __ in range(n_chunks)
    ]
    return dictionary, chunk_gids, SubDictionarySet(dictionary, chunk_gids, **kwargs)


class TestSubDictionarySet:
    def test_lookup_finds_value(self):
        dictionary, chunks, subdicts = _make()
        gid = int(chunks[2][5])
        assert subdicts.lookup_global_id(dictionary.value(gid)) == gid

    def test_lookup_missing_value(self):
        __, __, subdicts = _make()
        assert subdicts.lookup_global_id("not-a-member") is None

    def test_active_chunks_limit_loads(self):
        dictionary, chunks, subdicts = _make(group_size=2, hot_fraction=0.0)
        gid = int(chunks[0][0])
        subdicts.lookup_global_id(dictionary.value(gid), active_chunks={0})
        # Only the sub-dictionary covering chunk 0 may load.
        assert subdicts.stats.loads <= 1

    def test_inactive_groups_are_skipped(self):
        dictionary, chunks, subdicts = _make(group_size=2, hot_fraction=0.0)
        # Probe a value only in chunk 9's group while chunk 0 is active:
        only_late = set(chunks[9].tolist())
        for early in chunks[:8]:
            only_late -= set(early.tolist())
        gid = sorted(only_late)[0]
        result = subdicts.lookup_global_id(
            dictionary.value(gid), active_chunks={0}
        )
        assert result is None  # not in any active chunk's group
        assert subdicts.stats.group_skips > 0

    def test_resident_less_than_total_after_narrow_query(self):
        dictionary, chunks, subdicts = _make(group_size=2, hot_fraction=0.05)
        gid = int(chunks[3][1])
        subdicts.lookup_global_id(dictionary.value(gid), active_chunks={3})
        assert 0 < subdicts.resident_size_bytes() < subdicts.total_size_bytes()

    def test_bloom_skips_counted(self):
        __, __, subdicts = _make(group_size=2, hot_fraction=0.0)
        subdicts.lookup_global_id("definitely-absent-value")
        assert subdicts.stats.bloom_skips > 0

    def test_evict_all_resets_residency(self):
        dictionary, chunks, subdicts = _make()
        subdicts.lookup_global_id(dictionary.value(int(chunks[0][0])))
        subdicts.evict_all()
        assert subdicts.resident_size_bytes() == 0

    def test_out_of_range_gid_rejected(self):
        values = ["a", "b"]
        dictionary = build_dictionary(values)
        with pytest.raises(DictionaryError):
            SubDictionarySet(dictionary, [np.array([5], dtype=np.uint32)])

    def test_invalid_parameters(self):
        dictionary = build_dictionary(["a"])
        chunks = [np.array([0], dtype=np.uint32)]
        with pytest.raises(DictionaryError):
            SubDictionarySet(dictionary, chunks, hot_fraction=2.0)
        with pytest.raises(DictionaryError):
            SubDictionarySet(dictionary, chunks, group_size=0)

    def test_n_subdicts(self):
        __, __, subdicts = _make(n_chunks=10, group_size=3)
        assert subdicts.n_subdicts == 1 + 4  # hot + ceil(10/3)


class TestFromField:
    def test_builds_from_datastore_field(self, log_store):
        from repro.storage.subdict import SubDictionarySet

        field = log_store.field("table_name")
        subdicts = SubDictionarySet.from_field(
            field, hot_fraction=0.05, group_size=16
        )
        # Resolving one value over one active chunk loads only a
        # fraction of the dictionary.
        value = field.dictionary.value(len(field.dictionary) // 2)
        gid = subdicts.lookup_global_id(value, active_chunks={0, 1, 2})
        if gid is not None:
            assert field.dictionary.value(gid) == value
        assert subdicts.resident_size_bytes() < subdicts.total_size_bytes()

    def test_narrow_query_residency_win(self, log_store):
        from repro.storage.subdict import SubDictionarySet

        field = log_store.field("table_name")
        subdicts = SubDictionarySet.from_field(
            field, hot_fraction=0.02, group_size=8
        )
        chunk_dict = field.chunks[3].chunk_dict
        value = field.dictionary.value(int(chunk_dict[0]))
        gid = subdicts.lookup_global_id(value, active_chunks={3})
        assert gid == int(chunk_dict[0])
        # With one active chunk, most sub-dictionaries stay unloaded.
        assert subdicts.resident_size_bytes() < subdicts.total_size_bytes() / 2
