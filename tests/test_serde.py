"""Store persistence tests: save/load round trips."""

import json
import struct
from pathlib import Path

import pytest

from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.executor import SerialExecutor
from repro.errors import StorageError
from repro.compress.registry import compress
from repro.compress.varint import decode_varint, encode_varint
from repro.storage.arena import load_arena_store, save_arena
from repro.storage.cache import LruCache
from repro.storage.serde import (
    crc32_tag,
    dictionary_meta,
    encode_field_section,
    load_store,
    options_from_dict,
    options_to_dict,
    save_store,
)
from repro.workload.generator import LogsConfig, generate_query_logs
from repro.workload.queries import paper_queries
from tests.conftest import make_store
from tests.sanitizer import assert_results_equal


def _joined_store_blob(store: DataStore) -> bytes:
    """``save_store`` as it was when it joined the whole file in memory
    before hashing and writing it (``bytearray`` body, ``bytes`` of it
    for the CRC, the blob, ``bytes`` of the blob): the file it must
    still write now that it folds the CRC over the pieces."""
    field_metas = []
    sections = []
    for name, field in store.fields.items():
        if field.virtual:
            continue
        meta = {"name": name, "dictionary": dictionary_meta(field.dictionary)}
        section = encode_field_section(field)
        if field.codec is not None:
            compressed = compress(field.codec, section)
            meta["codec"] = field.codec
            choice = dict(field.codec_choice or {})
            choice.pop("scores", None)
            choice["actual_ratio"] = (
                len(section) / len(compressed) if compressed else 0.0
            )
            meta["codec_choice"] = choice
            section = encode_varint(len(compressed)) + compressed
        field_metas.append(meta)
        sections.append(section)
    header = {
        "options": options_to_dict(store.options),
        "n_rows": store.n_rows,
        "chunk_row_counts": store.chunk_row_counts,
        "fields": field_metas,
    }
    body = bytearray()
    header_bytes = json.dumps(header).encode("utf-8")
    body += encode_varint(len(header_bytes))
    body += header_bytes
    for section in sections:
        body += section
    blob = bytearray(b"PDS2")
    blob += crc32_tag(bytes(body))
    blob += body
    return bytes(blob)


class TestSaveLoad:
    @pytest.mark.parametrize("codec", [None, "auto"])
    def test_streamed_file_equals_the_joined_one(self, log_table, tmp_path, codec):
        store = make_store(log_table, codec=codec)
        store.execute("SELECT date(timestamp) AS d, COUNT(*) FROM data GROUP BY d")
        path = tmp_path / "logs.pds"
        size = save_store(store, str(path))
        written = path.read_bytes()
        assert written == _joined_store_blob(store)
        assert size == len(written)

    def test_round_trip_results(self, log_table, tmp_path):
        store = make_store(log_table)
        path = str(tmp_path / "logs.pds")
        size = save_store(store, path)
        assert size > 0
        loaded = load_store(path)
        for sql in paper_queries() + [
            "SELECT country, COUNT(DISTINCT table_name) as cd FROM data "
            "GROUP BY country ORDER BY cd DESC LIMIT 5",
            "SELECT COUNT(*) FROM data WHERE latency > 200 AND country = 'US'",
        ]:
            assert_results_equal(
                loaded.execute(sql).rows(), store.execute(sql).rows(), context=sql
            )

    def test_round_trip_structure(self, log_table, tmp_path):
        store = make_store(log_table)
        path = str(tmp_path / "logs.pds")
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.n_rows == store.n_rows
        assert loaded.n_chunks == store.n_chunks
        assert loaded.options == store.options
        for name in ("country", "table_name", "latency"):
            original = store.field(name)
            restored = loaded.field(name)
            assert restored.dictionary.values() == original.dictionary.values()
            for a, b in zip(original.chunks, restored.chunks):
                assert a.chunk_dict.tolist() == b.chunk_dict.tolist()
                assert a.elements.as_array().tolist() == (
                    b.elements.as_array().tolist()
                )

    def test_sizes_preserved(self, log_table, tmp_path):
        store = make_store(log_table)
        path = str(tmp_path / "logs.pds")
        save_store(store, path)
        loaded = load_store(path)
        for name in ("country", "table_name", "latency"):
            assert loaded.field(name).size_bytes() == store.field(name).size_bytes()

    def test_unoptimized_store_round_trips(self, log_table, tmp_path):
        store = DataStore.from_table(
            log_table,
            DataStoreOptions(optimized_columns=False, optimized_dicts=False),
        )
        path = str(tmp_path / "basic.pds")
        save_store(store, path)
        loaded = load_store(path)
        assert_results_equal(
            loaded.execute(paper_queries()[0]).rows(),
            store.execute(paper_queries()[0]).rows(),
        )

    def test_null_values_round_trip(self, null_log_table, tmp_path):
        store = make_store(null_log_table)
        path = str(tmp_path / "nulls.pds")
        save_store(store, path)
        loaded = load_store(path)
        sql = "SELECT COUNT(*), COUNT(latency) FROM data"
        assert loaded.execute(sql).rows() == store.execute(sql).rows()

    def test_virtual_fields_not_persisted_but_rematerialize(
        self, log_table, tmp_path
    ):
        store = make_store(log_table)
        store.execute(paper_queries()[1])  # materializes date(timestamp)
        path = str(tmp_path / "logs.pds")
        save_store(store, path)
        loaded = load_store(path)
        assert all(not f.virtual for f in loaded.fields.values())
        assert_results_equal(
            loaded.execute(paper_queries()[1]).rows(),
            store.execute(paper_queries()[1]).rows(),
        )

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.pds")
        open(path, "wb").write(b"NOPE" + b"\x00" * 16)
        with pytest.raises(StorageError):
            load_store(path)

    def test_unchecksummed_pds1_file_rejected(self, log_table, tmp_path):
        # The pre-checksum layout (magic + the same body) has no writer.
        path = str(tmp_path / "s.pds")
        save_store(make_store(log_table), path)
        body = open(path, "rb").read()[8:]
        open(path, "wb").write(b"PDS1" + body)
        with pytest.raises(StorageError, match="not a datastore file"):
            load_store(path)

    def test_retired_advisor_header_keys_are_ignored(self):
        options = DataStoreOptions(codec="auto", advisor_mode="trial")
        header = options_to_dict(options)
        assert not {"advisor_sample_rows", "advisor_seed"} & set(header)
        older = dict(
            header,
            advisor_sample_rows=512,
            advisor_seed=7,
            advisor_size_weight=2.0,
            advisor_speed_weight=0.5,
        )
        assert options_from_dict(older) == options

    def test_file_smaller_than_csv(self, log_table, tmp_path):
        from repro.formats import write_csv

        store = make_store(log_table)
        pds = save_store(store, str(tmp_path / "s.pds"))
        csv = write_csv(log_table, str(tmp_path / "s.csv"))
        assert pds < csv


#: The options block a store file carries: what the data is and whether
#: chunk results are cached (nothing sets that after a load), never how
#: the saving process ran. A runtime key that enters or leaves the file
#: edits this list, and CHANGES.md gives the reason.
_PERSISTED_OPTIONS = [
    "advisor_mode",
    "cache_chunk_results",
    "codec",
    "max_chunk_rows",
    "optimized_columns",
    "optimized_dicts",
    "partition_fields",
    "reorder_rows",
    "table_name",
]

#: Files written before the runtime left the options block, whose
#: headers carry all 20 option keys: ``LogsConfig(n_rows=300, seed=43)``
#: partitioned by country into 100-row chunks, saved with
#: ``executor="parallel", workers=3, cache_policy="arc",
#: cache_capacity_bytes=256, task_max_retries=0``.
_DATA = Path(__file__).parent / "data"
_OLD_PDS2 = _DATA / "runtime_header.pds"
_OLD_ARENA = _DATA / "runtime_header.arena"


def _header_options(path: Path) -> dict:
    """The options block of a PDS2 or arena file, read from its bytes."""
    data = path.read_bytes()
    if data[:4] == b"PDS2":
        length, start = decode_varint(data, 8)
    else:
        __, length, __ = struct.unpack_from("<4sIQ", data)
        start = struct.calcsize("<4sIQ")
    return json.loads(data[start : start + length])["options"]


def _assert_default_runtime(store: DataStore) -> None:
    assert store.options.degrade
    assert isinstance(store.executor, SerialExecutor)
    assert isinstance(store._chunk_cache, LruCache)
    assert store._chunk_cache.capacity == 64 * 1024 * 1024


class TestRuntimeIsNotPersisted:
    def test_options_block_keys_are_pinned(self):
        assert sorted(options_to_dict(DataStoreOptions())) == _PERSISTED_OPTIONS

    @pytest.mark.parametrize(
        "save, load",
        [(save_store, load_store), (save_arena, load_arena_store)],
        ids=["pds2", "arena"],
    )
    def test_reopened_store_starts_with_the_default_runtime(
        self, log_table, tmp_path, save, load
    ):
        store = make_store(
            log_table,
            executor="thread",
            workers=3,
            cache_policy="arc",
            cache_capacity_bytes=256,
            cache_chunk_results=False,
            degrade=False,
        )
        path = str(tmp_path / "store")
        save(store, path)
        sql = paper_queries()[0]
        expected = store.execute(sql).rows()
        store.executor.close()
        loaded = load(path)
        _assert_default_runtime(loaded)
        assert not loaded.options.cache_chunk_results  # the file's, kept
        assert loaded.execute(sql).rows() == expected

    def test_files_with_runtime_keys_still_load_and_agree(self):
        table = generate_query_logs(LogsConfig(n_rows=300, seed=43))
        fresh = DataStore.from_table(
            table,
            DataStoreOptions(partition_fields=("country",), max_chunk_rows=100),
        )
        pds2, arena = load_store(str(_OLD_PDS2)), load_arena_store(str(_OLD_ARENA))
        for path, loaded in ((_OLD_PDS2, pds2), (_OLD_ARENA, arena)):
            header = _header_options(path)
            assert len(header) == 20
            assert header["executor"] == "parallel"
            assert header["task_max_retries"] == 0
            _assert_default_runtime(loaded)
            assert loaded.options == fresh.options
        for sql in paper_queries():
            expected = fresh.execute(sql).rows()
            assert pds2.execute(sql).rows() == expected, sql
            assert arena.execute(sql).rows() == expected, sql
        arena.arena.release()
