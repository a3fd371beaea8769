"""Store persistence tests: save/load round trips."""

import json

import pytest

from repro.core.datastore import DataStore, DataStoreOptions
from repro.errors import StorageError
from repro.compress.registry import compress
from repro.compress.varint import encode_varint
from repro.storage.serde import (
    crc32_tag,
    dictionary_meta,
    encode_field_section,
    load_store,
    options_from_dict,
    options_to_dict,
    save_store,
)
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
