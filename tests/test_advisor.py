"""Encoding-advisor tests (PR 9): profiles, cascades, choices, wiring.

Covers the advisor's three layers end to end: the registry's cascade
pipelines round-trip byte-exactly over adversarial corpus families, the
column profiler extracts the LEA-style features the cost model scores,
and the choices wire through ``DataStore.from_table``, the PDS2 serde
framing, ``fsck`` (FSCK012) and the column-io v2 header (with v1 files
still loading).
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compress.advisor import (
    DEFAULT_CANDIDATES,
    AdvisorConfig,
    choose_codec,
    profile_values,
    sample_window,
)
from repro.compress.registry import (
    available_codecs,
    cascade_stages,
    get_codec,
    register_cascade,
)
from repro.compress.varint import encode_varint
from repro.core.datastore import DataStore, DataStoreOptions
from repro.errors import CompressionError, TableError
from repro.formats.columnio import ColumnIoBackend, write_columnio
from repro.storage.serde import load_store, save_store
from repro.workload.generator import LogsConfig, generate_query_logs


def _corpora() -> dict[str, bytes]:
    rng = np.random.default_rng(7)
    return {
        "empty": b"",
        "single": b"\x42",
        "runs": b"".join(bytes([s]) * 40 for s in range(8)) * 20,
        "random": rng.integers(0, 256, size=4096).astype(np.uint8).tobytes(),
        "text": b"select count(*) from logs where country = 'CH' " * 64,
        "non_ascii": "naïve 日本語 café — résumé".encode("utf-8") * 50,
        "null_heavy": b"\x00" * 1500 + b"ab" * 40 + b"\x00" * 300,
        "sorted_words": b"".join(
            b"table_%05d;" % i for i in range(300)
        ),
    }


# -- registry pipelines ------------------------------------------------------


def test_every_registered_codec_round_trips_corpora():
    for name in available_codecs():
        codec = get_codec(name)
        for family, data in _corpora().items():
            assert codec.decompress(codec.compress(data)) == data, (
                name,
                family,
            )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.binary(max_size=2048))
def test_every_registered_codec_round_trips_arbitrary_bytes(data):
    for name in available_codecs():
        codec = get_codec(name)
        assert codec.decompress(codec.compress(data)) == data, name


def test_cascade_metadata_and_errors():
    assert cascade_stages("delta+varint") == ("delta", "varint")
    assert cascade_stages("dict+rle+varint") == ("dict", "rle", "varint")
    assert cascade_stages("zippy") == ()  # atomics carry no stages
    with pytest.raises(CompressionError):
        get_codec("no-such-codec")
    with pytest.raises(CompressionError):
        register_cascade("zippy", ("rle", "zippy"))  # duplicate name
    with pytest.raises(CompressionError):
        register_cascade("rle+bogus", ("rle", "bogus"))  # unknown stage
    with pytest.raises(CompressionError):
        register_cascade("just-rle", ("rle",))  # needs >= 2 stages
    with pytest.raises(CompressionError):
        # Cascades compose atomics only — no nesting.
        register_cascade("nested", ("rle", "delta+varint"))


def test_cascade_equals_manual_stage_composition():
    data = _corpora()["text"]
    cascade = get_codec("zippy+huffman")
    zippy = get_codec("zippy")
    huffman = get_codec("huffman")
    assert cascade.compress(data) == huffman.compress(zippy.compress(data))


# -- the profiler ------------------------------------------------------------


def test_profile_sorted_ints():
    profile = profile_values(list(range(5000)), AdvisorConfig())
    assert profile.value_kind == "int"
    assert profile.sortedness == pytest.approx(1.0)
    assert profile.null_fraction == 0.0
    assert profile.int_width_bytes <= 3


def test_profile_run_and_null_structure():
    values = (["CH"] * 50 + ["DE"] * 50 + [None] * 100) * 20
    profile = profile_values(values, AdvisorConfig())
    assert profile.null_fraction == pytest.approx(0.5, abs=0.05)
    assert profile.mean_run_length > 5.0
    assert profile.cardinality_ratio < 0.05


def test_profile_prefix_sharing():
    values = [f"scan_table_{i:06d}" for i in range(4000)]
    profile = profile_values(values, AdvisorConfig())
    assert profile.value_kind == "string"
    assert profile.prefix_share > 0.5
    assert profile.avg_string_len == pytest.approx(17.0)


def test_profile_is_deterministic_under_fixed_seed():
    rng = np.random.default_rng(3)
    values = rng.integers(0, 1000, size=20_000).tolist()
    config = AdvisorConfig(sample_rows=512, seed=99)
    assert profile_values(values, config) == profile_values(values, config)


# -- the selector ------------------------------------------------------------


def test_choice_on_run_heavy_data_beats_identity():
    config = AdvisorConfig()
    choice = choose_codec(sample_window(_corpora()["runs"], config), config)
    assert choice.predicted_ratio > 4.0
    assert choice.codec != "none"
    # Scores are sorted descending and include the winner on top.
    assert choice.scores[0][0] == choice.codec
    scores = [row[2] for row in choice.scores]
    assert scores == sorted(scores, reverse=True)


def test_choice_on_incompressible_data_is_identity():
    config = AdvisorConfig()
    choice = choose_codec(
        sample_window(_corpora()["random"], config), config
    )
    assert choice.codec == "none"
    assert choice.predicted_ratio == pytest.approx(1.0, abs=0.05)


def test_choice_is_deterministic_and_empty_safe():
    config = AdvisorConfig(seed=5)
    sample = sample_window(_corpora()["text"], config)
    assert choose_codec(sample, config) == choose_codec(sample, config)
    empty = choose_codec(b"", config)
    assert empty.codec == "none"
    assert empty.sample_bytes == 0


def test_forced_candidate_list_is_honoured():
    config = AdvisorConfig()
    choice = choose_codec(
        sample_window(_corpora()["text"], config),
        config,
        candidates=("lzo",),
    )
    assert choice.codec == "lzo"
    assert [row[0] for row in choice.scores] == ["lzo"]


def test_bad_advisor_knobs_raise():
    with pytest.raises(CompressionError):
        AdvisorConfig(mode="bogus")
    with pytest.raises(CompressionError):
        AdvisorConfig(sample_rows=0)
    with pytest.raises(CompressionError):
        AdvisorConfig(sample_budget_bytes=16)
    with pytest.raises(CompressionError):
        AdvisorConfig(size_weight=-1.0)
    with pytest.raises(CompressionError):
        AdvisorConfig(candidates=())
    with pytest.raises(CompressionError):
        DataStoreOptions(codec="no-such-codec")
    with pytest.raises(CompressionError):
        DataStoreOptions(codec="auto", advisor_mode="bogus")


def test_default_candidates_are_registered():
    names = set(available_codecs())
    assert set(DEFAULT_CANDIDATES) <= names


# -- DataStore + serde wiring ------------------------------------------------


def _demo_table(rows: int = 2500):
    return generate_query_logs(LogsConfig(n_rows=rows))


def _auto_options(**overrides) -> DataStoreOptions:
    base = dict(
        partition_fields=("country", "table_name"),
        max_chunk_rows=600,
        reorder_rows=True,
        codec="auto",
    )
    base.update(overrides)
    return DataStoreOptions(**base)


def test_auto_import_records_choices_and_round_trips(tmp_path):
    table = _demo_table()
    store = DataStore.from_table(table, _auto_options())
    stats = store.import_stats
    assert stats is not None and stats.field_codecs
    for name, field in store.fields.items():
        if field.virtual:
            continue
        assert field.codec in set(available_codecs()), name
        assert stats.field_codecs[name]["codec"] == field.codec
        assert "profile" in stats.field_codecs[name]
    path = str(tmp_path / "auto.pds")
    save_store(store, path)
    loaded = load_store(path)
    for name, field in store.fields.items():
        if field.virtual:
            continue
        assert loaded.fields[name].codec == field.codec
        choice = loaded.fields[name].codec_choice
        assert choice is not None and choice["codec"] == field.codec
        assert choice["actual_ratio"] > 0
    sql = (
        "SELECT country, COUNT(*) c FROM data GROUP BY country "
        "ORDER BY c DESC LIMIT 5"
    )
    assert loaded.execute(sql).rows() == store.execute(sql).rows()


def test_auto_import_is_deterministic(tmp_path):
    table = _demo_table(1500)
    first = str(tmp_path / "a.pds")
    second = str(tmp_path / "b.pds")
    save_store(DataStore.from_table(table, _auto_options()), first)
    save_store(DataStore.from_table(table, _auto_options()), second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        assert fa.read() == fb.read()


def test_forced_codec_applies_to_every_field(tmp_path):
    store = DataStore.from_table(
        _demo_table(1200), _auto_options(codec="lzo")
    )
    for name, field in store.fields.items():
        if field.virtual:
            continue
        assert field.codec == "lzo", name
    path = str(tmp_path / "forced.pds")
    save_store(store, path)
    assert load_store(path).n_rows == store.n_rows


def test_advisor_store_passes_fsck():
    from repro.analysis.fsck import fsck_store

    store = DataStore.from_table(_demo_table(1500), _auto_options())
    report = fsck_store(store)
    assert report.ok, [str(f) for f in report.findings]


def test_fsck012_fires_on_unresolvable_codec():
    from repro.analysis.fsck import fsck_store

    store = DataStore.from_table(_demo_table(800), _auto_options())
    victim = next(
        f for f in store.fields.values() if not f.virtual
    )
    victim.codec = "retired-codec"
    report = fsck_store(store)
    assert "FSCK012" in report.codes()


_cells = st.one_of(
    st.text(alphabet="abc日本_%", max_size=8),
    st.none(),
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(_cells, min_size=1, max_size=50), st.integers(0, 2**20))
def test_property_advisor_stores_pass_fsck(strings, number):
    from repro.analysis.fsck import fsck_store
    from repro.core.table import Column, DataType, Table

    table = Table(
        [
            Column("s", strings, DataType.STRING),
            Column("n", [number] * len(strings), DataType.INT),
        ]
    )
    options = DataStoreOptions(max_chunk_rows=16, codec="auto")
    store = DataStore.from_table(table, options)
    report = fsck_store(store)
    assert report.ok, [str(f) for f in report.findings]
    again = DataStore.from_table(table, options)
    assert {n: f.codec for n, f in store.fields.items()} == {
        n: f.codec for n, f in again.fields.items()
    }


# -- column-io ---------------------------------------------------------------


def test_columnio_auto_round_trips_and_records_choices(tmp_path):
    table = _demo_table(1500)
    path = str(tmp_path / "auto.cio")
    write_columnio(table, path, codec="auto", block_rows=400)
    backend = ColumnIoBackend(path)
    for name in table.field_names:
        assert backend.read_column(name) == table.column(name).values
        assert backend.column_codec(name) in set(available_codecs())
        choice = backend._columns[name]["codec_choice"]  # the header's record
        assert choice["codec"] == backend.column_codec(name)
    with pytest.raises(TableError):
        backend.column_codec("missing")


def test_columnio_v1_header_is_rejected(tmp_path):
    from repro.core.table import DataType
    from repro.formats.columnio import _MAGIC, _encode_block

    codec = get_codec("zippy")
    block = codec.compress(
        _encode_block(["alpha", "beta", None], DataType.STRING)
    )
    header = json.dumps(
        {
            "n_rows": 3,
            "block_rows": 8192,
            "codec": "zippy",
            "columns": [
                {
                    "name": "word",
                    "dtype": DataType.STRING.value,
                    "blocks": [{"offset": 0, "size": len(block)}],
                }
            ],
        }
    ).encode("utf-8")
    path = str(tmp_path / "legacy.cio")
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(encode_varint(len(header)))
        handle.write(header)
        handle.write(block)
    with pytest.raises(TableError, match="unsupported column-io header version 1"):
        ColumnIoBackend(path)


def test_columnio_unknown_header_version_rejected(tmp_path):
    header = json.dumps(
        {"version": 7, "n_rows": 0, "block_rows": 1, "columns": []}
    ).encode("utf-8")
    from repro.formats.columnio import _MAGIC

    path = str(tmp_path / "future.cio")
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(encode_varint(len(header)))
        handle.write(header)
    with pytest.raises(TableError):
        ColumnIoBackend(path)
