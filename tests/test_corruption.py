"""Bit-flip fuzzing of the store file format.

The PDS2 format carries a whole-body CRC32, so *any* single-bit
corruption of a saved store must surface as a StorageError (or an
FSCK010 finding via fsck_file) — never as a successfully-loaded store
with silently wrong data.
"""

import random

import pytest

from repro.analysis import fsck_file
from repro.core.datastore import DataStore, DataStoreOptions
from repro.errors import StorageError
from repro.storage.serde import load_store, save_store
from repro.workload.generator import LogsConfig, generate_query_logs

_N_FLIPS = 60
_SEED = 20260806


@pytest.fixture(scope="module")
def saved_store(tmp_path_factory):
    table = generate_query_logs(
        LogsConfig(n_rows=600, n_days=15, n_teams=6, seed=21)
    )
    store = DataStore.from_table(
        table,
        DataStoreOptions(
            partition_fields=("country", "table_name"),
            max_chunk_rows=128,
            reorder_rows=True,
        ),
    )
    path = tmp_path_factory.mktemp("corruption") / "store.pds"
    save_store(store, str(path))
    return store, str(path), path.read_bytes()


def _flip_bit(blob: bytes, position: int, bit: int) -> bytes:
    corrupted = bytearray(blob)
    corrupted[position] ^= 1 << bit
    return bytes(corrupted)


def test_pristine_file_loads(saved_store):
    store, path, _ = saved_store
    loaded = load_store(path)
    assert loaded.n_rows == store.n_rows


def test_every_single_bit_flip_is_detected(saved_store, tmp_path):
    _, _, blob = saved_store
    rng = random.Random(_SEED)
    target = tmp_path / "flipped.pds"
    positions = [
        (rng.randrange(len(blob)), rng.randrange(8)) for _ in range(_N_FLIPS)
    ]
    # Always include the tricky regions: magic, checksum field, first
    # body byte and the final byte.
    positions += [(0, 0), (4, 7), (8, 0), (len(blob) - 1, 3)]
    for position, bit in positions:
        target.write_bytes(_flip_bit(blob, position, bit))
        with pytest.raises(StorageError):
            load_store(str(target))


def test_bit_flips_surface_as_fsck_findings(saved_store, tmp_path):
    _, _, blob = saved_store
    rng = random.Random(_SEED + 1)
    target = tmp_path / "flipped.pds"
    for _ in range(10):
        position, bit = rng.randrange(len(blob)), rng.randrange(8)
        target.write_bytes(_flip_bit(blob, position, bit))
        report = fsck_file(str(target))
        assert report.codes() == {"FSCK010"}, (position, bit)


def test_truncation_is_detected(saved_store, tmp_path):
    _, _, blob = saved_store
    rng = random.Random(_SEED + 2)
    target = tmp_path / "short.pds"
    lengths = [0, 1, 4, 7, 8, len(blob) - 1] + [
        rng.randrange(9, len(blob)) for _ in range(10)
    ]
    for length in lengths:
        target.write_bytes(blob[:length])
        with pytest.raises(StorageError):
            load_store(str(target))


def test_extra_trailing_bytes_detected(saved_store, tmp_path):
    # Appended garbage changes the body the checksum covers.
    _, _, blob = saved_store
    target = tmp_path / "padded.pds"
    target.write_bytes(blob + b"\x00\x00\x00\x00")
    with pytest.raises(StorageError):
        load_store(str(target))


def test_corruption_never_yields_wrong_data(saved_store, tmp_path):
    """The property the CRC buys: loads either succeed with identical
    query results or raise — flipped files never return wrong rows."""
    store, _, blob = saved_store
    sql = "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c"
    expected = store.execute(sql).rows()
    rng = random.Random(_SEED + 3)
    target = tmp_path / "maybe.pds"
    for _ in range(15):
        position, bit = rng.randrange(len(blob)), rng.randrange(8)
        target.write_bytes(_flip_bit(blob, position, bit))
        try:
            loaded = load_store(str(target))
        except StorageError:
            continue
        assert loaded.execute(sql).rows() == expected


# -- well-checksummed files whose chunk-dictionaries are wrong ----------------
#
# The CRC only says the bytes are the ones written. The one-pass field
# decoder validates a whole field at once; each of its checks gets one
# hand-built section here, and none may hand back a DataStore.


def _one_field_file(tmp_path, chunk_dicts, element_rows=None, tail=True):
    """A checksummed PDS2 file of one INT field, two rows a chunk, whose
    chunk-dictionary bytes are ``chunk_dicts`` verbatim. ``tail=False``
    ends the file right after the last dictionary."""
    import json
    import zlib

    from repro.compress.varint import encode_varint
    from repro.storage import serde
    from tests.import_oracle import build_dictionary
    from repro.storage.elements import ConstantElements

    dictionary = build_dictionary(list(range(10)), optimized=False)
    payload = serde.encode_dictionary(dictionary)
    section = encode_varint(len(payload)) + payload
    element_rows = element_rows or [2] * len(chunk_dicts)
    for index, (chunk_dict, n_rows) in enumerate(zip(chunk_dicts, element_rows)):
        section += chunk_dict
        if tail or index < len(chunk_dicts) - 1:
            section += serde.encode_elements(ConstantElements(n_rows, 0))
    header = json.dumps(
        {
            "options": serde.options_to_dict(DataStoreOptions()),
            "n_rows": 2 * len(chunk_dicts),
            "chunk_row_counts": [2] * len(chunk_dicts),
            "fields": [
                {"name": "n", "dictionary": serde.dictionary_meta(dictionary)}
            ],
        }
    ).encode("utf-8")
    body = encode_varint(len(header)) + header + section
    path = tmp_path / "built.pds"
    path.write_bytes(b"PDS2" + zlib.crc32(body).to_bytes(4, "little") + body)
    return str(path)


_GOOD = bytes([2, 5, 3])  # two entries: gids 5 and 8


def test_hand_built_file_loads_when_nothing_is_wrong(tmp_path):
    loaded = load_store(_one_field_file(tmp_path, [_GOOD, bytes([0]), _GOOD]))
    assert [c.chunk_dict.tolist() for c in loaded.field("n").chunks] == [
        [5, 8], [], [5, 8],
    ]


@pytest.mark.parametrize(
    "chunk_dicts, kwargs, message",
    [
        ([_GOOD, bytes([3, 1])], {"tail": False}, "truncated"),
        ([_GOOD, bytes([2, 1, 0x80])], {"tail": False}, "truncated"),
        ([_GOOD, bytes([2, 5, 0]), _GOOD], {}, "strictly ascending"),
        # 2**32 - 1, then one more.
        ([bytes([2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1])], {}, "global-id beyond uint32"),
        ([bytes([1, 0x80, 0x80, 0x80, 0x80, 0x10])], {}, "delta beyond uint32"),
        ([_GOOD, bytes([1] + [0x80] * 10 + [1])], {}, "longer than ten bytes"),
        ([_GOOD, _GOOD], {"element_rows": [2, 3]}, "chunk has 3 rows"),
        ([_GOOD, bytes([0xE8, 0x07, 1, 1])], {}, "truncated"),  # 1000 entries
        ([_GOOD, bytes([0xFF] * 9 + [0x01, 1])], {}, "truncated"),  # 2**64 - 1
    ],
)
def test_every_check_of_the_field_decoder_is_a_storage_error(
    tmp_path, chunk_dicts, kwargs, message
):
    path = _one_field_file(tmp_path, chunk_dicts, **kwargs)
    with pytest.raises(StorageError, match=message):
        load_store(path)
    assert fsck_file(path).codes() == {"FSCK010"}
