"""Property tests: the vectorized import pipeline is byte-identical.

The vectorized kernels (typed factorize, bulk trie build, dtype-inferred
numeric dictionaries, the histogram partitioner, both chunk encodes)
must serialize to exactly the same PDS2 stream as
``build_reference_store`` — the frozen replica of the pre-vectorization
scalar pipeline, in ``tests/import_oracle.py`` — whether a table's
columns are list-backed or dictionary-coded. Hypothesis drives the
corpora that historically break encoders: NULL-heavy, duplicate-heavy,
empty, single-value and non-ASCII columns, mixed int/float, NUL bytes
inside strings.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compress.varint import decode_varint
from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.table import Column, DataType, Table
from repro.errors import CompressionError, DictionaryError
from repro.partition import codes as codes_module
from repro.partition.codes import (
    _factorize_scalar_list,
    code_dtype,
    factorize,
    factorize_list,
)
from repro.storage import chunk as chunk_module
from repro.storage.serde import encode_chunk_dict, encode_chunk_dicts
from repro.storage.dictionary import build_dictionary
from repro.storage.subdict import SubDictionarySet
from repro.storage.trie import TrieDictionary, _trie_bytes
from repro.workload.generator import LogsConfig, generate_query_logs
from repro.analysis.fsck import fsck_store
from tests.import_oracle import (
    build_reference_store,
    reference_trie_bytes,
    serialized_store_bytes,
)

# Alphabet mixes ASCII, a NUL byte, multi-byte UTF-8 and an astral
# plane character so trie nibble packing sees every phase.
_TEXT = st.text(alphabet="ab0\x00日本\U0001f600 _%'", max_size=8)

_strings = st.one_of(_TEXT, st.none())
_ints = st.one_of(
    st.integers(min_value=-(2**61), max_value=2**61), st.none()
)
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
)
_mixed_numbers = st.one_of(_ints, _floats)


def _duplicate_heavy(element_strategy):
    """Columns drawn from a tiny pool, so most rows repeat a value."""

    @st.composite
    def inner(draw):
        pool = draw(
            st.lists(element_strategy, min_size=1, max_size=4)
        )
        n = draw(st.integers(min_value=1, max_value=50))
        return [draw(st.sampled_from(pool)) for __ in range(n)]

    return inner()


@st.composite
def _import_tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=50))

    def column(strategy):
        return draw(
            st.lists(strategy, min_size=n_rows, max_size=n_rows)
        )

    # "single-value" corpus: constant column, NULL or not.
    constant = draw(st.one_of(_TEXT, st.none()))
    return Table(
        [
            Column("s", column(_strings), DataType.STRING),
            Column("n", column(_ints), DataType.INT),
            Column("f", column(_mixed_numbers), DataType.FLOAT),
            Column("c", [constant] * n_rows, DataType.STRING),
        ]
    )


#: Both exact algorithms of a data-shape choice: never, as shipped, always.
_EITHER_ALGORITHM = st.sampled_from([0, None, 10**9])


def _forcing(module, constant, value):
    """``module.constant`` set to ``value`` (None: left as shipped)."""
    if value is None:
        value = getattr(module, constant)
    return mock.patch.object(module, constant, value)


def _assert_bytes_match_reference(table, options, scatter=None, dense=None):
    with _forcing(chunk_module, "_SCATTER_DICT_ENTRIES_PER_ROW", scatter):
        with _forcing(codes_module, "_DENSE_KEYS_PER_ROW", dense):
            store = DataStore.from_table(table, options)
    reference = build_reference_store(table, options)
    assert store.chunk_row_counts == reference.chunk_row_counts
    assert serialized_store_bytes(store) == serialized_store_bytes(reference)
    assert fsck_store(store).ok
    return store


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    _import_tables(),
    st.booleans(),
    st.sampled_from(
        [
            None,
            ("s",),
            ("s", "n"),
            ("n",),  # near-unique, with NULLs
            ("c", "s"),  # the first field never has two values
            ("s", "n", "f"),
            ("c",),  # every row in one cell: the oversized chunk is kept
        ]
    ),
    st.booleans(),
    st.sampled_from([1, 2, 7, 1000]),
    _EITHER_ALGORITHM,
    _EITHER_ALGORITHM,
)
def test_store_bytes_match_reference(
    table, optimized, partition_fields, reorder, max_chunk_rows, scatter, dense
):
    options = DataStoreOptions(
        partition_fields=partition_fields,
        max_chunk_rows=max_chunk_rows,
        reorder_rows=reorder and partition_fields is not None,
        optimized_columns=optimized,
        optimized_dicts=optimized,
    )
    store = _assert_bytes_match_reference(table, options, scatter, dense)
    assert store.import_stats is not None
    assert store.import_stats.rows == table.n_rows


@pytest.mark.parametrize("scatter", [0, 10**9])
@pytest.mark.parametrize("dense", [0, 10**9])
@pytest.mark.parametrize("reorder", [False, True])
@pytest.mark.parametrize(
    "keys, other, max_chunk_rows",
    [
        ([], [], 1),  # zero rows
        (["a"], [5], 1),  # one row
        # Ties in the balance cut: |1 - 2| == |3 - 2|, the first cut wins;
        # then again inside the right half, on the second field.
        (["b", "a", "c", "b"], [2, 1, 1, 3], 1),
        (["a", "b", "b", "c"] * 3, [1, 2, 2, 3] * 3, 3),
        # Equal sizes pop in push order (the FIFO tick).
        (["a", "b", "c", "d"] * 2, [7] * 8, 2),
        # One cell holds every row; a second field splits it, a third cannot.
        (["a"] * 9, [1, 1, 1, 2, 2, 2, 2, 2, 2], 2),
        ([None, "a", None, "b", None], [None, 1, None, 2, 3], 2),
    ],
)
def test_partition_edge_cases_match_reference(
    keys, other, max_chunk_rows, reorder, dense, scatter
):
    table = Table(
        [
            Column("k", keys, DataType.STRING),
            Column("v", other, DataType.INT),
            Column("w", list(range(len(keys))), DataType.INT),
        ]
    )
    options = DataStoreOptions(
        partition_fields=("k", "v"),
        max_chunk_rows=max_chunk_rows,
        reorder_rows=reorder,
    )
    store = _assert_bytes_match_reference(table, options, scatter, dense)
    assert sum(store.chunk_row_counts) == len(keys)


@pytest.mark.parametrize(
    "values, first",
    [
        ([0, 0.0], 0.0),
        ([2, None, 2.0], 2.0),
        ([0.0, -0.0], -0.0),
        # In row order the ints stay apart; once the float leads, the
        # float64-image dedup merges all three into one value.
        ([2**61, 2**61 + 1, float(2**61)], float(2**61)),
    ],
)
def test_reorder_keeps_the_cell_first_seen_in_the_new_order(values, first):
    """Of cells that compare equal yet differ, the first after the reorder wins."""
    table = Table(
        [
            Column("k", ["z"] * (len(values) - 1) + ["a"], DataType.STRING),
            Column("v", values, DataType.FLOAT),
        ]
    )
    options = DataStoreOptions(partition_fields=("k",), reorder_rows=True)
    store = _assert_bytes_match_reference(table, options)
    kept = store.field("v").dictionary.values()
    assert [value for value in kept if value is not None] == [first]
    assert type(kept[-1]) is type(first)
    assert math.copysign(1.0, kept[-1]) == math.copysign(1.0, first)


def _coded_tight(table: Table) -> Table:
    """Every column rebuilt through ``from_codes``, no distinct value unused."""
    return Table(
        [
            Column.from_codes(
                name,
                *factorize_list(table.column(name).values),
                table.column(name).dtype,
            )
            for name in table.field_names
        ]
    )


def _coded_loose(table: Table, extra: Table) -> Table:
    """The rows of ``table`` taken, back to front, out of a larger coded table.

    The larger table holds ``extra``'s rows first, so the distinct values
    only they use stay behind, unused, in every column ``take`` returns.
    """
    padded = Table(
        [
            Column(
                name,
                extra.column(name).values + table.column(name).values[::-1],
                table.column(name).dtype,
            )
            for name in table.field_names
        ]
    )
    last = padded.n_rows - 1
    return _coded_tight(padded).take(np.arange(last, last - table.n_rows, -1))


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    _import_tables(),
    _import_tables(),
    st.booleans(),
    st.sampled_from([None, ("s",), ("s", "n")]),
    st.booleans(),
    st.sampled_from([None, "auto"]),
)
def test_coded_import_matches_list_import(
    table, extra, optimized, partition_fields, reorder, codec
):
    options = DataStoreOptions(
        partition_fields=partition_fields,
        max_chunk_rows=7,
        reorder_rows=reorder and partition_fields is not None,
        optimized_columns=optimized,
        optimized_dicts=optimized,
        codec=codec,
    )
    for coded in (_coded_tight(table), _coded_loose(table, extra)):
        for name in ("s", "n", "c"):  # "f" may hold float64-equal stand-ins
            assert coded.column(name).values == table.column(name).values
        # The same cells, one Python object each: the list-backed twin.
        listed = Table(
            [
                Column(name, coded.column(name).values, coded.column(name).dtype)
                for name in coded.field_names
            ]
        )
        for name in coded.field_names:
            column = coded.column(name)
            codes, ordered = factorize(column)
            ref_codes, ref_ordered = factorize_list(column.values)
            np.testing.assert_array_equal(codes, ref_codes)
            assert codes.dtype == code_dtype(len(ordered))
            assert ordered == ref_ordered
            assert [type(v) for v in ordered] == [type(v) for v in ref_ordered]
        coded_bytes = serialized_store_bytes(DataStore.from_table(coded, options))
        assert coded_bytes == serialized_store_bytes(
            DataStore.from_table(listed, options)
        )
        if codec is None:
            assert coded_bytes == serialized_store_bytes(
                build_reference_store(listed, options)
            )


def test_factorize_keeps_a_typed_distinct_array_typed():
    column = Column.from_codes(
        "n", np.array([3, 1, 3], dtype=np.int32), np.array([5, 7, 8, 9]), DataType.INT
    )
    codes, ordered = factorize(column)
    assert codes.tolist() == [1, 0, 1] and codes.dtype == np.uint8
    assert isinstance(ordered, np.ndarray) and ordered.tolist() == [7, 9]
    assert factorize_list(column.values)[1] == [7, 9]
    table = Table([column])
    assert serialized_store_bytes(
        DataStore.from_table(table)
    ) == serialized_store_bytes(build_reference_store(table))


def test_factorize_returns_tight_narrow_codes_as_they_are():
    codes = np.array([2, 0, 1, 2], dtype=np.uint8)
    column = Column.from_codes("s", codes, ["a", "b", "c"], DataType.STRING)
    assert factorize(column)[0] is codes  # neither remap nor narrowing: no copy
    wide = Column.from_codes("s", codes.astype(np.int64), ["a", "b", "c"], DataType.STRING)
    assert factorize(wide)[0].dtype == np.uint8
    listed = Column("n", list(range(300)), DataType.INT)
    assert factorize(listed)[0].dtype == np.uint16
    assert code_dtype(0) == code_dtype(256) == np.uint8
    assert code_dtype(257) == code_dtype(2**16) == np.uint16
    assert code_dtype(2**16 + 1) == np.uint32


def test_import_reorders_on_the_narrow_codes(monkeypatch):
    from repro.core import datastore as datastore_module

    seen = []

    def spy(code_arrays):
        seen.extend(codes.dtype for codes in code_arrays)
        return order_from_codes(code_arrays)

    order_from_codes = datastore_module.order_from_codes
    monkeypatch.setattr(datastore_module, "order_from_codes", spy)
    table = generate_query_logs(LogsConfig(n_rows=3_000, seed=4))
    DataStore.from_table(
        table,
        DataStoreOptions(
            partition_fields=("country", "table_name"),
            max_chunk_rows=200,
            reorder_rows=True,
        ),
    )
    assert seen == [np.uint8, np.uint16]


def test_factorize_of_float64_colliding_distincts_matches_the_list_kernel():
    """Exactly-ascending values whose float64 images collide are one value."""
    column = Column.from_codes(
        "f", [1, 2, 0, 1], [0.5, 2**61, 2**61 + 1], DataType.FLOAT
    )
    codes, ordered = factorize(column)
    ref_codes, ref_ordered = factorize_list(column.values)
    assert codes.tolist() == ref_codes.tolist() == [1, 1, 0, 1]
    assert ordered == ref_ordered == [0.5, 2**61]
    assert fsck_store(DataStore.from_table(Table([column]))).ok


def test_import_leaves_generated_columns_unmaterialised():
    """No Python object per cell: a deterministic stand-in for the clock."""
    table = generate_query_logs(
        LogsConfig(n_rows=3_000, null_latency_fraction=0.1, seed=4)
    )
    picked = table.take(np.arange(0, 3_000, 2))
    options = DataStoreOptions(
        partition_fields=("country", "table_name"),
        max_chunk_rows=200,
        reorder_rows=True,
        codec="auto",
    )
    store = DataStore.from_table(picked, options)
    assert store.n_rows == 1_500
    for source in (table, picked):
        for name in source.field_names:
            assert source.column(name)._values is None


_chunk_dicts = st.lists(
    st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.sampled_from([0, 127, 128, 2**14, 2**32 - 1]),
        ),
        max_size=12,
        unique=True,
    ).map(lambda gids: np.array(sorted(gids), dtype=np.uint32)),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(_chunk_dicts)
def test_whole_field_chunk_dict_encoder_matches_per_chunk(chunk_dicts):
    assert encode_chunk_dicts(chunk_dicts) == [
        encode_chunk_dict(chunk_dict) for chunk_dict in chunk_dicts
    ]


def test_whole_field_chunk_dict_encoder_rejects_descending():
    good = np.array([1, 2], dtype=np.uint32)
    with pytest.raises(CompressionError):
        encode_chunk_dicts([good, np.array([5, 3], dtype=np.uint32), good])


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.lists(_strings, max_size=60),
        st.lists(_ints, max_size=60),
        st.lists(_mixed_numbers, max_size=60),
        _duplicate_heavy(_strings),
        _duplicate_heavy(_mixed_numbers),
    )
)
def test_factorize_matches_scalar(values):
    codes, ordered = factorize_list(values)
    ref_codes, ref_ordered = _factorize_scalar_list(values)
    np.testing.assert_array_equal(codes, ref_codes)
    assert codes.dtype == ref_codes.dtype
    assert ordered == ref_ordered
    # 2 vs 2.0 compare equal; the representative's *type* must match.
    assert [type(v) for v in ordered] == [type(v) for v in ref_ordered]


#: Tails long enough for a skip of 128+ nibbles (a two-byte skip varint)
#: and subtrees of 128+ bytes (a two-byte length prefix).
_LONG_TEXT = st.text(alphabet="ab\x00é日\U0001f600", max_size=90)


@st.composite
def _trie_corpora(draw):
    """Sorted distinct strings that reach every field width of the layout.

    A shared head gives the root a single child; ``"\\x00"`` extensions
    make prefix chains; one example in six adds 200 strings with
    80-byte tails, a subtree of 16 KiB+ (a three-byte length prefix).
    """
    head = draw(st.sampled_from(["", "", "/", "日本" * 20]))
    tails = draw(st.lists(st.one_of(_TEXT, _LONG_TEXT), max_size=40))
    values = {head + tail for tail in tails}
    for tail in draw(st.lists(st.sampled_from(tails), max_size=3)) if tails else ():
        values.update(head + tail + "\x00" * k for k in (1, 2))
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        values.update(f"{head}{i:03d}" + "x" * 80 for i in range(200))
    return sorted(values)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(_trie_corpora())
def test_bulk_trie_bytes_match_reference(values):
    assert _trie_bytes(values) == reference_trie_bytes(values)


def test_generated_table_names_match_reference():
    table = generate_query_logs(LogsConfig(n_rows=20_000, seed=5))
    names = [name for name in factorize(table.column("table_name"))[1] if name]
    trie = _trie_bytes(names)
    assert trie == reference_trie_bytes(names)
    # Every name starts with "/": the root's one child is the whole trie,
    # behind a three-byte length prefix.
    __, __, mask, __, body = TrieDictionary(trie, len(names))._node(0)
    assert mask == 1 << 2 and decode_varint(trie, body)[0] >= 1 << 14


def test_trie_orders_strings_by_code_point():
    # UTF-16 code units would order these two the other way round.
    values = ["\uffff", "\U00010000"]
    assert _trie_bytes(values) == reference_trie_bytes(values)


@pytest.mark.parametrize(
    "values",
    [
        ["b", "a"],
        ["a", "c", "b"],
        ["a", "a"],
        ["", ""],
        ["ab", "a"],  # an extension before its prefix
        ["x" * 200 + "b", "x" * 200 + "a"],  # decided past the first window
        ["x" * 200, "x" * 200],
    ],
)
def test_trie_rejects_unsorted_and_duplicate_strings(values):
    with pytest.raises(DictionaryError):
        _trie_bytes(values)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_strings, max_size=40),
    st.lists(_strings, max_size=20),
    st.booleans(),
)
def test_global_ids_batch_matches_scalar(values, probes, optimized):
    dictionary = build_dictionary(values, optimized=optimized)
    # Mix of present and absent probe values.
    probes = probes + values[:5]
    batch = dictionary.global_ids(probes)
    scalar = [dictionary.global_id(value) for value in probes]
    assert batch == scalar


@settings(max_examples=30, deadline=None)
@given(
    st.lists(_duplicate_heavy(_TEXT), min_size=1, max_size=4),
    st.booleans(),
)
def test_subdict_entries_cover_chunks(chunks, optimized):
    all_values = sorted({v for chunk in chunks for v in chunk})
    dictionary = build_dictionary(all_values, optimized=optimized)
    chunk_gids = [
        np.unique(
            np.asarray(
                [gid for gid in dictionary.global_ids(chunk)],
                dtype=np.int64,
            )
        )
        for chunk in chunks
    ]
    subdicts = SubDictionarySet(dictionary, chunk_gids)
    # Every chunk's values must be reachable through its sub-dictionaries,
    # and the id -> value mapping must agree with the global dictionary.
    for index, chunk in enumerate(chunks):
        for value in set(chunk):
            gid = subdicts.lookup_global_id(value, active_chunks={index})
            assert gid == dictionary.global_id(value)
            assert subdicts.lookup_value(gid) == value
