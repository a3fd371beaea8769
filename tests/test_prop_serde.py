"""Property test: arbitrary tables survive import -> save -> load."""

import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.fsck import fsck_store
from repro.core.datastore import DataStore, DataStoreOptions
from repro.storage.chunk import ChunkDictIndex
from repro.storage.serde import load_store, save_store

_scalars = st.one_of(
    st.text(alphabet="abcdef日本 _%'", max_size=10),
    st.none(),
)
_numbers = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.none(),
)


@st.composite
def _tables(draw):
    from repro.core.table import Column, DataType, Table

    n_rows = draw(st.integers(min_value=1, max_value=60))
    strings = draw(
        st.lists(_scalars, min_size=n_rows, max_size=n_rows)
    )
    numbers = draw(st.lists(_numbers, min_size=n_rows, max_size=n_rows))
    floats = draw(
        st.lists(
            st.one_of(
                st.floats(
                    min_value=-1e6,
                    max_value=1e6,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.none(),
            ),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return Table(
        [
            Column("s", strings, DataType.STRING),
            Column("n", numbers, DataType.INT),
            Column("f", floats, DataType.FLOAT),
        ]
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_tables(), st.booleans(), st.booleans())
def test_save_load_round_trip(table, optimized_cols, optimized_dicts):
    store = DataStore.from_table(
        table,
        DataStoreOptions(
            partition_fields=("s",),
            max_chunk_rows=7,
            optimized_columns=optimized_cols,
            optimized_dicts=optimized_dicts,
        ),
    )
    with tempfile.NamedTemporaryFile(suffix=".pds") as handle:
        save_store(store, handle.name)
        loaded = load_store(handle.name)
    assert loaded.n_rows == store.n_rows
    assert loaded.chunk_row_counts == store.chunk_row_counts
    assert fsck_store(loaded).ok
    for name in ("s", "n", "f"):
        original = store.field(name)
        restored = loaded.field(name)
        # The loader hands over the index its one-pass decode amounts to.
        handed = restored._chunk_dict_index
        assert handed is restored.chunk_dict_index()
        rebuilt = ChunkDictIndex([chunk.chunk_dict for chunk in restored.chunks])
        assert handed.gids.tolist() == rebuilt.gids.tolist()
        assert handed.offsets == rebuilt.offsets
        assert restored.dictionary.values() == original.dictionary.values()
        for a, b in zip(original.chunks, restored.chunks):
            assert a.chunk_dict.tolist() == b.chunk_dict.tolist()
            assert a.elements.as_array().tolist() == (
                b.elements.as_array().tolist()
            )
