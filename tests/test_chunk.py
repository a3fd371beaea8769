"""ColumnChunk tests — the double dictionary layout."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import chunk as chunk_module
from repro.storage.chunk import ChunkDictIndex, ColumnChunk, encode_column_chunks
from tests.import_oracle import reference_column_chunk


class TestColumnChunk:
    def _chunk(self) -> ColumnChunk:
        # Figure 1's chunk 0: rows dereference through the chunk dict.
        return ColumnChunk.from_global_ids(
            np.array([5, 2, 0, 9, 0, 0, 2, 1, 5, 2], dtype=np.uint32)
        )

    def test_chunk_dict_is_sorted_unique(self):
        chunk = self._chunk()
        assert chunk.chunk_dict.tolist() == [0, 1, 2, 5, 9]
        assert chunk.n_distinct == 5
        assert chunk.n_rows == 10

    def test_row_reconstruction(self):
        chunk = self._chunk()
        assert chunk.row_global_ids().tolist() == [5, 2, 0, 9, 0, 0, 2, 1, 5, 2]

    def test_chunk_ids_dense_ascending(self):
        chunk = self._chunk()
        # chunk-ids are "assigned to the sorted global-ids in an
        # ascending manner" (Section 2.3).
        assert chunk.elements.as_array().tolist() == [3, 2, 0, 4, 0, 0, 2, 1, 3, 2]

    def test_sizes(self):
        chunk = self._chunk()
        assert chunk.dict_size_bytes() == 4 * 5
        assert chunk.elements_size_bytes() == 10  # 5 distinct -> 1 byte each
        assert chunk.size_bytes() == 30

    def test_unsorted_dict_rejected(self):
        from repro.storage.elements import encode_elements

        with pytest.raises(StorageError):
            ColumnChunk(
                np.array([3, 1], dtype=np.uint32),
                encode_elements(np.array([0, 1], dtype=np.uint32), 2),
            )


class TestEncodeColumnChunks:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 70_000), max_size=40), min_size=1, max_size=6
        ),
        st.booleans(),
        st.sampled_from([0, 1, 10**9]),
    )
    def test_both_algorithms_match_the_np_unique_oracle(
        self, per_chunk, optimized, entries_per_row
    ):
        """Scatter (small dictionary) and sort (large): the same chunks."""
        flat = np.array([gid for ids in per_chunk for gid in ids], dtype=np.uint32)
        n_distinct = int(flat.max()) + 1 if flat.size else 0
        counts = [len(ids) for ids in per_chunk]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                chunk_module, "_SCATTER_DICT_ENTRIES_PER_ROW", entries_per_row
            )
            chunks = encode_column_chunks(
                flat.astype(np.min_scalar_type(n_distinct)),
                counts,
                n_distinct,
                optimized,
            )
        assert len(chunks) == len(per_chunk)
        for chunk, ids in zip(chunks, per_chunk):
            expected = reference_column_chunk(np.array(ids, np.uint32), optimized)
            assert chunk.chunk_dict.dtype == np.uint32
            assert chunk.chunk_dict.tolist() == expected.chunk_dict.tolist()
            assert type(chunk.elements) is type(expected.elements)
            assert chunk.elements.to_bytes() == expected.elements.to_bytes()

    def test_the_shipped_constant_sorts_only_a_dictionary_far_larger_than_the_chunk(
        self, monkeypatch
    ):
        sorted_chunks = []
        from_global_ids = ColumnChunk.from_global_ids.__func__

        def spy(cls, global_ids, optimized=True):
            sorted_chunks.append(global_ids.size)
            return from_global_ids(cls, global_ids, optimized)

        monkeypatch.setattr(ColumnChunk, "from_global_ids", classmethod(spy))
        ids = np.arange(100, dtype=np.uint32)
        encode_column_chunks(ids, [90, 10], 1_000)
        assert sorted_chunks == [10]  # 1000 entries: 11 a row, then 100 a row


class TestChunkDictIndex:
    def _dicts(self) -> list[np.ndarray]:
        # Empty chunk-dictionaries first, in the middle, doubled and last.
        return [
            np.array(values, dtype=np.uint32)
            for values in ([], [0, 3], [], [], [1], [2, 3, 4], [])
        ]

    def test_csr_layout(self):
        index = ChunkDictIndex(self._dicts())
        assert index.gids.tolist() == [0, 3, 1, 2, 3, 4]
        assert index.gids.dtype == np.uint32
        assert index.offsets == [0, 0, 2, 2, 2, 3, 6, 6]

    def test_from_csr_adopts_the_concatenated_dictionaries(self):
        built = ChunkDictIndex(self._dicts())
        sizes = np.array([d.size for d in self._dicts()])
        adopted = ChunkDictIndex.from_csr(built.gids, sizes)
        assert adopted.gids is built.gids
        assert adopted.offsets == built.offsets
        flat = np.array([True, False, False, True, False]).take(built.gids)
        for ufunc in (np.logical_or, np.logical_and):
            assert (
                adopted.reduce(ufunc, flat).tolist()
                == built.reduce(ufunc, flat).tolist()
            )

    @pytest.mark.parametrize("keep", [slice(None), slice(1, 6, 2), slice(0, 0)])
    def test_segmented_reductions_match_a_per_chunk_loop(self, keep):
        dicts = self._dicts()[keep]  # all, only non-empty ones, no chunks
        index = ChunkDictIndex(dicts)
        per_gid = np.array([True, False, False, True, False])
        flat = per_gid.take(index.gids)
        assert index.reduce(np.logical_or, flat).tolist() == [
            bool(per_gid[d].any()) for d in dicts
        ]
        assert index.reduce(np.logical_and, flat).tolist() == [
            bool(per_gid[d].all()) for d in dicts
        ]
