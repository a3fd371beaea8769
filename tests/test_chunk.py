"""ColumnChunk / Chunk tests — the double dictionary layout."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.chunk import Chunk, ChunkDictIndex, ColumnChunk


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
        assert chunk.chunk_id_of(0) == 0
        assert chunk.chunk_id_of(9) == 4
        assert chunk.chunk_id_of(3) is None

    def test_membership(self):
        chunk = self._chunk()
        assert chunk.contains_global_id(5)
        assert not chunk.contains_global_id(7)
        assert chunk.contains_any(np.array([7, 9], dtype=np.uint32))
        assert not chunk.contains_any(np.array([3, 4], dtype=np.uint32))
        assert not chunk.contains_any(np.array([], dtype=np.uint32))

    def test_chunk_ids_of_drops_missing(self):
        chunk = self._chunk()
        got = chunk.chunk_ids_of(np.array([0, 3, 9], dtype=np.uint32))
        assert got.tolist() == [0, 4]

    def test_min_max(self):
        chunk = self._chunk()
        assert chunk.min_global_id() == 0
        assert chunk.max_global_id() == 9

    def test_empty_min_max_raises(self):
        chunk = ColumnChunk.from_global_ids(np.array([], dtype=np.uint32))
        with pytest.raises(StorageError):
            chunk.min_global_id()

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


class TestChunk:
    def test_column_access(self):
        a = ColumnChunk.from_global_ids(np.array([1, 2], dtype=np.uint32))
        chunk = Chunk(0, 2, {"a": a})
        assert chunk.column("a") is a
        with pytest.raises(StorageError):
            chunk.column("b")

    def test_row_count_mismatch(self):
        a = ColumnChunk.from_global_ids(np.array([1], dtype=np.uint32))
        with pytest.raises(StorageError):
            Chunk(0, 2, {"a": a})

    def test_add_column(self):
        a = ColumnChunk.from_global_ids(np.array([1, 2], dtype=np.uint32))
        chunk = Chunk(0, 2, {"a": a})
        b = ColumnChunk.from_global_ids(np.array([0, 0], dtype=np.uint32))
        chunk.add_column("b", b)
        assert chunk.size_bytes(["b"]) == b.size_bytes()


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
