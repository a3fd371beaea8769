"""Per-chunk column storage — the chunk-dictionary + elements pair.

For each chunk and each column the store keeps (Section 2.3):

- the *chunk-dictionary*: the sorted array of global-ids occurring in
  the chunk, mapping chunk-id (index) <-> global-id (value);
- the *elements*: one chunk-id per row, in row order.

Because global-ids are ranks in the sorted global dictionary, the
chunk-dictionary also is the chunk's value set; restriction analysis
reads every chunk's at once through :class:`ChunkDictIndex`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import StorageError
from repro.storage.elements import Elements, encode_elements


class ColumnChunk:
    """One column's storage within one chunk."""

    __slots__ = ("chunk_dict", "elements")

    def __init__(self, chunk_dict: np.ndarray, elements: Elements) -> None:
        if chunk_dict.ndim != 1:
            raise StorageError("chunk dictionary must be a 1-d array")
        if chunk_dict.size > 1 and not np.all(chunk_dict[:-1] < chunk_dict[1:]):
            raise StorageError("chunk dictionary must be strictly ascending")
        self.chunk_dict = np.ascontiguousarray(chunk_dict, dtype=np.uint32)
        self.elements = elements

    @classmethod
    def from_trusted_parts(
        cls, chunk_dict: np.ndarray, elements: Elements
    ) -> "ColumnChunk":
        """Wrap pre-validated parts without copying or re-checking.

        Arena attaches rebuild every chunk from buffers whose builder
        already validated them; re-running the strictly-ascending scan
        per attach would eat into the zero-copy win, and the uint32
        views must be adopted as-is (read-only). Callers guarantee a
        1-d strictly-ascending uint32 ``chunk_dict``.
        """
        chunk = cls.__new__(cls)
        chunk.chunk_dict = chunk_dict
        chunk.elements = elements
        return chunk

    @classmethod
    def from_global_ids(
        cls, global_ids: np.ndarray, optimized: bool = True
    ) -> "ColumnChunk":
        """Build from the per-row global-ids of this chunk's column.

        ``np.unique`` directly yields the sorted chunk-dictionary and
        the per-row chunk-ids (the inverse indices).
        """
        array = np.asarray(global_ids, dtype=np.uint32)
        chunk_dict, chunk_ids = np.unique(array, return_inverse=True)
        elements = encode_elements(
            chunk_ids.astype(np.uint32), int(chunk_dict.size), optimized=optimized
        )
        return cls(chunk_dict, elements)

    @property
    def n_rows(self) -> int:
        return self.elements.n_rows

    @property
    def n_distinct(self) -> int:
        """Number of distinct values (chunk-dictionary entries)."""
        return int(self.chunk_dict.size)

    def row_global_ids(self) -> np.ndarray:
        """Per-row global-ids (dereferencing elements via the dict)."""
        return self.chunk_dict[self.elements.as_array()]

    def dict_size_bytes(self) -> int:
        """Analytic size of the chunk-dictionary (4 bytes/entry)."""
        return 4 * int(self.chunk_dict.size)

    def elements_size_bytes(self) -> int:
        return self.elements.size_bytes()

    def size_bytes(self) -> int:
        return self.dict_size_bytes() + self.elements_size_bytes()

    def to_bytes(self) -> bytes:
        """Serialized dict + elements payload (for compression benches).

        The chunk-dictionary is strictly ascending, so it serializes as
        varint deltas — small consecutive gaps shrink to one byte,
        which is what makes the Zippy-stage experiments of Section 3
        behave like the paper's.
        """
        from repro.compress.varint import encode_varint

        out = bytearray(encode_varint(int(self.chunk_dict.size)))
        previous = 0
        for gid in self.chunk_dict:
            out += encode_varint(int(gid) - previous)
            previous = int(gid)
        out += self.elements.to_bytes()
        return bytes(out)


#: A chunk is scatter-encoded when its field's dictionary has at most
#: this many entries per chunk row; past it the scratch tables cost more
#: to scan than the chunk's rows cost to sort. Measured: ids drawn
#: uniformly break even near 10 (the tables fall out of cache), a field
#: clustered by the partitioning near 70.
_SCATTER_DICT_ENTRIES_PER_ROW = 16


def encode_column_chunks(
    global_ids: np.ndarray,
    chunk_row_counts: Sequence[int],
    n_distinct: int,
    optimized: bool = True,
) -> list[ColumnChunk]:
    """One field's chunks from its per-row global-ids, rows in chunk order.

    Two exact algorithms, picked per chunk from the data's shape. Where
    the dictionary is small beside the chunk, global-ids are a dense
    domain: scatter the chunk's ids into a presence table, read the
    chunk-dictionary off it, and gather each row's chunk-id through a
    rank table — no sort, one scratch pair reused by every chunk. A
    high-cardinality field keeps :meth:`ColumnChunk.from_global_ids`.
    """
    # Narrow index arrays scatter and gather slowly: widen them once.
    global_ids = global_ids.astype(np.intp, copy=False)
    present = rank = None
    chunks = []
    start = 0
    for n_rows in chunk_row_counts:
        chunk_ids = global_ids[start : start + n_rows]
        start += n_rows
        if n_distinct > _SCATTER_DICT_ENTRIES_PER_ROW * n_rows:
            chunks.append(ColumnChunk.from_global_ids(chunk_ids, optimized))
            continue
        if present is None:
            present = np.zeros(n_distinct, dtype=bool)
            rank = np.empty(n_distinct, dtype=np.uint32)
        present[chunk_ids] = True
        chunk_dict = np.flatnonzero(present)
        present[chunk_dict] = False
        rank[chunk_dict] = np.arange(chunk_dict.size, dtype=np.uint32)
        elements = encode_elements(
            rank[chunk_ids], int(chunk_dict.size), optimized=optimized
        )
        chunks.append(
            ColumnChunk.from_trusted_parts(chunk_dict.astype(np.uint32), elements)
        )
    return chunks


class ChunkDictIndex:
    """One field's chunk-dictionaries as a single (gid, chunk) column.

    CSR form: ``gids`` concatenates the chunk-dictionaries and chunk
    ``i`` owns ``gids[offsets[i]:offsets[i + 1]]``, so a per-gid boolean
    vector gathered through ``gids`` answers "any / all of the chunk's
    values" for every chunk with one segmented reduction. Derived from
    the chunks on demand; never serialized or counted as store bytes.
    """

    __slots__ = ("gids", "offsets", "_starts", "_nonempty")

    def __init__(self, chunk_dicts: Sequence[np.ndarray]) -> None:
        sizes = np.array([chunk_dict.size for chunk_dict in chunk_dicts], np.intp)
        self._set(np.concatenate([*chunk_dicts, np.empty(0, dtype=np.uint32)]), sizes)

    @classmethod
    def from_csr(cls, gids: np.ndarray, sizes: np.ndarray) -> "ChunkDictIndex":
        """Adopt ``gids`` — the chunk-dictionaries, concatenated — as is."""
        index = cls.__new__(cls)
        index._set(gids, sizes)
        return index

    def _set(self, gids: np.ndarray, sizes: np.ndarray) -> None:
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        self.offsets: list[int] = bounds.tolist()
        self.gids = gids
        # ``reduceat`` reads one element for an empty segment instead of
        # the reduction identity, so only non-empty segments (all of
        # them, unless the store has a zero-row chunk) are reduced.
        nonempty = np.flatnonzero(sizes)
        self._starts = bounds[nonempty]
        self._nonempty = None if nonempty.size == sizes.size else nonempty

    def chunk_dicts(self, chunks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(bounds, gids): ``chunks``' chunk-dictionaries, concatenated."""
        offsets = np.asarray(self.offsets)
        begin = offsets[chunks]
        sizes = offsets[chunks + 1] - begin
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        positions = np.repeat(begin - bounds[:-1], sizes) + np.arange(bounds[-1])
        return bounds, self.gids[positions]

    def reduce(self, ufunc: np.ufunc, flat: np.ndarray) -> np.ndarray:
        """``ufunc``-reduce ``flat`` (one entry per gid) within each chunk."""
        if self._nonempty is None:
            return ufunc.reduceat(flat, self._starts)
        out = np.full(len(self.offsets) - 1, ufunc.identity, dtype=flat.dtype)
        out[self._nonempty] = ufunc.reduceat(flat, self._starts)
        return out
