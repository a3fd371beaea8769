"""Element (chunk-id) encodings — Section 3 "Optimize Encoding of Elements".

The *elements* of a column chunk are the per-row chunk-ids. The basic
data-structures store them as 32-bit integers; the OptCols optimization
picks an encoding by the chunk-dictionary size ``n_distinct``:

============  =======================  =====================
n_distinct    encoding                 payload size
============  =======================  =====================
1             :class:`ConstantElements`  O(1)
2             :class:`BitsetElements`    ceil(n/8) bytes
<= 2**8       :class:`PackedElements`    n bytes
<= 2**16      :class:`PackedElements`    2n bytes
<= 2**32      :class:`PackedElements`    4n bytes
============  =======================  =====================

Every encoding exposes ``as_array()`` (dense uint32 chunk-ids, decoded
on every call), ``size_bytes()`` (the analytic payload size the memory
experiments report) and ``to_bytes()`` (the serialized payload the
compression experiments feed to the codecs). Nothing keeps the dense
form: the query kernels and WHERE row passes read a field's rows as
CSR positions, ``FieldStore.row_positions()``, which decodes each chunk
once; an aggregate's argument never leaves that frame for its gids but
to pair them (COUNT DISTINCT) or name a MIN / MAX winner. Single-row
``[row]`` access reads the encoding itself. A four-byte packed chunk's
``as_array()`` is its payload, so callers must treat it as read-only.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import EncodingError
from repro.storage.bitset import BitSet


class Elements:
    """Abstract base for element encodings."""

    encoding_name = "abstract"

    def __len__(self) -> int:
        return self.n_rows

    @property
    def n_rows(self) -> int:
        raise NotImplementedError

    def as_array(self) -> np.ndarray:
        """Dense chunk-ids as a uint32 array of length ``n_rows``."""
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Analytic payload size in bytes."""
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        """Serialized payload (fed to compression codecs)."""
        raise NotImplementedError

    def payload_bytes(self) -> "bytes | memoryview":
        """Raw payload for flat-buffer stores (see :mod:`repro.storage.arena`)."""
        return self.to_bytes()

    def __getitem__(self, row: int) -> int:
        return int(self.as_array()[row])


class ConstantElements(Elements):
    """All rows share one chunk-id; only the row count is stored."""

    encoding_name = "constant"

    def __init__(self, n_rows: int, chunk_id: int = 0) -> None:
        if n_rows < 0:
            raise EncodingError(f"row count must be >= 0, got {n_rows}")
        self._n_rows = n_rows
        self._chunk_id = chunk_id

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def chunk_id(self) -> int:
        return self._chunk_id

    def as_array(self) -> np.ndarray:
        return np.full(self._n_rows, self._chunk_id, dtype=np.uint32)

    def size_bytes(self) -> int:
        # O(1): a row count and the single chunk-id.
        return 8

    def to_bytes(self) -> bytes:
        return self._n_rows.to_bytes(4, "little") + self._chunk_id.to_bytes(
            4, "little"
        )

    def __getitem__(self, row: int) -> int:
        if not 0 <= row < self._n_rows:
            raise EncodingError(f"row {row} out of range")
        return self._chunk_id


class BitsetElements(Elements):
    """Two distinct chunk-ids (0/1) stored one bit per row."""

    encoding_name = "bitset"

    def __init__(self, bits: BitSet) -> None:
        self._bits = bits

    @classmethod
    def from_ids(cls, ids: np.ndarray) -> "BitsetElements":
        if ids.size and int(ids.max()) > 1:
            raise EncodingError("bitset elements require chunk-ids in {0, 1}")
        return cls(BitSet.from_numpy(ids))

    @property
    def n_rows(self) -> int:
        return len(self._bits)

    def as_array(self) -> np.ndarray:
        return self._bits.to_numpy().astype(np.uint32)

    def size_bytes(self) -> int:
        return self._bits.size_bytes()

    def to_bytes(self) -> bytes:
        return self._bits.to_bytes()

    def __getitem__(self, row: int) -> int:
        return self._bits.get(row)


class PackedElements(Elements):
    """Chunk-ids packed into 1, 2 or 4 bytes each."""

    encoding_name = "packed"
    _DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32}

    def __init__(self, ids: np.ndarray, width: int) -> None:
        if width not in self._DTYPES:
            raise EncodingError(f"unsupported packed width {width}")
        self._width = width
        self._ids = np.ascontiguousarray(ids, dtype=self._DTYPES[width])

    @property
    def width(self) -> int:
        return self._width

    @property
    def n_rows(self) -> int:
        return int(self._ids.size)

    def as_array(self) -> np.ndarray:
        return self._ids.astype(np.uint32, copy=False)

    def size_bytes(self) -> int:
        return self._ids.size * self._width

    def to_bytes(self) -> bytes:
        return self._ids.tobytes()

    def payload_bytes(self) -> memoryview:
        # Zero-copy: the ids array (kept contiguous by __init__) viewed
        # as bytes, so arena builds write it straight into the buffer.
        return self._ids.data.cast("B")

    def __getitem__(self, row: int) -> int:
        return int(self._ids[row])


def width_for(n_distinct: int) -> int:
    """Packed byte width required for ``n_distinct`` chunk-ids."""
    if n_distinct <= 1 << 8:
        return 1
    if n_distinct <= 1 << 16:
        return 2
    if n_distinct <= 1 << 32:
        return 4
    raise EncodingError(f"{n_distinct} distinct values exceed 32-bit ids")


def encode_elements(
    ids: Sequence[int] | np.ndarray, n_distinct: int, optimized: bool = True
) -> Elements:
    """Encode chunk-ids, choosing the optimal encoding when ``optimized``.

    ``optimized=False`` reproduces the *Basic* data-structures (always
    32-bit integers); ``optimized=True`` reproduces *OptCols*.
    """
    array = np.asarray(ids, dtype=np.uint32)
    if array.size and int(array.max()) >= max(n_distinct, 1):
        raise EncodingError(
            f"chunk-id {int(array.max())} >= dictionary size {n_distinct}"
        )
    if not optimized:
        return PackedElements(array, 4)
    if n_distinct <= 1:
        return ConstantElements(int(array.size), 0)
    if n_distinct == 2:
        return BitsetElements.from_ids(array)
    return PackedElements(array, width_for(n_distinct))
