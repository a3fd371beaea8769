"""A compact bit set over a ``bytearray``.

Used by the two-distinct-value element encoding (Section 3 "OptCols":
"in case there are two distinct values a bit-set suffices; resulting in
ceil(n/8) bytes") and by the Bloom filters of Section 5.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import StorageError

# Lookup table used to expand packed bytes back to bits quickly.
_BIT_UNPACK = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)


class BitSet:
    """Fixed-size sequence of bits stored 8 per byte (MSB first)."""

    __slots__ = ("_buf", "_size")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise StorageError(f"bitset size must be >= 0, got {size}")
        self._size = size
        self._buf = bytearray((size + 7) // 8)

    @classmethod
    def from_numpy(cls, bits: np.ndarray) -> "BitSet":
        """Build from a 0/1 numpy array using vectorized packing."""
        bitset = cls(int(bits.size))
        packed = np.packbits(bits.astype(np.uint8))
        bitset._buf = bytearray(packed.tobytes())
        return bitset

    def __len__(self) -> int:
        return self._size

    def _check(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise StorageError(f"bit index {index} out of range [0, {self._size})")

    def get(self, index: int) -> int:
        """Return the bit at ``index`` as 0 or 1."""
        self._check(index)
        return (self._buf[index >> 3] >> (7 - (index & 7))) & 1

    def set(self, index: int) -> None:
        """Set the bit at ``index`` to 1."""
        self._check(index)
        self._buf[index >> 3] |= 1 << (7 - (index & 7))

    def clear(self, index: int) -> None:
        """Set the bit at ``index`` to 0."""
        self._check(index)
        self._buf[index >> 3] &= ~(1 << (7 - (index & 7))) & 0xFF

    def __iter__(self) -> Iterator[int]:
        for index in range(self._size):
            yield self.get(index)

    def to_numpy(self) -> np.ndarray:
        """All bits as a uint8 numpy array of 0/1."""
        if not self._size:
            return np.zeros(0, dtype=np.uint8)
        unpacked = _BIT_UNPACK[np.frombuffer(bytes(self._buf), dtype=np.uint8)]
        return unpacked.reshape(-1)[: self._size].copy()

    def count(self) -> int:
        """Number of set bits."""
        return int(self.to_numpy().sum()) if self._size else 0

    def size_bytes(self) -> int:
        """Encoded payload size: ceil(n/8) bytes."""
        return len(self._buf)

    def to_bytes(self) -> bytes:
        """The packed payload."""
        return bytes(self._buf)

    @classmethod
    def from_bytes(cls, data: bytes, size: int) -> "BitSet":
        """Rebuild from a packed payload and its bit count."""
        if len(data) != (size + 7) // 8:
            raise StorageError(
                f"payload of {len(data)} bytes cannot hold {size} bits"
            )
        bitset = cls(size)
        bitset._buf = bytearray(data)
        return bitset
