"""Bloom filters over dictionary contents — Section 5.

"To further reduce the situations where a (sub-)dictionary needs to be
loaded into memory, we additionally keep Bloom-filters for each
dictionary. With these Bloom-filters one can quickly check whether
certain values are present in a dictionary at all."

The filter hashes values with BLAKE2b (deterministic across runs and
processes) and derives the k probe positions by double hashing.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable
from typing import Any

from repro.errors import StorageError
from repro.storage.bitset import BitSet


def _hash_pair(value: Any) -> tuple[int, int]:
    """Two independent 64-bit hashes of ``value``."""
    raw = repr(value).encode("utf-8")
    digest = hashlib.blake2b(raw, digest_size=16).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:], "little"),
    )


class BloomFilter:
    """A classic Bloom filter with double hashing."""

    def __init__(self, n_bits: int, n_hashes: int) -> None:
        if n_bits <= 0 or n_hashes <= 0:
            raise StorageError("bloom filter needs positive bit/hash counts")
        self._bits = BitSet(n_bits)
        self._n_hashes = n_hashes
        self._n_items = 0

    @classmethod
    def for_capacity(cls, n_items: int, fpp: float = 0.01) -> "BloomFilter":
        """Size a filter for ``n_items`` at target false-positive rate."""
        if not 0 < fpp < 1:
            raise StorageError(f"fpp must be in (0, 1), got {fpp}")
        n_items = max(n_items, 1)
        n_bits = max(8, int(-n_items * math.log(fpp) / (math.log(2) ** 2)))
        n_hashes = max(1, round(n_bits / n_items * math.log(2)))
        return cls(n_bits, n_hashes)

    @classmethod
    def build(cls, items: Iterable[Any], fpp: float = 0.01) -> "BloomFilter":
        """Build a filter containing every item of ``items``."""
        materialized = list(items)
        bloom = cls.for_capacity(len(materialized), fpp)
        for item in materialized:
            bloom.add(item)
        return bloom

    def _positions(self, value: Any) -> Iterable[int]:
        h1, h2 = _hash_pair(value)
        n = len(self._bits)
        for i in range(self._n_hashes):
            yield (h1 + i * h2) % n

    def add(self, value: Any) -> None:
        """Insert ``value``."""
        for pos in self._positions(value):
            self._bits.set(pos)
        self._n_items += 1

    def might_contain(self, value: Any) -> bool:
        """False means definitely absent; True means possibly present."""
        return all(self._bits.get(pos) for pos in self._positions(value))

    def __contains__(self, value: Any) -> bool:
        return self.might_contain(value)

    @property
    def n_items(self) -> int:
        """Number of inserted items."""
        return self._n_items

    def size_bytes(self) -> int:
        """Payload size of the bit array."""
        return self._bits.size_bytes()
