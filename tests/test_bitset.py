"""BitSet tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageError
from repro.storage.bitset import BitSet


def _from_bits(bits: list[int]) -> BitSet:
    """A bitset built one :meth:`BitSet.set` at a time: the scalar reference."""
    bitset = BitSet(len(bits))
    for index, bit in enumerate(bits):
        if bit:
            bitset.set(index)
    return bitset


class TestBitSet:
    def test_starts_clear(self):
        bits = BitSet(20)
        assert list(bits) == [0] * 20

    def test_set_get_clear(self):
        bits = BitSet(10)
        bits.set(3)
        assert bits.get(3) == 1
        assert bits.get(2) == 0
        bits.clear(3)
        assert bits.get(3) == 0

    def test_out_of_range(self):
        bits = BitSet(8)
        with pytest.raises(StorageError):
            bits.get(8)
        with pytest.raises(StorageError):
            bits.set(-1)

    def test_negative_size_rejected(self):
        with pytest.raises(StorageError):
            BitSet(-1)

    def test_size_bytes_is_ceil(self):
        assert BitSet(0).size_bytes() == 0
        assert BitSet(1).size_bytes() == 1
        assert BitSet(8).size_bytes() == 1
        assert BitSet(9).size_bytes() == 2

    def test_from_bits_round_trip(self):
        pattern = [1, 0, 0, 1, 1, 0, 1, 0, 1]
        assert list(_from_bits(pattern)) == pattern

    def test_from_numpy_matches_from_bits(self):
        pattern = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1, 1], dtype=np.uint8)
        a = BitSet.from_numpy(pattern)
        b = _from_bits(pattern.tolist())
        assert a.to_bytes() == b.to_bytes()

    def test_to_numpy_round_trip(self):
        pattern = [0, 1, 1, 0, 1]
        bits = _from_bits(pattern)
        assert bits.to_numpy().tolist() == pattern

    def test_count(self):
        assert _from_bits([1, 0, 1, 1, 0]).count() == 3
        assert BitSet(0).count() == 0

    def test_bytes_round_trip(self):
        bits = _from_bits([1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1])
        rebuilt = BitSet.from_bytes(bits.to_bytes(), len(bits))
        assert list(rebuilt) == list(bits)

    def test_from_bytes_size_mismatch(self):
        with pytest.raises(StorageError):
            BitSet.from_bytes(b"\x00", 20)

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=200))
    def test_round_trip_property(self, pattern):
        bits = _from_bits(pattern)
        assert list(bits) == pattern
        assert bits.to_numpy().tolist() == pattern
