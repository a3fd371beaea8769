"""Element-encoding tests — the Section 3 "OptCols" table behaviour."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError
from repro.storage.elements import (
    BitsetElements,
    ConstantElements,
    PackedElements,
    encode_elements,
    width_for,
)


class TestWidthSelection:
    def test_boundaries(self):
        assert width_for(1) == 1
        assert width_for(256) == 1
        assert width_for(257) == 2
        assert width_for(65536) == 2
        assert width_for(65537) == 4

    def test_too_large(self):
        with pytest.raises(EncodingError):
            width_for(2**33)


class TestEncodeSelection:
    def test_one_distinct_constant(self):
        e = encode_elements(np.zeros(100, dtype=np.uint32), 1)
        assert isinstance(e, ConstantElements)
        # "This gives a constant O(1) overhead independent of n."
        assert e.size_bytes() == 8

    def test_two_distinct_bitset(self):
        ids = np.array([0, 1, 1, 0, 1] * 100, dtype=np.uint32)
        e = encode_elements(ids, 2)
        assert isinstance(e, BitsetElements)
        # "in case there are two distinct values ... ceil(n/8) bytes"
        assert e.size_bytes() == (len(ids) + 7) // 8

    @pytest.mark.parametrize(
        "n_distinct,width", [(3, 1), (256, 1), (257, 2), (65536, 2), (65537, 4)]
    )
    def test_packed_widths(self, n_distinct, width):
        ids = np.array([0, 1, 2], dtype=np.uint32)
        e = encode_elements(ids, n_distinct)
        assert isinstance(e, PackedElements)
        assert e.width == width
        assert e.size_bytes() == 3 * width

    def test_unoptimized_always_four_bytes(self):
        # The "Basic" data-structures: 32-bit ints regardless.
        ids = np.array([0, 1, 0], dtype=np.uint32)
        e = encode_elements(ids, 2, optimized=False)
        assert isinstance(e, PackedElements)
        assert e.width == 4

    def test_id_exceeding_dictionary_rejected(self):
        with pytest.raises(EncodingError):
            encode_elements(np.array([5], dtype=np.uint32), 3)


class TestRoundTrips:
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=260),
    )
    def test_encode_decode_property(self, n_distinct, n_rows):
        rng = np.random.default_rng(n_distinct * 1000 + n_rows)
        ids = rng.integers(0, n_distinct, size=n_rows).astype(np.uint32)
        e = encode_elements(ids, n_distinct)
        assert e.n_rows == n_rows
        assert e.as_array().tolist() == ids.tolist()

    def test_getitem_matches_array(self):
        ids = np.array([0, 2, 1, 2, 0], dtype=np.uint32)
        for n_distinct in (3, 300, 70000):
            e = encode_elements(ids, n_distinct)
            assert [e[i] for i in range(5)] == ids.tolist()

    def test_constant_getitem_bounds(self):
        e = ConstantElements(3, 0)
        with pytest.raises(EncodingError):
            e[3]

    def test_bitset_rejects_large_ids(self):
        with pytest.raises(EncodingError):
            BitsetElements.from_ids(np.array([0, 2], dtype=np.uint32))

    def test_to_bytes_lengths(self):
        ids = np.arange(10, dtype=np.uint32)
        assert len(encode_elements(ids, 200).to_bytes()) == 10
        assert len(encode_elements(ids, 300).to_bytes()) == 20
        assert len(encode_elements(ids, 70000).to_bytes()) == 40


class TestDenseCache:
    def _encodings(self):
        return [
            ConstantElements(5, 3),
            BitsetElements.from_ids(np.array([0, 1, 1, 0], dtype=np.uint32)),
            PackedElements(np.array([0, 2, 1], dtype=np.uint32), 1),
        ]

    def test_as_array_keeps_no_dense_copy(self):
        for elements in self._encodings():
            first = elements.as_array()
            assert elements.as_array().tolist() == first.tolist()
            assert not any(
                isinstance(value, np.ndarray) and value.dtype == np.uint32
                for value in vars(elements).values()
            )

    def test_getitem_never_materializes_dense(self, monkeypatch):
        def refuse(elements):
            raise AssertionError("single-row access decoded the whole chunk")

        for elements, expected in zip(self._encodings(), (3, 1, 2)):
            monkeypatch.setattr(type(elements), "as_array", refuse)
            assert elements[1] == expected
