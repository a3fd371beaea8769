"""Codec tests: zippy, lzo-like, Huffman, RLE and the registry."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress import (
    available_codecs,
    bit_rle_counter_count,
    compress,
    decompress,
    get_codec,
    huffman_compress,
    huffman_decompress,
    lzo_compress,
    lzo_decompress,
    rle_decode_bytes,
    rle_encode_bytes,
    zippy_compress,
    zippy_decompress,
)
from repro.errors import CompressionError

_SAMPLES = [
    b"",
    b"a",
    b"ab",
    b"abc",
    b"aaaa",
    b"abcabcabcabcabcabcabc",
    b"x" * 10_000,
    bytes(range(256)) * 8,
    "ünïcödé €‰ text".encode("utf-8") * 40,
    b"\x00" * 100 + b"\x01" * 100 + b"\x00" * 100,
]


@pytest.mark.parametrize("codec", ["zippy", "lzo", "huffman", "zippy+huffman", "rle", "none"])
@pytest.mark.parametrize("sample", _SAMPLES, ids=range(len(_SAMPLES)))
def test_registry_round_trip(codec, sample):
    assert decompress(codec, compress(codec, sample)) == sample


# Parametrized over the registry itself, so a codec added later is
# round-trip-tested automatically (and REP003 keeps callers on the
# registry rather than the codec modules).
@pytest.mark.parametrize("codec", available_codecs())
@pytest.mark.parametrize("sample", _SAMPLES, ids=range(len(_SAMPLES)))
def test_every_registered_codec_round_trips(codec, sample):
    compressed = compress(codec, sample)
    assert isinstance(compressed, bytes)
    assert decompress(codec, compressed) == sample


@pytest.mark.parametrize("codec", available_codecs())
def test_every_registered_codec_resolves(codec):
    resolved = get_codec(codec)
    assert resolved.name == codec
    data = b"registry smoke test " * 20
    assert resolved.decompress(resolved.compress(data)) == data


def test_unknown_codec_raises():
    with pytest.raises(CompressionError):
        get_codec("gzip")


def test_available_codecs_sorted():
    codecs = available_codecs()
    assert codecs == sorted(codecs)
    assert "zippy" in codecs


class TestZippy:
    def test_repetitive_input_compresses(self):
        data = b"the quick brown fox " * 500
        assert len(zippy_compress(data)) < len(data) / 5

    def test_incompressible_overhead_is_small(self):
        import random

        random.seed(0)
        data = bytes(random.randrange(256) for _ in range(4096))
        assert len(zippy_compress(data)) < len(data) * 1.05

    def test_overlapping_copy_rle_style(self):
        # A long single-byte run exercises overlapping back-references.
        data = b"Z" * 100_000
        compressed = zippy_compress(data)
        # Copies carry at most 64 bytes each: ~3 bytes per 64 of input.
        assert len(compressed) < 6000
        assert zippy_decompress(compressed) == data

    def test_corrupt_offset_raises(self):
        # tag 0b01 (copy) with offset pointing before output start
        bad = bytes([4]) + bytes([0b01, 0xFF])
        with pytest.raises(CompressionError):
            zippy_decompress(bad)

    def test_size_mismatch_raises(self):
        good = zippy_compress(b"hello world hello world")
        # Corrupt the declared length in the preamble.
        bad = bytes([good[0] + 1]) + good[1:]
        with pytest.raises(CompressionError):
            zippy_decompress(bad)

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=3000))
    def test_round_trip_property(self, data):
        assert zippy_decompress(zippy_compress(data)) == data

    @settings(max_examples=50, deadline=None)
    @given(
        st.binary(min_size=1, max_size=24),
        st.integers(min_value=2, max_value=400),
    )
    def test_round_trip_repetitive_property(self, unit, repeats):
        data = unit * repeats
        assert zippy_decompress(zippy_compress(data)) == data


class TestLzo:
    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=2000))
    def test_round_trip_property(self, data):
        assert lzo_decompress(lzo_compress(data)) == data

    def test_better_ratio_than_zippy_on_text(self):
        # Section 5: the LZO variant compressed ~10% better than Zippy.
        data = (
            b"SELECT country, COUNT(*) FROM data GROUP BY country; "
            b"SELECT table_name, SUM(latency) FROM data GROUP BY table_name; "
        ) * 120
        assert len(lzo_compress(data)) <= len(zippy_compress(data))


class TestHuffman:
    def test_skewed_input_compresses(self):
        data = (b"a" * 900 + b"b" * 90 + b"c" * 10) * 10
        # Entropy ~0.57 bits/symbol; the 256-byte code table amortizes.
        assert len(huffman_compress(data)) < len(data) / 4

    def test_single_symbol(self):
        data = b"\x07" * 5000
        compressed = huffman_compress(data)
        assert huffman_decompress(compressed) == data
        # 1 bit per symbol plus the 256-byte table.
        assert len(compressed) < 256 + 5000 / 8 + 16

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=1500))
    def test_round_trip_property(self, data):
        assert huffman_decompress(huffman_compress(data)) == data

    def test_stacked_on_zippy_improves_ratio(self):
        # The "ZLIB with Huffman" effect: extra 20-30% on text.
        data = open(__file__, "rb").read() * 3
        plain = len(compress("zippy", data))
        stacked = len(compress("zippy+huffman", data))
        assert stacked < plain


class TestRleBytes:
    def test_runs_collapse(self):
        data = b"\x00" * 1000
        assert len(rle_encode_bytes(data)) < 10

    @settings(max_examples=80, deadline=None)
    @given(st.binary(max_size=1500))
    def test_round_trip_property(self, data):
        assert rle_decode_bytes(rle_encode_bytes(data)) == data


class TestRleInts:
    """Section 3's (run, value) pairs of a small-integer column: the byte
    codec's body once each value fits a byte (and each run, under 128,
    one varint byte)."""

    def test_paper_example(self):
        # "the column 0,0,0,1,1,1 would be encoded as (3,0),(3,1)"
        blob = rle_encode_bytes(bytes([0, 0, 0, 1, 1, 1]))
        assert blob == bytes([6]) + bytes([3, 0]) + bytes([3, 1])

    def test_empty(self):
        assert rle_encode_bytes(b"") == bytes([0])  # the length alone
        assert rle_decode_bytes(bytes([0])) == b""

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=200))
    def test_round_trip_property(self, values):
        assert list(rle_decode_bytes(rle_encode_bytes(bytes(values)))) == values

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=120))
    def test_pair_count_equals_value_changes(self, values):
        body = rle_encode_bytes(bytes(values))[1:]  # drop varint(len) < 128
        changes = sum(1 for a, b in zip(values, values[1:]) if a != b)
        assert len(body) == 2 * (changes + 1 if values else 0)


class TestBitRle:
    def test_empty_column(self):
        assert bit_rle_counter_count([]) == 0

    def test_constant_column_one_counter(self):
        assert bit_rle_counter_count([1] * 50) == 1

    def test_alternating_column(self):
        assert bit_rle_counter_count([0, 1, 0, 1]) == 4

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=300))
    def test_counters_equal_flips_plus_one(self, bits):
        flips = sum(1 for a, b in zip(bits, bits[1:]) if a != b)
        assert bit_rle_counter_count(bits) == flips + 1
