"""Differential fuzzing: numpy codec kernels vs the frozen scalar oracles.

Every vectorized codec in :mod:`repro.compress` has a scalar twin
frozen in ``tests/compress_oracle.py`` (the pre-vectorization
implementations). These tests hold the kernels to three contracts:

- **byte identity** — the kernel encoder produces *exactly* the oracle's
  bytes, so stores written before and after PR 5 are interchangeable;
- **round-trips** — kernel decode inverts kernel encode, and the
  decoders are interchangeable with the oracles in both directions;
- **resilience** — truncated or bit-flipped input makes every decoder
  raise :class:`~repro.errors.CompressionError`; it never crashes with
  an IndexError/ValueError and never loops.

Plus the per-codec :class:`~repro.compress.CompressionStats` published
by the registry wrappers.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compress import CompressionStats, compression_stats, get_codec
from repro.compress.varint import (
    decode_varint_stream,
    decode_zigzag_stream,
    encode_varint_array,
    encode_zigzag_array,
)
from repro.errors import CompressionError
from repro.monitoring import counters
from tests import compress_oracle as reference

_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_UINT64 = st.integers(min_value=0, max_value=2**64 - 1)

#: (codec name, oracle encode, oracle decode)
_ORACLES = [
    ("rle", reference.rle_encode_bytes, reference.rle_decode_bytes),
    ("zippy", reference.zippy_compress, reference.zippy_decompress),
    ("lzo", reference.lzo_compress, reference.lzo_decompress),
    ("huffman", reference.huffman_compress, reference.huffman_decompress),
]


def _runny(data: bytes, repeats: int) -> bytes:
    """Stretch fuzz input into run/match-rich data so copies/runs fire."""
    return data * repeats


class TestByteIdentity:
    @pytest.mark.parametrize("name,encode,decode", _ORACLES)
    @settings(max_examples=80, deadline=None)
    @given(data=st.binary(max_size=3000), repeats=st.integers(1, 4))
    def test_encode_identical_and_decoders_interchange(
        self, name, encode, decode, data, repeats
    ):
        data = _runny(data, repeats)
        codec = get_codec(name)
        kernel_blob = codec.compress(data)
        assert kernel_blob == encode(data)
        assert codec.decompress(kernel_blob) == data
        # Decoders are interchangeable in both directions.
        assert decode(kernel_blob) == data

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_UINT64, max_size=400))
    def test_varint_array_identical(self, values):
        arr = np.asarray(values, dtype=np.uint64)
        blob = encode_varint_array(arr)
        assert blob == b"".join(
            reference.encode_varint(v) for v in values
        )
        decoded, consumed = decode_varint_stream(blob, len(values), 0)
        assert consumed == len(blob)
        assert decoded.dtype == np.uint64
        assert decoded.tolist() == values

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_INT64, max_size=400))
    def test_zigzag_array_identical(self, values):
        arr = np.asarray(values, dtype=np.int64)
        blob = encode_zigzag_array(arr)
        assert blob == b"".join(
            reference.encode_zigzag(v) for v in values
        )
        decoded, consumed = decode_zigzag_stream(blob, len(values), 0)
        assert consumed == len(blob)
        assert decoded.tolist() == values


class TestCorruptionResilience:
    """Truncation / bit flips raise CompressionError, never crash."""

    @pytest.mark.parametrize("name,encode,decode", _ORACLES)
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.binary(min_size=1, max_size=600),
        cut=st.integers(0, 599),
        flip=st.integers(0, 599),
        bit=st.integers(0, 7),
    )
    def test_mangled_input_raises_or_decodes(
        self, name, encode, decode, data, cut, flip, bit
    ):
        codec = get_codec(name)
        blob = bytearray(codec.compress(data))
        blob[flip % len(blob)] ^= 1 << bit
        mangled = bytes(blob[: max(1, cut % (len(blob) + 1))])

        def outcome(fn):
            try:
                return fn(mangled)
            except CompressionError:
                return "error"

        kernel = outcome(codec.decompress)
        # Same corrupt bytes -> same result (or both reject): the
        # kernels may not accept streams the oracle rejects, nor the
        # reverse.
        assert kernel == outcome(decode)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(_INT64, min_size=1, max_size=50),
        cut=st.integers(0, 400),
    )
    def test_truncated_varint_stream_raises(self, values, cut):
        blob = encode_zigzag_array(np.asarray(values, dtype=np.int64))
        truncated = blob[: cut % len(blob)]
        with pytest.raises(CompressionError):
            decode_zigzag_stream(truncated, len(values), 0)


def _since(before: CompressionStats) -> CompressionStats:
    """What ``before``'s codec did since that copy of its stats was taken."""
    now = compression_stats(before.name)
    return CompressionStats(
        before.name,
        **{
            f.name: getattr(now, f.name) - getattr(before, f.name)
            for f in fields(CompressionStats)
            if f.name != "name"
        },
    )


class TestCompressionStats:
    def test_encode_decode_accounted(self):
        before = replace(compression_stats("rle"))
        codec = get_codec("rle")
        raw = b"\x05" * 1000
        blob = codec.compress(raw)
        assert codec.decompress(blob) == raw
        stats = _since(before)
        assert stats.encode_calls == 1
        assert stats.encode_bytes_in == 1000
        assert stats.encode_bytes_out == len(blob)
        assert stats.decode_calls == 1
        assert stats.decode_bytes_out == 1000
        assert stats.compression_ratio == pytest.approx(1000 / len(blob))

    def test_codec_object_shares_live_stats(self):
        codec = get_codec("zippy")
        assert codec.stats is compression_stats("zippy")
        before = replace(codec.stats)
        codec.compress(b"abc" * 50)
        assert _since(before).encode_calls == 1

    def test_decode_error_counted(self):
        before = replace(compression_stats("zippy"))
        errors = counters.get("compress.zippy.decode_errors")
        codec = get_codec("zippy")
        with pytest.raises(CompressionError):
            codec.decompress(bytes([4, 0b01, 0xFF]))
        stats = _since(before)
        assert stats.decode_errors == 1
        assert stats.decode_calls == 0  # failed calls are not successes
        assert counters.get("compress.zippy.decode_errors") == errors + 1

    def test_counters_mirror(self):
        names = ("encode_calls", "encode_bytes_in", "decode_calls", "decode_bytes_out")
        before = [counters.get(f"compress.huffman.{name}") for name in names]
        codec = get_codec("huffman")
        blob = codec.compress(b"skewed " * 100)
        codec.decompress(blob)
        after = [counters.get(f"compress.huffman.{name}") for name in names]
        assert [a - b for a, b in zip(after, before)] == [1, 700, 1, 700]

    def test_all_compression_stats_covers_registry(self):
        for name in ("none", "zippy", "lzo", "huffman", "rle"):
            assert isinstance(compression_stats(name), CompressionStats)
            assert compression_stats(name).name == name

    def test_unknown_codec_raises(self):
        with pytest.raises(CompressionError):
            compression_stats("gzip")

    def test_as_dict_round_trips_derived_rates(self):
        before = replace(compression_stats("rle"))
        codec = get_codec("rle")
        codec.compress(b"\x01" * 500)
        payload = _since(before).as_dict()
        assert payload["name"] == "rle"
        assert payload["compression_ratio"] > 1.0
        assert payload["encode_mb_per_s"] >= 0.0
