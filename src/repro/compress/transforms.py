"""Byte-stream transform stages for the cascade pipelines (PR 9).

These are not general-purpose compressors on their own — they are the
reorderings and repackings Rozenberg's composite-compression model
("Faster across the PCIe bus", PAPERS.md) composes *around* an entropy
stage. Each one is a total bytes -> bytes bijection with an explicit
self-delimiting frame, so any chain of stages round-trips byte-exactly
and the registry can treat a cascade like an atomic codec:

- ``delta``  — byte-wise difference mod 256. Length-preserving, no
  frame needed: sorted or slowly-varying payloads (packed element
  arrays, dictionary deltas) collapse to near-zero bytes that RLE,
  word-varint or an LZ stage then shrink.
- ``varint`` — word-pack: the payload is viewed as little-endian
  uint32 words (zero-padded) and each word is varint-encoded. Frame:
  ``varint(raw_len)`` so the pad is dropped exactly on decode. Packed
  arrays whose high bytes are zero (small ids, delta'd values) lose
  most of their width.
- ``dict``   — dense byte remap: distinct byte values are replaced by
  their rank. Frame: ``varint(raw_len) varint(n_distinct) table
  ranks``. Canonicalizes few-symbol payloads into the dense low range
  before an RLE or word-pack stage.

All kernels are numpy bulk passes (no per-byte Python walks).
Malformed frames raise :class:`~repro.errors.CompressionError`, like
every other codec.
"""

from __future__ import annotations

import numpy as np

from repro.compress.varint import (
    decode_varint,
    decode_varint_stream,
    encode_varint,
    encode_varint_array,
)
from repro.errors import CompressionError

_WORD_BYTES = 4
_MAX_WORD = 0xFFFFFFFF


# -- delta (byte-wise difference mod 256) -----------------------------------


def delta_encode_bytes(data: bytes) -> bytes:
    """Byte-wise delta mod 256 (length-preserving; first byte kept)."""
    if not data:
        return b""
    arr = np.frombuffer(data, dtype=np.uint8)
    shifted = np.concatenate(
        (np.zeros(1, dtype=np.uint8), arr[:-1])
    )
    # uint8 subtraction wraps mod 256, which is exactly the inverse of
    # the cumulative sum below.
    return np.subtract(arr, shifted).tobytes()


def delta_decode_bytes(data: bytes) -> bytes:
    """Inverse of :func:`delta_encode_bytes` (cumulative sum mod 256)."""
    if not data:
        return b""
    arr = np.frombuffer(data, dtype=np.uint8)
    return np.add.accumulate(arr, dtype=np.uint8).tobytes()


# -- varint (little-endian uint32 word-pack) --------------------------------


def wordpack_encode_bytes(data: bytes) -> bytes:
    """Varint-encode the payload as zero-padded little-endian u32 words."""
    head = encode_varint(len(data))
    if not data:
        return head
    pad = (-len(data)) % _WORD_BYTES
    words = np.frombuffer(data + b"\x00" * pad, dtype="<u4")
    return head + encode_varint_array(words.astype(np.int64))


def wordpack_decode_bytes(data: bytes) -> bytes:
    """Inverse of :func:`wordpack_encode_bytes`."""
    total, pos = decode_varint(data, 0)
    if not total:
        if pos != len(data):
            raise CompressionError(
                f"word-pack: {len(data) - pos} trailing byte(s) after an "
                "empty payload"
            )
        return b""
    n_words = (total + _WORD_BYTES - 1) // _WORD_BYTES
    words, consumed = decode_varint_stream(
        memoryview(data)[pos:], n_words, 0
    )
    if pos + consumed != len(data):
        raise CompressionError(
            f"word-pack: frame says {n_words} words but "
            f"{len(data) - pos - consumed} byte(s) trail the stream"
        )
    if int(words.max()) > _MAX_WORD:
        raise CompressionError("word-pack: word beyond uint32 range")
    raw = words.astype("<u4").tobytes()
    if any(raw[total:].strip(b"\x00")):
        raise CompressionError("word-pack: nonzero pad bytes")
    return raw[:total]


# -- dict (dense byte remap) ------------------------------------------------


def bytedict_encode_bytes(data: bytes) -> bytes:
    """Replace each byte with its rank among the distinct bytes present."""
    head = encode_varint(len(data))
    if not data:
        return head
    arr = np.frombuffer(data, dtype=np.uint8)
    table = np.unique(arr)  # sorted distinct byte values
    ranks = np.searchsorted(table, arr).astype(np.uint8)
    return (
        head
        + encode_varint(int(table.size))
        + table.tobytes()
        + ranks.tobytes()
    )


def bytedict_decode_bytes(data: bytes) -> bytes:
    """Inverse of :func:`bytedict_encode_bytes` (table gather)."""
    total, pos = decode_varint(data, 0)
    if not total:
        if pos != len(data):
            raise CompressionError(
                f"byte-dict: {len(data) - pos} trailing byte(s) after an "
                "empty payload"
            )
        return b""
    n_distinct, pos = decode_varint(data, pos)
    if not 1 <= n_distinct <= 256:
        raise CompressionError(
            f"byte-dict: table size {n_distinct} outside [1, 256]"
        )
    if pos + n_distinct > len(data):
        raise CompressionError("byte-dict: table truncated")
    table = np.frombuffer(data, dtype=np.uint8, count=n_distinct, offset=pos)
    pos += n_distinct
    ranks = np.frombuffer(data, dtype=np.uint8, offset=pos)
    if ranks.size != total:
        raise CompressionError(
            f"byte-dict: frame says {total} bytes, payload holds "
            f"{ranks.size}"
        )
    if int(ranks.max()) >= n_distinct:
        raise CompressionError(
            f"byte-dict: rank {int(ranks.max())} outside the "
            f"{n_distinct}-entry table"
        )
    return table[ranks].tobytes()
