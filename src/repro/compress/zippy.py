"""Zippy: a from-scratch LZ77 codec with Snappy-style tags.

The paper compresses all of its encodings with Google's internal Zippy
algorithm (open-sourced as Snappy). This module implements the same
design from scratch:

- a varint preamble carrying the uncompressed length,
- *literal* tags (tag low bits ``00``) carrying up to 2**32 raw bytes,
- *copy* tags referencing earlier output, in two shapes:
  ``01`` = length 4..11 with an 11-bit offset, ``10`` = length 1..64
  with a 16-bit offset,
- greedy matching driven by a hash table over 4-byte windows with the
  Snappy "skip ahead on repeated misses" heuristic.

The encoder favours speed over ratio (like Zippy); the LZO-like variant
in :mod:`repro.compress.lzo_like` trades encode time for ~10% better
ratio, matching the Section 5 comparison.

PR 5 vectorized the hot paths while keeping the output byte-identical
to the scalar encoder frozen in ``tests/compress_oracle.py``: the
compressor computes every 4-byte window key in one vectorized pass and
extends matches with doubling slice compares instead of a per-byte
loop; the decompressor copies literals and back-references as slices,
replicating overlapping copies by tiling instead of appending bytes
one at a time. The greedy parse itself stays a Python loop — each step
consumes a data-dependent span — but it no longer touches individual
bytes.
"""

from __future__ import annotations

import numpy as np

from repro.compress.varint import decode_varint, encode_varint
from repro.errors import CompressionError

_MIN_MATCH = 4
_MAX_COPY_LEN = 64
_MAX_OFFSET_1BYTE = 1 << 11  # 01-tag copies: 11-bit offset
_MAX_OFFSET_2BYTE = 1 << 16  # 10-tag copies: 16-bit offset
_TAG_LITERAL = 0b00
_TAG_COPY1 = 0b01
_TAG_COPY2 = 0b10


def _emit_literal(out: bytearray, data: bytes, start: int, end: int) -> None:
    """Append a literal run ``data[start:end]`` with its tag byte(s)."""
    length = end - start
    while length > 0:
        run = min(length, 1 << 32)
        n = run - 1
        if n < 60:
            out.append(_TAG_LITERAL | (n << 2))
        elif n < 1 << 8:
            out.append(_TAG_LITERAL | (60 << 2))
            out.append(n)
        elif n < 1 << 16:
            out.append(_TAG_LITERAL | (61 << 2))
            out += n.to_bytes(2, "little")
        elif n < 1 << 24:
            out.append(_TAG_LITERAL | (62 << 2))
            out += n.to_bytes(3, "little")
        else:
            out.append(_TAG_LITERAL | (63 << 2))
            out += n.to_bytes(4, "little")
        out += data[start : start + run]
        start += run
        length -= run


def _emit_copy(out: bytearray, offset: int, length: int) -> None:
    """Append copy tag(s) for a back-reference of ``length`` at ``offset``."""
    # Long matches are emitted as a sequence of <=64-byte copies.
    while length >= _MAX_COPY_LEN + _MIN_MATCH:
        _emit_one_copy(out, offset, _MAX_COPY_LEN)
        length -= _MAX_COPY_LEN
    if length > _MAX_COPY_LEN:
        # Avoid leaving a tail shorter than a representable copy.
        _emit_one_copy(out, offset, length - _MIN_MATCH)
        length = _MIN_MATCH
    _emit_one_copy(out, offset, length)


def _emit_one_copy(out: bytearray, offset: int, length: int) -> None:
    if 4 <= length <= 11 and offset < _MAX_OFFSET_1BYTE:
        out.append(_TAG_COPY1 | ((length - 4) << 2) | ((offset >> 8) << 5))
        out.append(offset & 0xFF)
    else:
        out.append(_TAG_COPY2 | ((length - 1) << 2))
        out += offset.to_bytes(2, "little")


def window_keys(arr: np.ndarray, count: int) -> np.ndarray:
    """Little-endian 4-byte window key at each of the first ``count``
    positions of a uint8 array — every hash-table key in one pass.
    """
    keys = arr[:count].astype(np.uint32)
    keys |= arr[1 : count + 1].astype(np.uint32) << np.uint32(8)
    keys |= arr[2 : count + 2].astype(np.uint32) << np.uint32(16)
    keys |= arr[3 : count + 3].astype(np.uint32) << np.uint32(24)
    return keys


def match_extension(data: bytes, a: int, b: int, max_extra: int) -> int:
    """Length of the common run of ``data[a:]`` and ``data[b:]``, capped
    at ``max_extra`` — doubling slice compares instead of a per-byte
    walk; the first differing byte falls out of one XOR.
    """
    if max_extra <= 0 or data[a] != data[b]:
        return 0
    length = 0
    span = 8
    while length < max_extra:
        step = min(span, max_extra - length)
        x = data[a + length : a + length + step]
        y = data[b + length : b + length + step]
        if x != y:
            diff = int.from_bytes(x, "little") ^ int.from_bytes(y, "little")
            return length + (((diff & -diff).bit_length() - 1) >> 3)
        length += step
        span <<= 1
    return length


def zippy_compress(data: bytes) -> bytes:
    """Compress ``data``; the result always round-trips via
    :func:`zippy_decompress` and is byte-identical to the frozen
    scalar encoder.
    """
    n = len(data)
    out = bytearray(encode_varint(n))
    if n < _MIN_MATCH:
        if n:
            _emit_literal(out, data, 0, n)
        return bytes(out)

    arr = np.frombuffer(data, dtype=np.uint8)
    limit = n - _MIN_MATCH
    keys = window_keys(arr, limit + 1)
    key_list = keys.tolist()  # scalar dict keys; one bulk conversion
    table: dict[int, int] = {}
    pos = 0
    literal_start = 0
    skip = 32  # Snappy heuristic: 1 extra skip per 32 misses.
    while pos <= limit:  # greedy parse advances by whole matches
        key = key_list[pos]
        candidate = table.get(key)
        table[key] = pos
        if candidate is not None and pos - candidate < _MAX_OFFSET_2BYTE:
            # Equal keys mean equal 4-byte windows: the key *is* the
            # bytes. Extend by doubling slice compares (inlined from
            # match_extension — this runs once per emitted copy).
            base_c = candidate + _MIN_MATCH
            base_p = pos + _MIN_MATCH
            extra_cap = n - base_p
            extra = 0
            span = 8
            while extra < extra_cap:
                step = span if span < extra_cap - extra else extra_cap - extra
                x = data[base_c + extra : base_c + extra + step]
                y = data[base_p + extra : base_p + extra + step]
                if x != y:
                    diff = int.from_bytes(x, "little") ^ int.from_bytes(y, "little")
                    extra += ((diff & -diff).bit_length() - 1) >> 3
                    break
                extra += step
                span <<= 1
            match_len = _MIN_MATCH + extra
            if literal_start < pos:
                _emit_literal(out, data, literal_start, pos)
            _emit_copy(out, pos - candidate, match_len)
            # Seed the table at the end of the match so adjacent repeats
            # are found without hashing every interior position.
            end = pos + match_len
            if end - 1 <= limit:
                table[key_list[end - 1]] = end - 1
            pos = end
            literal_start = pos
            skip = 32
        else:
            pos += 1 + (skip >> 5)
            skip += 1
    if literal_start < n:
        _emit_literal(out, data, literal_start, n)
    return bytes(out)


def zippy_decompress(data: bytes) -> bytes:
    """Decompress a buffer produced by :func:`zippy_compress`."""
    expected, pos = decode_varint(data, 0)
    out = bytearray()
    n = len(data)
    while pos < n:  # per-tag dispatch; all byte copies are slices
        tag = data[pos]
        pos += 1
        kind = tag & 0b11
        if kind == _TAG_LITERAL:
            marker = tag >> 2
            if marker < 60:
                length = marker + 1
            else:
                extra = marker - 59
                if pos + extra > n:
                    raise CompressionError("truncated literal length")
                length = int.from_bytes(data[pos : pos + extra], "little") + 1
                pos += extra
            if pos + length > n:
                raise CompressionError("truncated literal body")
            out += data[pos : pos + length]
            pos += length
        elif kind == _TAG_COPY1:
            if pos >= n:
                raise CompressionError("truncated 1-byte-offset copy")
            length = ((tag >> 2) & 0b111) + 4
            offset = ((tag >> 5) << 8) | data[pos]
            pos += 1
            _apply_copy(out, offset, length)
        elif kind == _TAG_COPY2:
            if pos + 2 > n:
                raise CompressionError("truncated 2-byte-offset copy")
            length = (tag >> 2) + 1
            offset = int.from_bytes(data[pos : pos + 2], "little")
            pos += 2
            _apply_copy(out, offset, length)
        else:
            raise CompressionError(f"unknown tag kind {kind:#b}")
    if len(out) != expected:
        raise CompressionError(
            f"decompressed size {len(out)} != declared {expected}"
        )
    return bytes(out)


def _apply_copy(out: bytearray, offset: int, length: int) -> None:
    """Copy ``length`` bytes from ``offset`` back in ``out`` (may overlap)."""
    if offset <= 0 or offset > len(out):
        raise CompressionError(f"copy offset {offset} out of range")
    start = len(out) - offset
    if offset >= length:
        out += out[start : start + length]
    else:
        # Overlapping copy: the source period repeats, so tile it out
        # to the requested length instead of appending byte by byte.
        tile = bytes(out[start:])
        out += (tile * (length // offset + 1))[:length]
