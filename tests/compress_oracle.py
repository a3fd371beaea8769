"""Frozen scalar codec implementations: the byte-identity oracles.

PR 5 rewrote the hot paths of every codec in :mod:`repro.compress` as
numpy bulk kernels. This module keeps the original per-byte scalar
implementations **verbatim and frozen** so that the vectorized kernels
can be differentially tested against them forever
(``tests/test_compress_kernels.py``) — the same oracle pattern as
``tests/import_oracle.py`` and ``tests/engine_oracle.py``.

Rules for this module:

- never "optimize" it: its only job is to define the correct bytes;
- it has no dependencies beyond the error types, so a bug in the live
  kernels can never leak into the oracle.

Functions mirror the live API names; import the module qualified
(``from tests import compress_oracle as reference``) so call sites read
as ``reference.zippy_compress(...)``.
"""

from __future__ import annotations

import heapq

from repro.errors import CompressionError

# --------------------------------------------------------------------------
# varint / zigzag
# --------------------------------------------------------------------------


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a base-128 varint."""
    if value < 0:
        raise CompressionError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes | memoryview, pos: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` starting at ``pos``."""
    result = 0
    shift = 0
    start = pos
    while True:
        if pos >= len(data):
            raise CompressionError(f"truncated varint at offset {start}")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CompressionError(f"varint too long at offset {start}")


def encode_zigzag(value: int) -> bytes:
    """Encode a signed integer with zigzag mapping then varint."""
    return encode_varint((value << 1) ^ (value >> 63) if value < 0 else value << 1)


def decode_zigzag(data: bytes | memoryview, pos: int = 0) -> tuple[int, int]:
    """Decode a zigzag varint; returns ``(value, next_pos)``."""
    raw, pos = decode_varint(data, pos)
    return (raw >> 1) ^ -(raw & 1), pos


def encode_varint_array(values) -> bytes:
    """Concatenated varints of ``values`` — the bulk-kernel oracle."""
    out = bytearray()
    for value in values:
        out += encode_varint(int(value))
    return bytes(out)


def decode_varint_stream(
    data: bytes | memoryview, count: int, pos: int = 0
) -> tuple[list[int], int]:
    """Decode ``count`` adjacent varints; returns ``(values, next_pos)``."""
    values: list[int] = []
    for _ in range(count):
        value, pos = decode_varint(data, pos)
        values.append(value)
    return values, pos


def encode_zigzag_array(values) -> bytes:
    """Concatenated zigzag varints of ``values``."""
    out = bytearray()
    for value in values:
        out += encode_zigzag(int(value))
    return bytes(out)


def decode_zigzag_stream(
    data: bytes | memoryview, count: int, pos: int = 0
) -> tuple[list[int], int]:
    """Decode ``count`` adjacent zigzag varints."""
    values: list[int] = []
    for _ in range(count):
        value, pos = decode_zigzag(data, pos)
        values.append(value)
    return values, pos


# --------------------------------------------------------------------------
# byte-level RLE
# --------------------------------------------------------------------------


def rle_encode_bytes(data: bytes) -> bytes:
    """Encode ``data`` as varint(total) || (varint(run) byte)*."""
    out = bytearray(encode_varint(len(data)))
    i = 0
    n = len(data)
    while i < n:
        byte = data[i]
        j = i + 1
        while j < n and data[j] == byte:
            j += 1
        out += encode_varint(j - i)
        out.append(byte)
        i = j
    return bytes(out)


def rle_decode_bytes(data: bytes) -> bytes:
    """Decode a buffer produced by :func:`rle_encode_bytes`."""
    expected, pos = decode_varint(data, 0)
    out = bytearray()
    n = len(data)
    while pos < n:
        run, pos = decode_varint(data, pos)
        if pos >= n:
            raise CompressionError("truncated RLE pair")
        out += bytes([data[pos]]) * run
        pos += 1
    if len(out) != expected:
        raise CompressionError(f"decoded {len(out)} bytes, expected {expected}")
    return bytes(out)


# --------------------------------------------------------------------------
# Zippy (Snappy-style LZ77)
# --------------------------------------------------------------------------

_MIN_MATCH = 4
_MAX_COPY_LEN = 64
_MAX_OFFSET_1BYTE = 1 << 11
_MAX_OFFSET_2BYTE = 1 << 16
_TAG_LITERAL = 0b00
_TAG_COPY1 = 0b01
_TAG_COPY2 = 0b10
_TAG_COPY3 = 0b11


def _zippy_emit_literal(out: bytearray, data: bytes, start: int, end: int) -> None:
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


def _zippy_emit_copy(out: bytearray, offset: int, length: int) -> None:
    while length >= _MAX_COPY_LEN + _MIN_MATCH:
        _zippy_emit_one_copy(out, offset, _MAX_COPY_LEN)
        length -= _MAX_COPY_LEN
    if length > _MAX_COPY_LEN:
        _zippy_emit_one_copy(out, offset, length - _MIN_MATCH)
        length = _MIN_MATCH
    _zippy_emit_one_copy(out, offset, length)


def _zippy_emit_one_copy(out: bytearray, offset: int, length: int) -> None:
    if 4 <= length <= 11 and offset < _MAX_OFFSET_1BYTE:
        out.append(_TAG_COPY1 | ((length - 4) << 2) | ((offset >> 8) << 5))
        out.append(offset & 0xFF)
    else:
        out.append(_TAG_COPY2 | ((length - 1) << 2))
        out += offset.to_bytes(2, "little")


def zippy_compress(data: bytes) -> bytes:
    """The frozen per-byte Zippy encoder."""
    n = len(data)
    out = bytearray(encode_varint(n))
    if n < _MIN_MATCH:
        if n:
            _zippy_emit_literal(out, data, 0, n)
        return bytes(out)

    table: dict[int, int] = {}
    pos = 0
    literal_start = 0
    limit = n - _MIN_MATCH
    skip = 32
    while pos <= limit:
        key = int.from_bytes(data[pos : pos + _MIN_MATCH], "little")
        candidate = table.get(key)
        table[key] = pos
        if (
            candidate is not None
            and pos - candidate < _MAX_OFFSET_2BYTE
            and data[candidate : candidate + _MIN_MATCH]
            == data[pos : pos + _MIN_MATCH]
        ):
            match_len = _MIN_MATCH
            max_len = n - pos
            while (
                match_len < max_len
                and data[candidate + match_len] == data[pos + match_len]
            ):
                match_len += 1
            if literal_start < pos:
                _zippy_emit_literal(out, data, literal_start, pos)
            _zippy_emit_copy(out, pos - candidate, match_len)
            end = pos + match_len
            if end - 1 <= limit:
                tail_key = int.from_bytes(
                    data[end - 1 : end - 1 + _MIN_MATCH], "little"
                )
                table[tail_key] = end - 1
            pos = end
            literal_start = pos
            skip = 32
        else:
            pos += 1 + (skip >> 5)
            skip += 1
    if literal_start < n:
        _zippy_emit_literal(out, data, literal_start, n)
    return bytes(out)


def zippy_decompress(data: bytes) -> bytes:
    """The frozen per-byte Zippy decoder."""
    expected, pos = decode_varint(data, 0)
    out = bytearray()
    n = len(data)
    while pos < n:
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
    """The frozen per-byte overlapping copy (both LZ codecs share it)."""
    if offset <= 0 or offset > len(out):
        raise CompressionError(f"copy offset {offset} out of range")
    start = len(out) - offset
    if offset >= length:
        out += out[start : start + length]
    else:
        for i in range(length):
            out.append(out[start + i])


# --------------------------------------------------------------------------
# LZO-like (lazy matching, chained candidates)
# --------------------------------------------------------------------------

_LZO_MIN_MATCH = 3
_LZO_HASH_LEN = 4
_LZO_MAX_OFFSET = 1 << 20
_LZO_CHAIN_LEN = 8


def _lzo_emit_literal(out: bytearray, data: bytes, start: int, end: int) -> None:
    length = end - start
    while length > 0:
        run = min(length, 1 << 16)
        n = run - 1
        if n < 60:
            out.append(_TAG_LITERAL | (n << 2))
        else:
            out.append(_TAG_LITERAL | (61 << 2))
            out += n.to_bytes(2, "little")
        out += data[start : start + run]
        start += run
        length -= run


def _lzo_emit_copy(out: bytearray, offset: int, length: int) -> None:
    while length > 0:
        run = min(length, 255 + _LZO_MIN_MATCH)
        if run >= 64 and length - run < _LZO_MIN_MATCH and length != run:
            run = length - _LZO_MIN_MATCH
        if 4 <= run <= 11 and offset < 1 << 11:
            out.append(_TAG_COPY1 | ((run - 4) << 2) | ((offset >> 8) << 5))
            out.append(offset & 0xFF)
        elif run <= 64 and offset < 1 << 16:
            out.append(_TAG_COPY2 | ((run - 1) << 2))
            out += offset.to_bytes(2, "little")
        else:
            out.append(_TAG_COPY3)
            out.append(run - _LZO_MIN_MATCH)
            out += offset.to_bytes(3, "little")
        length -= run


def _match_length(data: bytes, a: int, b: int, limit: int) -> int:
    length = 0
    while b + length < limit and data[a + length] == data[b + length]:
        length += 1
    return length


def _best_match(
    data: bytes, pos: int, chain: list[int], limit: int
) -> tuple[int, int]:
    best_len = 0
    best_off = 0
    for candidate in reversed(chain):
        offset = pos - candidate
        if offset <= 0 or offset >= _LZO_MAX_OFFSET:
            continue
        length = _match_length(data, candidate, pos, limit)
        if length > best_len:
            best_len = length
            best_off = offset
    return best_len, best_off


def lzo_compress(data: bytes) -> bytes:
    """The frozen per-byte LZO-like encoder."""
    n = len(data)
    out = bytearray(encode_varint(n))
    if n < _LZO_HASH_LEN:
        if n:
            _lzo_emit_literal(out, data, 0, n)
        return bytes(out)

    table: dict[int, list[int]] = {}
    pos = 0
    literal_start = 0
    limit = n - _LZO_HASH_LEN

    def key_at(i: int) -> int:
        return int.from_bytes(data[i : i + _LZO_HASH_LEN], "little")

    def insert(i: int) -> None:
        chain = table.setdefault(key_at(i), [])
        chain.append(i)
        if len(chain) > _LZO_CHAIN_LEN:
            del chain[0]

    while pos <= limit:
        chain = table.get(key_at(pos), ())
        length, offset = _best_match(data, pos, list(chain), n)
        if length >= _LZO_HASH_LEN:
            if pos + 1 <= limit:
                next_chain = table.get(key_at(pos + 1), ())
                next_len, __ = _best_match(data, pos + 1, list(next_chain), n)
                if next_len > length + 1:
                    insert(pos)
                    pos += 1
                    continue
            if literal_start < pos:
                _lzo_emit_literal(out, data, literal_start, pos)
            _lzo_emit_copy(out, offset, length)
            end = min(pos + length, limit + 1)
            step = max(1, length // 4)
            for i in range(pos, end, step):
                insert(i)
            pos += length
            literal_start = pos
        else:
            insert(pos)
            pos += 1
    if literal_start < n:
        _lzo_emit_literal(out, data, literal_start, n)
    return bytes(out)


def lzo_decompress(data: bytes) -> bytes:
    """The frozen per-byte LZO-like decoder."""
    expected, pos = decode_varint(data, 0)
    out = bytearray()
    n = len(data)
    while pos < n:
        tag = data[pos]
        pos += 1
        kind = tag & 0b11
        if kind == _TAG_LITERAL:
            marker = tag >> 2
            if marker < 60:
                length = marker + 1
            else:
                if pos + 2 > n:
                    raise CompressionError("truncated literal length")
                length = int.from_bytes(data[pos : pos + 2], "little") + 1
                pos += 2
            if pos + length > n:
                raise CompressionError("truncated literal body")
            out += data[pos : pos + length]
            pos += length
        elif kind == _TAG_COPY1:
            if pos >= n:
                raise CompressionError("truncated short copy")
            length = ((tag >> 2) & 0b111) + 4
            offset = ((tag >> 5) << 8) | data[pos]
            pos += 1
            _apply_copy(out, offset, length)
        elif kind == _TAG_COPY2:
            if pos + 2 > n:
                raise CompressionError("truncated copy")
            length = (tag >> 2) + 1
            offset = int.from_bytes(data[pos : pos + 2], "little")
            pos += 2
            _apply_copy(out, offset, length)
        elif kind == _TAG_COPY3:
            if pos + 4 > n:
                raise CompressionError("truncated long copy")
            length = data[pos] + _LZO_MIN_MATCH
            offset = int.from_bytes(data[pos + 1 : pos + 4], "little")
            pos += 4
            _apply_copy(out, offset, length)
        else:
            raise CompressionError(f"unknown tag kind {kind:#b}")
    if len(out) != expected:
        raise CompressionError(
            f"decompressed size {len(out)} != declared {expected}"
        )
    return bytes(out)


# --------------------------------------------------------------------------
# canonical Huffman
# --------------------------------------------------------------------------

_MAX_CODE_LEN = 32


def _code_lengths(freqs: list[int]) -> list[int]:
    """Huffman code length per symbol (0 for absent symbols)."""
    heap: list[tuple[int, int, tuple]] = []
    tick = 0
    for symbol, freq in enumerate(freqs):
        if freq:
            heap.append((freq, tick, (symbol,)))
            tick += 1
    if not heap:
        return [0] * 256
    if len(heap) == 1:
        lengths = [0] * 256
        lengths[heap[0][2][0]] = 1
        return lengths
    heapq.heapify(heap)
    lengths = [0] * 256
    while len(heap) > 1:
        fa, __, syms_a = heapq.heappop(heap)
        fb, __, syms_b = heapq.heappop(heap)
        merged = syms_a + syms_b
        for symbol in merged:
            lengths[symbol] += 1
        heapq.heappush(heap, (fa + fb, tick, merged))
        tick += 1
    return lengths


def _canonical_codes(lengths: list[int]) -> dict[int, tuple[int, int]]:
    """Map symbol -> (code, length) in canonical order."""
    symbols = sorted(
        (s for s in range(256) if lengths[s]), key=lambda s: (lengths[s], s)
    )
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    prev_len = 0
    for symbol in symbols:
        length = lengths[symbol]
        code <<= length - prev_len
        codes[symbol] = (code, length)
        code += 1
        prev_len = length
    return codes


def huffman_compress(data: bytes) -> bytes:
    """The frozen per-byte Huffman encoder."""
    out = bytearray(encode_varint(len(data)))
    if not data:
        return bytes(out)
    freqs = [0] * 256
    for byte in data:
        freqs[byte] += 1
    lengths = _code_lengths(freqs)
    if max(lengths) > _MAX_CODE_LEN:
        raise CompressionError("Huffman code length exceeds 32 bits")
    out += bytes(lengths)
    codes = _canonical_codes(lengths)
    acc = 0
    bits = 0
    for byte in data:
        code, length = codes[byte]
        acc = (acc << length) | code
        bits += length
        while bits >= 8:
            bits -= 8
            out.append((acc >> bits) & 0xFF)
    if bits:
        out.append((acc << (8 - bits)) & 0xFF)
    return bytes(out)


def huffman_decompress(data: bytes) -> bytes:
    """The frozen per-byte Huffman decoder."""
    expected, pos = decode_varint(data, 0)
    if expected == 0:
        return b""
    if pos + 256 > len(data):
        raise CompressionError("truncated Huffman length table")
    lengths = list(data[pos : pos + 256])
    pos += 256
    codes = _canonical_codes(lengths)
    if not codes:
        raise CompressionError("empty Huffman code for non-empty payload")
    decode_map = {(ln, code): sym for sym, (code, ln) in codes.items()}
    out = bytearray()
    acc = 0
    bits = 0
    for byte in data[pos:]:
        acc = (acc << 8) | byte
        bits += 8
        while True:
            matched = False
            for ln in range(1, min(bits, _MAX_CODE_LEN) + 1):
                prefix = acc >> (bits - ln)
                symbol = decode_map.get((ln, prefix))
                if symbol is not None:
                    out.append(symbol)
                    bits -= ln
                    acc &= (1 << bits) - 1
                    matched = True
                    break
            if not matched or len(out) == expected:
                break
        if len(out) == expected:
            break
    if len(out) != expected:
        raise CompressionError(
            f"decoded {len(out)} symbols, expected {expected}"
        )
    return bytes(out)


def zippy_huffman_compress(data: bytes) -> bytes:
    """The frozen stacked codec (zippy then Huffman)."""
    return huffman_compress(zippy_compress(data))


def zippy_huffman_decompress(data: bytes) -> bytes:
    """Inverse of :func:`zippy_huffman_compress`."""
    return zippy_decompress(huffman_decompress(data))
