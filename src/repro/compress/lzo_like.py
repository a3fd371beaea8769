"""An LZO-like LZ77 variant: lazy matching and chained candidates.

Section 5 of the paper reports that a variant of LZO was chosen for
production because it compressed ~10% better than Zippy and decompressed
up to twice as fast. This codec reproduces those trade-offs relative to
:mod:`repro.compress.zippy`:

- *lazy matching*: before emitting a match at ``pos`` the encoder also
  probes ``pos + 1`` and defers if the later match is longer,
- *candidate chains*: each hash bucket keeps a short chain of previous
  positions instead of a single one, finding longer matches,
- a 3-byte minimum match, catching short repeats zippy skips.

The output format reuses zippy's tag scheme plus one extra tag kind
(``11`` = copy with 3-byte offset and explicit length byte) so matches
can reference further back. Decompression is a single linear pass.

Like :mod:`repro.compress.zippy` (PR 5), the hot paths are bulk
operations byte-identical to the scalar encoder frozen in
``tests/compress_oracle.py``: window keys come from one vectorized
pass, candidate matches extend via doubling slice compares, and
overlapping copies tile instead of appending per byte.
"""

from __future__ import annotations

import numpy as np

from repro.compress.varint import decode_varint, encode_varint
from repro.compress.zippy import match_extension, window_keys
from repro.errors import CompressionError

_MIN_MATCH = 3
_HASH_LEN = 4  # candidate keys hash 4 bytes; 3-byte keys collide badly
_MAX_OFFSET = 1 << 20
_CHAIN_LEN = 8
_TAG_LITERAL = 0b00
_TAG_COPY1 = 0b01  # 11-bit offset, length 4..11 (2 bytes total)
_TAG_COPY2 = 0b10
_TAG_COPY3 = 0b11


def _emit_literal(out: bytearray, data: bytes, start: int, end: int) -> None:
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


def _emit_copy(out: bytearray, offset: int, length: int) -> None:
    while length > 0:
        run = min(length, 255 + _MIN_MATCH)
        if run >= 64 and length - run < _MIN_MATCH and length != run:
            run = length - _MIN_MATCH
        if 4 <= run <= 11 and offset < 1 << 11:
            out.append(_TAG_COPY1 | ((run - 4) << 2) | ((offset >> 8) << 5))
            out.append(offset & 0xFF)
        elif run <= 64 and offset < 1 << 16:
            out.append(_TAG_COPY2 | ((run - 1) << 2))
            out += offset.to_bytes(2, "little")
        else:
            out.append(_TAG_COPY3)
            out.append(run - _MIN_MATCH)
            out += offset.to_bytes(3, "little")
        length -= run


def _best_match(
    data: bytes, pos: int, chain: list[int], limit: int
) -> tuple[int, int]:
    """Best (length, offset) among chained candidates; (0, 0) if none."""
    best_len = 0
    best_off = 0
    for candidate in reversed(chain):
        offset = pos - candidate
        if offset <= 0 or offset >= _MAX_OFFSET:
            continue
        length = match_extension(data, candidate, pos, limit - pos)
        if length > best_len:
            best_len = length
            best_off = offset
    return best_len, best_off


def lzo_compress(data: bytes) -> bytes:
    """Compress ``data`` with lazy matching; round-trips via
    :func:`lzo_decompress`.
    """
    n = len(data)
    out = bytearray(encode_varint(n))
    if n < _HASH_LEN:
        if n:
            _emit_literal(out, data, 0, n)
        return bytes(out)

    table: dict[int, list[int]] = {}
    pos = 0
    literal_start = 0
    limit = n - _HASH_LEN
    key_list = window_keys(
        np.frombuffer(data, dtype=np.uint8), limit + 1
    ).tolist()

    def key_at(i: int) -> int:
        return key_list[i]

    def insert(i: int) -> None:
        chain = table.setdefault(key_at(i), [])
        chain.append(i)
        if len(chain) > _CHAIN_LEN:
            del chain[0]

    # Lazy greedy parse: advances by whole matches; per-index access
    # goes through key_at/insert.
    while pos <= limit:
        chain = table.get(key_at(pos), ())
        length, offset = _best_match(data, pos, list(chain), n)
        # A 3-byte match emitted as a 3-byte copy tag saves nothing and
        # splits literal runs; only matches of >= 4 bytes are profitable.
        if length >= _HASH_LEN:
            # Lazy evaluation: a longer match starting one byte later wins.
            if pos + 1 <= limit:
                next_chain = table.get(key_at(pos + 1), ())
                next_len, __ = _best_match(data, pos + 1, list(next_chain), n)
                if next_len > length + 1:
                    insert(pos)
                    pos += 1
                    continue
            if literal_start < pos:
                _emit_literal(out, data, literal_start, pos)
            _emit_copy(out, offset, length)
            end = min(pos + length, limit + 1)
            # Index a few positions inside the match to keep chains warm.
            step = max(1, length // 4)
            for i in range(pos, end, step):
                insert(i)
            pos += length
            literal_start = pos
        else:
            insert(pos)
            pos += 1
    if literal_start < n:
        _emit_literal(out, data, literal_start, n)
    return bytes(out)


def lzo_decompress(data: bytes) -> bytes:
    """Decompress a buffer produced by :func:`lzo_compress`."""
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
            length = data[pos] + _MIN_MATCH
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


def _apply_copy(out: bytearray, offset: int, length: int) -> None:
    if offset <= 0 or offset > len(out):
        raise CompressionError(f"copy offset {offset} out of range")
    start = len(out) - offset
    if offset >= length:
        out += out[start : start + length]
    else:
        # Overlapping copy: tile the periodic source instead of
        # appending byte by byte.
        tile = bytes(out[start:])
        out += (tile * (length // offset + 1))[:length]
