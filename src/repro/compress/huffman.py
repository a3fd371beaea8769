"""Canonical Huffman coding over bytes.

Section 5 of the paper tests ZLIB "with additional Huffman coding",
observing 20-30% better ratios at up to an order of magnitude more CPU.
This module provides the Huffman stage: a canonical code built from byte
frequencies, serialized as the 256 code lengths, followed by the packed
bitstream. Stack it on an LZ codec (see ``zippy+huffman`` in
:mod:`repro.compress.registry`) to reproduce the ZLIB-like variant.

PR 5 vectorized both directions, byte-identical to the scalar codec
frozen in ``tests/compress_oracle.py``. Encoding gathers every
symbol's code and length with one fancy index, lays the bits out with a
chunked 2-D scatter, and packs them with ``np.packbits`` (whose
right-padding of the final byte matches the scalar accumulator).
Decoding is the interesting direction: symbol boundaries in a Huffman
bitstream are sequential, so the kernel materializes a 32-bit window at
*every* bit position, resolves each position's would-be symbol through
the canonical per-length code ranges, and then selects the true symbol
starts with :func:`repro.compress.bulk.mark_chain` in O(log n)
pointer-doubling rounds. Only the code-length tree construction keeps
its scalar heap loop — it runs once per 256-entry frequency table, not
per byte.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.compress.bulk import mark_chain
from repro.compress.varint import decode_varint, encode_varint
from repro.errors import CompressionError

_MAX_CODE_LEN = 32

#: Symbols per 2-D bit-scatter chunk; bounds scratch memory at roughly
#: ``3 * 10 bytes * 65536 * max_code_len`` regardless of input size.
_ENCODE_CHUNK = 1 << 16


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
    # Heap merge: one round per tree node (<= 255), not per input byte.
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
    """Compress ``data`` with a canonical Huffman code.

    Output layout: varint(len(data)) || 256 length bytes || bitstream.
    """
    out = bytearray(encode_varint(len(data)))
    if not data:
        return bytes(out)
    arr = np.frombuffer(data, dtype=np.uint8)
    freqs = np.bincount(arr, minlength=256).tolist()
    lengths = _code_lengths(freqs)
    if max(lengths) > _MAX_CODE_LEN:
        raise CompressionError("Huffman code length exceeds 32 bits")
    out += bytes(lengths)
    codes = _canonical_codes(lengths)
    code_table = np.zeros(256, dtype=np.uint64)
    len_table = np.zeros(256, dtype=np.int64)
    for symbol, (code, length) in codes.items():
        code_table[symbol] = code
        len_table[symbol] = length
    sym_lens = len_table[arr]
    sym_codes = code_table[arr]
    ends = np.cumsum(sym_lens)
    starts = ends - sym_lens
    bits = np.zeros(int(ends[-1]), dtype=np.uint8)
    for lo in range(0, arr.size, _ENCODE_CHUNK):
        cl = sym_lens[lo : lo + _ENCODE_CHUNK]
        cv = sym_codes[lo : lo + _ENCODE_CHUNK]
        st = starts[lo : lo + _ENCODE_CHUNK]
        width = int(cl.max())
        k = np.arange(width, dtype=np.int64)[None, :]
        valid = k < cl[:, None]
        # Bit k of a symbol is its code shifted down by (len - 1 - k),
        # MSB first; invalid lanes clamp the shift to keep uint64 happy.
        shifts = np.maximum(cl[:, None] - 1 - k, 0).astype(np.uint64)
        lanes = ((cv[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        positions = st[:, None] + k
        bits[positions[valid]] = lanes[valid]
    out += np.packbits(bits).tobytes()
    return bytes(out)


def _decode_tables(
    lengths: list[int],
) -> list[tuple[int, int, np.ndarray]]:
    """Canonical decode ranges: (length, first code, symbols) ascending.

    Within one length canonical codes are consecutive integers, so a
    prefix matches iff it falls in ``[first, first + len(symbols))``.
    Lengths beyond 32 bits are omitted — the scalar decoder never tries
    them either (they only occur in corrupted length tables).
    """
    by_len: dict[int, tuple[int, list[int]]] = {}
    for symbol, (code, length) in _canonical_codes(lengths).items():
        if length > _MAX_CODE_LEN:
            continue
        if length not in by_len:
            by_len[length] = (code, [])
        by_len[length][1].append(symbol)
    return [
        (length, first, np.asarray(symbols, dtype=np.uint8))
        for length, (first, symbols) in sorted(by_len.items())
    ]


def _bit_windows(payload: np.ndarray) -> tuple[np.ndarray, int]:
    """32-bit big-endian window at every bit position of ``payload``.

    Returns ``(windows, nbits)``; windows past the end are zero-padded.
    Built from 40-bit byte-aligned windows (five shift-or passes over
    the byte array) plus one sub-byte shift, instead of 32 passes over
    the unpacked bit array.
    """
    nb = payload.size
    nbits = nb * 8
    padded = np.zeros(nb + 5, dtype=np.uint8)
    padded[:nb] = payload
    byte_windows = np.zeros(nb, dtype=np.uint64)
    for k in range(5):
        byte_windows |= padded[k : k + nb].astype(np.uint64) << np.uint64(
            8 * (4 - k)
        )
    idx = np.arange(nbits, dtype=np.int64)
    sub = (np.uint64(8) - (idx & 7).astype(np.uint64))
    windows = (byte_windows[idx >> 3] >> sub) & np.uint64(0xFFFFFFFF)
    return windows, nbits


def huffman_decompress(data: bytes) -> bytes:
    """Decompress a buffer produced by :func:`huffman_compress`."""
    expected, pos = decode_varint(data, 0)
    if expected == 0:
        return b""
    if pos + 256 > len(data):
        raise CompressionError("truncated Huffman length table")
    lengths = list(data[pos : pos + 256])
    pos += 256
    tables = _decode_tables(lengths)
    if not tables:
        raise CompressionError("empty Huffman code for non-empty payload")
    payload = np.frombuffer(data, dtype=np.uint8, offset=pos)
    windows, nbits = _bit_windows(payload)
    # Resolve every bit position: the shortest code range containing the
    # position's prefix wins, exactly like the scalar try-each-length
    # walk. ``code_len`` doubles as the claim mask.
    code_len = np.zeros(nbits, dtype=np.int64)
    symbol_at = np.zeros(nbits, dtype=np.uint8)
    top = np.arange(nbits, dtype=np.int64)
    for length, first, symbols in tables:
        if first >= 1 << length:
            continue  # corrupted table: no stream prefix can match
        prefix = windows >> np.uint64(32 - length)
        hit = (
            (code_len == 0)
            & (prefix >= np.uint64(first))
            & (prefix < np.uint64(first + symbols.size))
            & (top + length <= nbits)
        )
        where = np.flatnonzero(hit)
        if where.size:
            code_len[where] = length
            symbol_at[where] = symbols[
                (prefix[where] - np.uint64(first)).astype(np.int64)
            ]
    # Chain symbol starts from bit 0; an unmatched position ends the
    # chain (clamping its jump past the end), mirroring the scalar
    # decoder giving up at the first unmatchable prefix.
    jumps = np.where(code_len > 0, top + code_len, nbits)
    starts = np.flatnonzero(mark_chain(jumps, 0, nbits))
    if starts.size:
        starts = starts[code_len[starts] > 0]
    if starts.size < expected:
        raise CompressionError(
            f"decoded {starts.size} symbols, expected {expected}"
        )
    return symbol_at[starts[:expected]].tobytes()
