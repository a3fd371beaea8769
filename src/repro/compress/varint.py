"""Little-endian base-128 varints (the protocol-buffer wire encoding).

Shared by the compression codecs (length preambles) and the record-io
row format (:mod:`repro.formats.recordio`).

Two API tiers live here:

- scalar :func:`encode_varint` / :func:`decode_varint` for headers and
  one-off values;
- bulk kernels (:func:`encode_varint_array`,
  :func:`decode_varint_stream` and the zigzag variants) that encode or
  decode a whole integer column in a handful of numpy passes. They are
  byte-identical to the scalar loops frozen in
  ``tests/compress_oracle.py`` — the columnio block codec, the
  record-io writer, and the chunk-dictionary serde are built on them.

The bulk decoder exploits that in a varint stream the byte's top bit
alone marks value boundaries: one comparison yields every terminator,
``cumsum``-style arithmetic yields every start, and a 2-D gather
accumulates all payload bits at once. Values are decoded modulo 2**64
(the scalar decoder agrees for every canonically encoded value).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CompressionError

#: Smallest value needing k+1 payload septets, for k = 1..9.
_VARINT_THRESHOLDS = tuple(1 << (7 * k) for k in range(1, 10))

#: A canonical uint64 varint never exceeds ten bytes.
MAX_VARINT_LEN = 10

#: Values per scatter pass of the bulk encoder: its temporaries stay in
#: cache, which at millions of values is worth 2.5x over one pass.
_SCATTER_BLOCK = 1 << 16


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
    """Decode a varint from ``data`` starting at ``pos``.

    Returns ``(value, next_pos)``.
    """
    result = 0
    shift = 0
    start = pos
    while True:  # single-value header decode, <= 10 iterations
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


# --------------------------------------------------------------------------
# bulk kernels
# --------------------------------------------------------------------------


def _as_uint64(values: object) -> np.ndarray:
    """Validate an integer array-like and return it as uint64."""
    arr = np.asarray(values)
    if arr.dtype.kind == "u":
        return arr.astype(np.uint64, copy=False)
    if arr.dtype.kind != "i":
        raise CompressionError(
            f"varint kernel requires an integer array, got dtype {arr.dtype}"
        )
    if arr.size and int(arr.min()) < 0:
        raise CompressionError(
            f"varint cannot encode negative value {int(arr.min())}"
        )
    return arr.astype(np.uint64)


def varint_lengths(values: object) -> np.ndarray:
    """Encoded byte length of each value in an unsigned array.

    Vectorized as nine threshold comparisons: a value needs one byte
    per started septet.
    """
    arr = _as_uint64(values)
    lengths = np.ones(arr.size, dtype=np.int64)
    top = int(arr.max()) if arr.size else 0
    for threshold in _VARINT_THRESHOLDS:
        if threshold > top:
            break
        lengths += arr >= np.uint64(threshold)
    return lengths


def _scatter_varints(
    out: np.ndarray,
    starts: np.ndarray,
    values: np.ndarray,
    lengths: np.ndarray,
) -> None:
    """Write the varint bytes of ``values`` into ``out`` at ``starts``.

    One 1-d scatter per byte position over the values that reach it
    (most varints are short, so the later passes are small): byte ``k``
    is septet ``k`` plus a continuation bit everywhere but the final
    byte. Passes index by position, as :func:`gather_varints` does.
    """
    for k in range(int(lengths.max())):  # <= 10 bulk passes
        if k:
            longer = np.flatnonzero(lengths > k)
            starts, values, lengths = starts[longer], values[longer], lengths[longer]
        septets = ((values >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        septets |= (lengths > k + 1).view(np.uint8) << 7
        out[starts + k] = septets


def encode_varint_array(values: object) -> bytes:
    """Concatenated varints of an unsigned integer array.

    Byte-identical to encoding each value with :func:`encode_varint`.
    """
    return encode_varint_spans(values)[0]


def encode_varint_spans(values: object) -> tuple[bytes, np.ndarray]:
    """:func:`encode_varint_array` plus the byte offset of each value."""
    arr = _as_uint64(values)
    if arr.size == 0:
        return b"", np.empty(0, dtype=np.int64)
    lengths = varint_lengths(arr)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    for lo in range(0, arr.size, _SCATTER_BLOCK):
        hi = lo + _SCATTER_BLOCK
        _scatter_varints(out, starts[lo:hi], arr[lo:hi], lengths[lo:hi])
    return out.tobytes(), starts


def gather_varints(
    arr: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Decode the varints starting at ``starts`` in a uint8 array.

    ``lengths`` must already span each varint including its terminator,
    inside ``arr``; values accumulate modulo 2**64. Shared by the stream
    decoder, the RLE pair decoder and the store's chunk-dictionary
    decoder. One gather for the first byte of every value, then one per
    further byte position over the values that reach it — most varints
    are short, so the later passes are small.
    """
    values = (arr[starts] & np.uint8(0x7F)).astype(np.uint64)
    for offset in range(1, int(lengths.max())):
        longer = np.flatnonzero(lengths > offset)
        septets = (arr[starts[longer] + offset] & np.uint8(0x7F)).astype(np.uint64)
        values[longer] |= septets << np.uint64(7 * offset)
    return values


def decode_varint_stream(
    data: bytes | bytearray | memoryview, count: int, pos: int = 0
) -> tuple[np.ndarray, int]:
    """Decode ``count`` adjacent varints starting at ``pos``.

    Returns ``(values, next_pos)`` with ``values`` as uint64. Raises
    :class:`~repro.errors.CompressionError` on truncation or a varint
    longer than ten bytes, like the scalar decoder.
    """
    if count < 0:
        raise CompressionError(f"cannot decode {count} varints")
    if count == 0:
        return np.empty(0, dtype=np.uint64), pos
    if pos >= len(data):
        raise CompressionError(f"truncated varint at offset {pos}")
    arr = np.frombuffer(data, dtype=np.uint8, offset=pos)
    terminators = np.flatnonzero(arr < 0x80)
    if terminators.size < count:
        raise CompressionError(
            f"truncated varint stream at offset {pos}: "
            f"{terminators.size} of {count} values terminated"
        )
    ends = terminators[:count]
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    longest = int(lengths.max())
    if longest > MAX_VARINT_LEN:
        offender = int(starts[int(np.argmax(lengths))])
        raise CompressionError(f"varint too long at offset {pos + offender}")
    values = gather_varints(arr, starts, lengths)
    return values, pos + int(ends[-1]) + 1


def encode_zigzag_array(values: object) -> bytes:
    """Concatenated zigzag varints of a signed integer array.

    Byte-identical to encoding each value with :func:`encode_zigzag`;
    values must fit in int64.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "u":
        if arr.size and int(arr.max()) > np.iinfo(np.int64).max:
            raise CompressionError("zigzag kernel requires int64-range values")
        arr = arr.astype(np.int64)
    if arr.dtype.kind != "i":
        raise CompressionError(
            f"zigzag kernel requires an integer array, got dtype {arr.dtype}"
        )
    signed = arr.astype(np.int64, copy=False)
    # int64 shifts wrap modulo 2**64, which is exactly the zigzag map.
    zigzag = ((signed << np.int64(1)) ^ (signed >> np.int64(63))).view(np.uint64)
    return encode_varint_array(zigzag)


def decode_zigzag_stream(
    data: bytes | bytearray | memoryview, count: int, pos: int = 0
) -> tuple[np.ndarray, int]:
    """Decode ``count`` adjacent zigzag varints; values come back int64."""
    raw, pos = decode_varint_stream(data, count, pos)
    values = (raw >> np.uint64(1)).astype(np.int64) ^ -(
        (raw & np.uint64(1)).astype(np.int64)
    )
    return values, pos
