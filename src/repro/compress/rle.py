"""Run-length encodings, including the simplified bit-RLE of Figure 3.

Two related encoders live here:

- byte-level RLE (``rle_encode_bytes``/``rle_decode_bytes``) with an
  escape-free (count, value) pair stream, used as a registered codec —
  on a column of byte-sized values its body is Section 3's (run, value)
  pairs;
- the *simplified* bit-column RLE of Figure 3, which stores only
  counters (one per bit flip); ``bit_rle_counter_count`` computes its
  size, which equals 1 + number of bit flips in the column.

Both byte-level directions are numpy bulk kernels (PR 5), byte-identical
to the scalar loops frozen in ``tests/compress_oracle.py``. Run
detection is a boundary mask — ``np.flatnonzero(a[1:] != a[:-1])``
yields every run edge at once. Decoding a (varint, byte) pair stream is
the harder direction because pair boundaries are sequential; the kernel
computes every position's potential pair length, then selects the true
pair starts with :func:`repro.compress.bulk.mark_chain` in O(log n)
pointer-doubling rounds and expands runs with one ``np.repeat``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.compress.bulk import mark_chain
from repro.compress.varint import (
    _scatter_varints,
    decode_varint,
    encode_varint,
    gather_varints,
    varint_lengths,
)
from repro.errors import CompressionError


def rle_encode_bytes(data: bytes) -> bytes:
    """Encode ``data`` as varint(total) || (varint(run) byte)*."""
    head = encode_varint(len(data))
    n = len(data)
    if n == 0:
        return head
    arr = np.frombuffer(data, dtype=np.uint8)
    edges = np.flatnonzero(arr[1:] != arr[:-1])
    starts = np.empty(edges.size + 1, dtype=np.int64)
    starts[0] = 0
    starts[1:] = edges + 1
    runs = np.diff(starts, append=n)
    run_lengths = varint_lengths(runs)
    cells = run_lengths + 1  # each pair is varint(run) plus the byte
    ends = np.cumsum(cells)
    offsets = ends - cells
    body = np.zeros(int(ends[-1]), dtype=np.uint8)
    _scatter_varints(body, offsets, runs.astype(np.uint64), run_lengths)
    body[offsets + run_lengths] = arr[starts]
    return head + body.tobytes()


def rle_decode_bytes(data: bytes) -> bytes:
    """Decode a buffer produced by :func:`rle_encode_bytes`."""
    expected, pos = decode_varint(data, 0)
    n = len(data)
    if pos >= n:
        if expected:
            raise CompressionError(f"decoded 0 bytes, expected {expected}")
        return b""
    arr = np.frombuffer(data, dtype=np.uint8, offset=pos)
    m = arr.size
    term_mask = arr < 0x80
    terminators = np.flatnonzero(term_mask)
    k = terminators.size
    if k == 0:
        raise CompressionError(f"truncated varint at offset {pos}")
    # A pair start is either offset 0 or two past a varint terminator
    # (the terminator's value byte, then the next pair). Chaining over
    # those k + 1 candidates — successor = first terminator at/after a
    # candidate, plus two — finds the true pair starts in O(log k)
    # pointer-doubling rounds regardless of how runs and values alias
    # continuation bytes.
    candidates = np.empty(k + 1, dtype=np.int64)
    candidates[0] = 0
    candidates[1:] = terminators + 2
    terms_through = np.cumsum(term_mask)  # terminators at offsets <= p
    in_range = candidates < m
    next_term = np.where(
        candidates > 0, terms_through[np.minimum(candidates, m) - 1], 0
    )
    has_term = in_range & (next_term < k)
    successors = np.where(has_term, next_term + 1, k + 1)
    marked = np.flatnonzero(mark_chain(successors, 0, k + 1))
    if bool((candidates[marked] > m).any()):
        raise CompressionError("truncated RLE pair")
    live = marked[candidates[marked] < m]  # candidate == m is a clean end
    if not bool(has_term[live].all()):
        bad = int(candidates[live[int(np.argmin(has_term[live]))]])
        raise CompressionError(f"truncated varint at offset {pos + bad}")
    starts = candidates[live]
    term_positions = terminators[next_term[live]]
    spans = term_positions - starts + 1
    if int(spans.max()) > 10:
        bad = int(starts[int(np.argmax(spans))])
        raise CompressionError(f"varint too long at offset {pos + bad}")
    runs = gather_varints(arr, starts, spans)
    values = arr[term_positions + 1]
    max_run = int(runs.max())
    if max_run and runs.size > (1 << 63) // max_run:
        # Totals near 2**64 could wrap a vectorized sum; fall back to
        # exact Python arithmetic for such adversarial streams.
        total = sum(map(int, runs.tolist()))
    else:
        total = int(runs.sum(dtype=np.uint64))
    if total != expected:
        raise CompressionError(f"decoded {total} bytes, expected {expected}")
    return np.repeat(values, runs.astype(np.int64)).tobytes()


def bit_rle_counter_count(bits: Sequence[int]) -> int:
    """Number of counters in the simplified bit-column RLE of Figure 3.

    For a 0/1 column the simplified RLE stores only run counters (the
    values alternate implicitly), so its size is one counter per run:
    1 + number of positions where the bit flips. An empty column costs
    zero counters.
    """
    if not bits:
        return 0
    arr = np.asarray(bits)
    return 1 + int(np.count_nonzero(arr[1:] != arr[:-1]))
