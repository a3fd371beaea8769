"""Shared numpy primitives for the vectorized codec kernels.

The sticking point when vectorizing byte-stream decoders is that record
boundaries are *sequential*: where pair ``i + 1`` starts depends on how
long pair ``i`` was. :func:`mark_chain` breaks that dependency with
pointer doubling — given every position's successor, it marks the set
of positions reachable from a start in O(log n) vectorized rounds, so a
decoder can compute candidate record lengths for *all* positions at
once and then select the true record starts in logarithmic passes instead
of one Python iteration per record. Both the RLE pair-stream decoder
and the Huffman bitstream decoder are built on it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mark_chain"]


def mark_chain(jumps: np.ndarray, start: int, size: int) -> np.ndarray:
    """Boolean mask of the indices reachable from ``start`` via ``jumps``.

    ``jumps[p]`` is the successor of position ``p``; any successor
    ``>= size`` terminates the chain (a clamped out-of-range jump).
    Runs ``ceil(log2(size)) + 1`` pointer-doubling rounds: after round
    ``k`` every position ``f^j(start)`` with ``j < 2**k`` is marked and
    the jump table composes to ``f^(2**k)``.
    """
    mark = np.zeros(size, dtype=bool)
    if size <= 0 or not 0 <= start < size:
        return mark
    # Extended table with a self-looping sentinel row at index ``size``.
    ext = np.empty(size + 1, dtype=np.int64)
    np.clip(jumps, 0, size, out=ext[:size])
    ext[size] = size
    marked_ext = np.zeros(size + 1, dtype=bool)
    marked_ext[start] = True
    steps = 1
    while steps <= size:  # O(log n) doubling rounds, not per byte
        marked_ext[ext[np.flatnonzero(marked_ext)]] = True
        ext = ext[ext]
        steps <<= 1
    mark[:] = marked_ext[:size]
    mark[start] = True
    return mark
