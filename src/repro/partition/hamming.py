"""The Hamming-space view of run-length encoding size — Figures 2-4.

For bit columns compressed with the simplified RLE of Figure 3 (only
run counters are stored), the paper derives: total number of counters =
d (one opening counter per column) + the sum over consecutive row pairs
of their Hamming distance. Each row ordering is a path through the rows
seen as points in {0,1}^d, and minimizing encoding size is the TSP in
Hamming space (NP-hard; Trevisan showed it is even hard to approximate
for d > log n).

These helpers compute both sides of that identity so tests can verify
it and the Figure 2-4 bench can report path lengths next to actual RLE
counter counts.
"""

from __future__ import annotations

import numpy as np

from repro.compress.rle import bit_rle_counter_count
from repro.errors import PartitionError


def hamming_path_length(matrix: np.ndarray, order: np.ndarray | None = None) -> int:
    """Sum of Hamming distances between consecutive rows along ``order``."""
    if matrix.ndim != 2:
        raise PartitionError("expected a 2-d bit matrix")
    rows = matrix if order is None else matrix[order]
    if rows.shape[0] < 2:
        return 0
    diff = np.abs(rows[1:].astype(np.int8) - rows[:-1].astype(np.int8))
    return int(diff.sum())


def rle_counter_total(matrix: np.ndarray, order: np.ndarray | None = None) -> int:
    """Total simplified-RLE counters over all bit columns of ``matrix``.

    Equals ``n_columns + hamming_path_length`` for any non-empty matrix
    (the Figure 3 identity).
    """
    if matrix.ndim != 2:
        raise PartitionError("expected a 2-d bit matrix")
    rows = matrix if order is None else matrix[order]
    return sum(
        bit_rle_counter_count(list(rows[:, column]))
        for column in range(rows.shape[1])
    )
