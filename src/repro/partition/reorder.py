"""Row reordering to improve compression — Section 3 "Reordering Rows".

Reordering rows never changes SQL results but can shrink run lengths in
the element arrays dramatically. The paper:

- uses "a very easy to implement heuristic which in practice gives good
  results: we sort lexicographically by the field order chosen for the
  partitioning" (:func:`order_from_codes`, over the fields' codes);
- recapitulates Johnson et al.'s framing of optimal reordering as a
  travelling-salesperson problem in Hamming space and their nearest-
  neighbour heuristics (:func:`nearest_neighbor_order`), which we
  implement for the Figure 2-4 experiments.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.table import Table
from repro.errors import PartitionError


def order_from_codes(code_arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Lexicographic permutation from already-factorized code arrays.

    Lets the import pipeline factorize each partition field once and
    reuse the codes for reordering, partitioning and encoding. Pass the
    codes as narrow as ``factorize`` returns them: numpy radix-sorts a
    key of at most 16 bits and comparison-sorts anything wider.
    """
    if not code_arrays:
        raise PartitionError("lexicographic reorder needs at least one field")
    # np.lexsort sorts by the LAST key first; reverse so fields[0] is
    # the primary key.
    return np.lexsort(tuple(reversed(list(code_arrays))))


def reorder_table(table: Table, order: np.ndarray) -> Table:
    """Apply a row permutation to every column of ``table``."""
    if order.size != table.n_rows:
        raise PartitionError(
            f"permutation has {order.size} entries for {table.n_rows} rows"
        )
    return table.take(order)


def nearest_neighbor_order(
    matrix: np.ndarray, block_rows: int | None = 4096
) -> np.ndarray:
    """Greedy nearest-neighbour path through rows in Hamming space.

    ``matrix`` is a (rows x columns) 0/1 array. Starting from row 0,
    repeatedly appends the unvisited row with the smallest Hamming
    distance to the current row (ties: lowest index). Johnson et al.
    "split the data into ranges to deal with the otherwise quadratic
    runtime"; ``block_rows`` does the same — the heuristic runs per
    block of consecutive rows and concatenates the blocks. Pass None to
    run it globally.
    """
    if matrix.ndim != 2:
        raise PartitionError("nearest-neighbour reorder expects a 2-d matrix")
    n = matrix.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if block_rows is None or block_rows >= n:
        return _nearest_neighbor_block(matrix, np.arange(n, dtype=np.int64))
    pieces = []
    for start in range(0, n, block_rows):
        rows = np.arange(start, min(start + block_rows, n), dtype=np.int64)
        pieces.append(_nearest_neighbor_block(matrix, rows))
    return np.concatenate(pieces)


def _nearest_neighbor_block(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    bits = matrix[rows].astype(np.int8)
    n = rows.size
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    current = 0
    visited[0] = True
    order[0] = rows[0]
    for step in range(1, n):
        distances = np.abs(bits - bits[current]).sum(axis=1)
        distances[visited] = np.iinfo(np.int64).max
        current = int(np.argmin(distances))
        visited[current] = True
        order[step] = rows[current]
    return order
