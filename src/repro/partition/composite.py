"""Composite range partitioning — Section 2.2.

"The user chooses an ordered set of fields which are used to split the
data iteratively into smaller and smaller chunks. At the start the data
is seen as one large chunk. Successively, the largest chunk is split
into two (ideally evenly balanced) chunks. For such a split the chosen
fields are considered in the given order. The first field with at least
two remaining distinct values is used to essentially do a range split
... The iteration is stopped once no chunk with more rows than a given
threshold, e.g., 50'000, exists."

``partition_table`` returns row-index arrays, one per chunk, so callers
can build chunk storage (or anything else) from them. "Note that after
the partitioning these fields are not treated specially in any way."
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.table import Table
from repro.errors import PartitionError
from repro.partition.codes import code_dtype, distinct_tuples, factorize


@dataclass(frozen=True)
class PartitionSpec:
    """Configuration for the composite range partitioner.

    ``fields`` should be the 3-5 fields a domain expert would pick as a
    "natural primary key" (Section 2.2's heuristic); ``max_chunk_rows``
    is the split-stop threshold (the paper uses 50'000 on 5M rows).
    """

    fields: tuple[str, ...]
    max_chunk_rows: int = 50_000

    def __post_init__(self) -> None:
        if not self.fields:
            raise PartitionError("partitioning needs at least one field")
        if self.max_chunk_rows < 1:
            raise PartitionError(
                f"max_chunk_rows must be >= 1, got {self.max_chunk_rows}"
            )


def _levels(tuples: list[np.ndarray]) -> np.ndarray:
    """Each cell's *level*: the first field where it differs from the cell before."""
    level = np.zeros(tuples[0].size, dtype=np.int64)
    # Last field first, so the first field that differs is written last.
    for depth in reversed(range(len(tuples))):
        codes = tuples[depth]
        level[1:][codes[1:] != codes[:-1]] = depth
    return level


def partition_table(
    table: Table,
    spec: PartitionSpec,
    field_codes: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Partition ``table`` into chunks of at most ``max_chunk_rows`` rows.

    Returns a list of row-index arrays (each sorted ascending so chunk-
    internal row order follows table order), ordered by first row.
    Chunks that cannot be split further (all partition fields constant
    within them) may exceed the threshold, mirroring the paper's
    stopping rule.

    Every split decision depends only on how many rows hold each
    distinct tuple of partition-field codes, so the rows are counted
    into cells once and the splitting runs on the histogram. A chunk is
    split on its first field with two values, which the fields before
    it do not have: every chunk is a *range* of the lexicographically
    ordered cells, a field has two values in it exactly when some cell
    of the range starts a new value of it, and the cut candidates are
    those cells.

    ``field_codes`` optionally supplies pre-factorized codes for
    ``spec.fields`` (one non-negative integer array per field, in spec
    order, as narrow as ``factorize`` returns them) so callers that
    already factorized the partition fields — the import pipeline —
    don't pay for it twice.
    """
    for name in spec.fields:
        if name not in table:
            raise PartitionError(f"partition field {name!r} not in table")
    if field_codes is None:
        field_codes = [factorize(table.column(name))[0] for name in spec.fields]
    elif len(field_codes) != len(spec.fields):
        raise PartitionError(
            f"got {len(field_codes)} code arrays for {len(spec.fields)} fields"
        )
    n_rows = table.n_rows
    for name, codes in zip(spec.fields, field_codes):
        if codes.size != n_rows:
            raise PartitionError(
                f"partition field {name!r}: {codes.size} codes for "
                f"{n_rows} rows"
            )
        if n_rows and int(codes.min()) < 0:
            raise PartitionError(f"partition field {name!r}: negative code")
    if n_rows <= spec.max_chunk_rows:
        return [np.arange(n_rows, dtype=np.int64)]

    cells, counts, tuples = distinct_tuples(field_codes, n_rows)
    level = _levels(tuples)
    rows_before = np.concatenate(([0], np.cumsum(counts)))
    # Heap entries: heaviest chunk first (negated size), FIFO tie-break
    # on the tick, then the chunk's cell range.
    tick = 0
    heap = [(-n_rows, tick, 0, counts.size)]
    starts: list[int] = []
    while heap:
        neg_size, __, low, high = heapq.heappop(heap)
        if -neg_size <= spec.max_chunk_rows or high - low < 2:
            # Small enough, or no field can distinguish these rows.
            starts.append(low)
            continue
        inner = level[low + 1 : high]
        cuts = np.flatnonzero(inner == inner.min()) + (low + 1)
        # Cutting at cuts[k] leaves left[k] rows on the left. Choose the
        # first k closest to half.
        left = rows_before[cuts] - rows_before[low]
        cut = int(cuts[np.argmin(np.abs(left - -neg_size / 2.0))])
        for part_low, part_high in ((low, cut), (cut, high)):
            tick += 1
            size = int(rows_before[part_high] - rows_before[part_low])
            heapq.heappush(heap, (-size, tick, part_low, part_high))

    # One gather hands each row its chunk; one stable sort of the narrow
    # chunk numbers groups the rows, ascending inside each chunk.
    starts.sort()
    chunk_of_cell = np.zeros(counts.size, dtype=code_dtype(len(starts)))
    chunk_of_cell[starts[1:]] = 1
    chunk_of_row = np.cumsum(chunk_of_cell, dtype=chunk_of_cell.dtype)[cells]
    order = np.argsort(chunk_of_row, kind="stable")
    chunks = np.split(order, rows_before[starts[1:]])
    # Stable order: by first row index, so chunk order tracks table order.
    chunks.sort(key=lambda chunk_rows: int(chunk_rows[0]))
    return chunks
