"""Import-time data organization: partitioning and row reordering.

- :mod:`repro.partition.composite` -- Section 2.2's composite range
  partitioning with "heaviest first" splitting.
- :mod:`repro.partition.reorder` -- Section 3's row-reordering
  heuristics (lexicographic by partition field codes, plus the
  nearest-neighbour Hamming-space TSP heuristic of Johnson et al.).
- :mod:`repro.partition.hamming` -- the Hamming-path view of RLE size
  behind Figures 2-4.
"""

from repro.partition.composite import PartitionSpec, partition_table
from repro.partition.hamming import hamming_path_length, rle_counter_total
from repro.partition.reorder import nearest_neighbor_order, reorder_table

__all__ = [
    "PartitionSpec",
    "hamming_path_length",
    "nearest_neighbor_order",
    "partition_table",
    "reorder_table",
    "rle_counter_total",
]
