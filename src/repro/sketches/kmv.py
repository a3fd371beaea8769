"""The k-minimum-values (KMV) distinct-count sketch.

Section 5: "The basic idea of the algorithm is to compute hash values
of the field to count distinctly. Of these hashes, the m smallest are
determined in a single pass. The threshold m is given by the user and
is typically in the order of a couple of thousand. The largest of these
m hashes, say v, can be used to approximate the count distinct results
by m/v, assuming that the hash values are normalized to be in [0, 1]."

The sketch here follows that description exactly (estimator ``m / v``)
and keeps the m smallest *distinct* hashes. Folding another sketch's
:attr:`KmvSketch.hashes` in is the union of the two, which is how the
distributed execution tree merges sketches.

The paper notes it profits "from a very useful property of both the
global- as well as the chunk-dictionaries: the underlying values are
sorted ascendingly", which enabled "a highly optimized data-structure
for collecting and storing the smallest m hash values".
:meth:`KmvSketch.add_hash_array` is that path: the sketch *is* one
sorted array of distinct hashes, and dictionary-resident hashes arrive
as one vector that is folded in with a single concatenate, sort,
adjacent-difference dedup and cut to ``m``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ExecutionError
from repro.sketches.hashing import hash_to_unit


class KmvSketch:
    """Keep the ``m`` smallest distinct hashes in [0, 1)."""

    __slots__ = ("m", "_hashes")

    def __init__(self, m: int = 4096) -> None:
        if m < 1:
            raise ExecutionError(f"KMV sketch size must be >= 1, got {m}")
        self.m = m
        # Sorted ascending, distinct, at most m long; replaced by every
        # fold and never written in place, so readers may keep it.
        self._hashes = np.empty(0, dtype=np.float64)

    def __len__(self) -> int:
        return int(self._hashes.size)

    @property
    def hashes(self) -> np.ndarray:
        """The retained hashes, ascending (read-only by contract)."""
        return self._hashes

    @property
    def threshold(self) -> float:
        """Largest retained hash (1.0 while the sketch is not full)."""
        if self._hashes.size < self.m:
            return 1.0
        return float(self._hashes[-1])

    def add(self, value: Any) -> None:
        """Add a raw value (hashed internally)."""
        self.add_hash(hash_to_unit(value))

    def add_hash(self, hashed: float) -> None:
        """Add one pre-computed hash in [0, 1)."""
        if hashed < self.threshold:
            self.add_hash_array(np.array([hashed], dtype=np.float64))

    def add_hash_array(self, hashes: np.ndarray) -> None:
        """Fold in a whole vector of hashes (the sorted-dictionary path).

        Used when a chunk's distinct values are known from its
        (sorted) chunk-dictionary: their hashes arrive as one array.
        """
        merged = np.concatenate((self._hashes, hashes))
        merged.sort()
        keep = np.ones(merged.size, dtype=bool)
        keep[1:] = merged[1:] != merged[:-1]
        self._hashes = merged[np.flatnonzero(keep)[: self.m]]

    def estimate(self) -> int:
        """Estimated number of distinct values added."""
        if self._hashes.size < self.m:
            # Not yet full: the sketch has seen every distinct hash.
            return len(self)
        return int(round(self.m / self.threshold))
