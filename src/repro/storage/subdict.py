"""Sub-dictionaries — Section 5 "Further Optimizing the Global-Dictionaries".

"When only few chunks are active for a query, there is actually no need
to have the entire dictionary in memory. To this end, we split a
dictionary up into sub-dictionaries. One of these representing the most
frequent values, each of the others representing values from several
chunks combined."

:class:`SubDictionarySet` partitions a column's global-ids into:

- a *hot* sub-dictionary holding the globally most frequent values
  (frequency = number of chunks a value occurs in), and
- one sub-dictionary per *chunk group* (``group_size`` consecutive
  chunks), holding the remaining values occurring in that group.

Each sub-dictionary carries a Bloom filter so a value lookup can skip
loading sub-dictionaries that certainly do not contain it. Loads are
counted, letting experiments show the memory-residency win when few
chunks are active.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DictionaryError
from repro.partition.codes import sorted_distinct
from repro.storage.bloom import BloomFilter
from repro.storage.dictionary import Dictionary

if TYPE_CHECKING:  # annotation-only: core.datastore imports storage modules
    from repro.core.datastore import FieldStore


@dataclass
class SubDictionary:
    """A slice of the global dictionary: id -> value for its members."""

    name: str
    entries: dict[int, object]  # global-id -> value
    bloom: BloomFilter
    chunk_indexes: frozenset[int]
    size_bytes: int
    value_to_id: dict = field(init=False)

    def __post_init__(self) -> None:
        self.value_to_id = {value: gid for gid, value in self.entries.items()}


@dataclass
class SubDictStats:
    """How many sub-dictionary loads queries required / avoided."""

    loads: int = 0
    bloom_skips: int = 0
    group_skips: int = 0
    bytes_loaded: int = 0


class SubDictionarySet:
    """The global dictionary split into hot + per-chunk-group parts."""

    def __init__(
        self,
        dictionary: Dictionary,
        chunk_global_ids: Sequence[np.ndarray],
        hot_fraction: float = 0.1,
        group_size: int = 8,
        bloom_fpp: float = 0.01,
    ) -> None:
        """Split ``dictionary`` given each chunk's occurring global-ids.

        ``chunk_global_ids[i]`` is the chunk-dictionary (sorted
        global-ids) of chunk ``i`` for this column.
        """
        if not 0 <= hot_fraction <= 1:
            raise DictionaryError("hot_fraction must be in [0, 1]")
        if group_size < 1:
            raise DictionaryError("group_size must be >= 1")
        self._stats = SubDictStats()
        self._loaded: set[str] = set()

        n_values = len(dictionary)
        distinct_per_chunk: list[np.ndarray] = []
        for index, gids in enumerate(chunk_global_ids):
            if gids.size and int(gids.max()) >= n_values:
                raise DictionaryError(
                    f"chunk {index} references global-id {int(gids.max())} "
                    f">= dictionary size {n_values}"
                )
            distinct_per_chunk.append(sorted_distinct(np.array(gids, dtype=np.int64)))
        # Frequency = number of chunks a value occurs in: one bincount
        # over the concatenated per-chunk distinct ids.
        if distinct_per_chunk:
            frequency = np.bincount(
                np.concatenate(distinct_per_chunk), minlength=n_values
            )
        else:
            frequency = np.zeros(n_values, dtype=np.int64)
        n_hot = int(round(hot_fraction * n_values))
        if n_hot:
            order = np.argsort(-frequency, kind="stable")
            hot_ids = np.sort(order[:n_hot]).astype(np.int64)
        else:
            hot_ids = np.empty(0, dtype=np.int64)

        # One bulk decode of the dictionary instead of a value() walk
        # per sub-dictionary entry.
        value_by_gid = dictionary.values()

        def make(
            name: str, gids: np.ndarray, chunks: frozenset[int]
        ) -> SubDictionary:
            entries = {int(gid): value_by_gid[int(gid)] for gid in gids}
            size = sum(
                len(v.encode("utf-8")) + 8 if isinstance(v, str) else 12
                for v in entries.values()
            )
            return SubDictionary(
                name=name,
                entries=entries,
                bloom=BloomFilter.build(entries.values(), fpp=bloom_fpp),
                chunk_indexes=chunks,
                size_bytes=size,
            )

        all_chunks = frozenset(range(len(chunk_global_ids)))
        self._hot = make("hot", hot_ids, all_chunks)
        self._groups: list[SubDictionary] = []
        for start in range(0, len(chunk_global_ids), group_size):
            stop = min(start + group_size, len(chunk_global_ids))
            member = distinct_per_chunk[start:stop]
            merged = (
                sorted_distinct(np.concatenate(member))
                if member
                else np.empty(0, dtype=np.int64)
            )
            remaining = np.setdiff1d(merged, hot_ids, assume_unique=True)
            self._groups.append(
                make(
                    f"group-{start // group_size}",
                    remaining,
                    frozenset(range(start, stop)),
                )
            )

    @classmethod
    def from_field(
        cls,
        field: "FieldStore",
        hot_fraction: float = 0.1,
        group_size: int = 8,
        bloom_fpp: float = 0.01,
    ) -> "SubDictionarySet":
        """Split a datastore field's global dictionary by its chunks.

        ``field`` is a :class:`repro.core.datastore.FieldStore`; its
        chunk-dictionaries provide the per-chunk occurring global-ids.
        """
        return cls(
            field.dictionary,
            [chunk.chunk_dict for chunk in field.chunks],
            hot_fraction=hot_fraction,
            group_size=group_size,
            bloom_fpp=bloom_fpp,
        )

    @property
    def stats(self) -> SubDictStats:
        return self._stats

    @property
    def n_subdicts(self) -> int:
        return 1 + len(self._groups)

    def total_size_bytes(self) -> int:
        return self._hot.size_bytes + sum(g.size_bytes for g in self._groups)

    def resident_size_bytes(self) -> int:
        """Bytes of sub-dictionaries that queries actually loaded."""
        total = 0
        for sub in [self._hot, *self._groups]:
            if sub.name in self._loaded:
                total += sub.size_bytes
        return total

    def _load(self, sub: SubDictionary) -> None:
        if sub.name not in self._loaded:
            self._loaded.add(sub.name)
            self._stats.loads += 1
            self._stats.bytes_loaded += sub.size_bytes

    def evict_all(self) -> None:
        """Drop every loaded sub-dictionary (e.g. between query sessions)."""
        self._loaded.clear()

    def lookup_global_id(
        self, value: object, active_chunks: set[int] | None = None
    ) -> int | None:
        """Find the global-id of ``value``, loading as little as possible.

        Only sub-dictionaries whose chunk groups intersect
        ``active_chunks`` (all chunks if None) are considered, and of
        those only the ones whose Bloom filter matches are loaded.
        """
        candidates = [self._hot, *self._groups]
        for sub in candidates:
            if active_chunks is not None and not (
                sub.chunk_indexes & active_chunks
            ):
                self._stats.group_skips += 1
                continue
            if not sub.bloom.might_contain(value):
                self._stats.bloom_skips += 1
                continue
            self._load(sub)
            gid = sub.value_to_id.get(value)
            if gid is not None:
                return gid
        return None
