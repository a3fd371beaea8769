"""Cache eviction policies — Section 5 "Improved Cache Heuristics".

The paper replaces plain LRU (which one large scan can wipe out) with a
policy "similar to the adaptive-replacement-cache presented in [22] and
the 2Q algorithm presented in [19]". All three are implemented here
behind one interface so the ablation bench can compare them:

- :class:`LruCache` -- the baseline everyone knows.
- :class:`TwoQCache` -- Johnson & Shasha's 2Q: a FIFO probation queue
  (A1in), a ghost list of recently evicted keys (A1out), and a main LRU
  (Am) that only admits keys seen again after probation.
- :class:`ArcCache` -- Megiddo & Modha's ARC: recency (T1) and
  frequency (T2) lists with ghost lists (B1/B2) steering an adaptive
  target split ``p``.

Capacity is measured in abstract *weight* units (entries by default,
bytes if callers pass sizes), since the store caches variable-sized
chunk results.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.errors import StorageError


@dataclass
class CacheStats:
    """Hit/miss/eviction counters shared by all policies."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """Common interface: ``get``/``put`` with weighted capacity."""

    name = "abstract"

    def __init__(self, capacity: float) -> None:
        if capacity <= 0:
            raise StorageError(f"cache capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()

    def get(self, key: Hashable) -> Any | None:
        raise NotImplementedError

    def put(self, key: Hashable, value: Any, weight: float = 1.0) -> None:
        raise NotImplementedError

    def __contains__(self, key: Hashable) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every resident entry (and any ghost bookkeeping).

        Invalidation, not eviction: hit/miss/eviction statistics are
        preserved so callers can still report lifetime totals.
        """
        raise NotImplementedError

    @property
    def used(self) -> float:
        """Total weight currently resident."""
        raise NotImplementedError


@dataclass
class _Entry:
    value: Any
    weight: float = 1.0


class LruCache(Cache):
    """Least-recently-used eviction."""

    name = "lru"

    def __init__(self, capacity: float) -> None:
        super().__init__(capacity)
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._used = 0.0

    def get(self, key: Hashable) -> Any | None:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.value

    def put(self, key: Hashable, value: Any, weight: float = 1.0) -> None:
        if key in self._entries:
            self._used -= self._entries[key].weight
            del self._entries[key]
        self._entries[key] = _Entry(value, weight)
        self._used += weight
        self._evict()

    def _evict(self) -> None:
        while self._used > self.capacity and len(self._entries) > 1:
            __, entry = self._entries.popitem(last=False)
            self._used -= entry.weight
            self.stats.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0.0

    @property
    def used(self) -> float:
        return self._used


class TwoQCache(Cache):
    """The 2Q policy: FIFO probation + ghost list + main LRU.

    A first access lands in A1in (FIFO). Evicted A1in keys are
    remembered (key only) in A1out. A hit on an A1out ghost promotes the
    key into the main LRU Am — so one-time scans flow through A1in and
    never displace the hot set in Am.
    """

    name = "2q"

    def __init__(
        self,
        capacity: float,
        in_fraction: float = 0.25,
        ghost_fraction: float = 0.5,
    ) -> None:
        super().__init__(capacity)
        if not 0 < in_fraction < 1:
            raise StorageError("in_fraction must be in (0, 1)")
        self._in_capacity = capacity * in_fraction
        self._ghost_capacity = max(1, int(capacity * ghost_fraction))
        self._a1in: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._a1out: OrderedDict[Hashable, None] = OrderedDict()
        self._am: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._in_used = 0.0
        self._am_used = 0.0

    def get(self, key: Hashable) -> Any | None:
        entry = self._am.get(key)
        if entry is not None:
            self._am.move_to_end(key)
            self.stats.hits += 1
            return entry.value
        entry = self._a1in.get(key)
        if entry is not None:
            # 2Q leaves A1in order untouched on hit (it is a FIFO).
            self.stats.hits += 1
            return entry.value
        self.stats.misses += 1
        return None

    def put(self, key: Hashable, value: Any, weight: float = 1.0) -> None:
        if key in self._am:
            self._am_used -= self._am[key].weight
            self._am[key] = _Entry(value, weight)
            self._am.move_to_end(key)
            self._am_used += weight
        elif key in self._a1out:
            # Seen before and aged out of probation: hot, admit to Am.
            del self._a1out[key]
            self._am[key] = _Entry(value, weight)
            self._am_used += weight
        elif key in self._a1in:
            self._in_used -= self._a1in[key].weight
            self._a1in[key] = _Entry(value, weight)
            self._in_used += weight
        else:
            self._a1in[key] = _Entry(value, weight)
            self._in_used += weight
        self._evict()

    def _evict(self) -> None:
        while self._in_used > self._in_capacity and len(self._a1in) > 1:
            key, entry = self._a1in.popitem(last=False)
            self._in_used -= entry.weight
            self._a1out[key] = None
            self.stats.evictions += 1
            while len(self._a1out) > self._ghost_capacity:
                self._a1out.popitem(last=False)
        while self._in_used + self._am_used > self.capacity and len(self._am) >= 1:
            __, entry = self._am.popitem(last=False)
            self._am_used -= entry.weight
            self.stats.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._am or key in self._a1in

    def __len__(self) -> int:
        return len(self._am) + len(self._a1in)

    def clear(self) -> None:
        self._a1in.clear()
        self._a1out.clear()
        self._am.clear()
        self._in_used = 0.0
        self._am_used = 0.0

    @property
    def used(self) -> float:
        return self._in_used + self._am_used


class ArcCache(Cache):
    """Adaptive Replacement Cache with weighted entries.

    T1 holds keys seen once recently, T2 keys seen at least twice; B1/B2
    are their ghost lists. A hit in B1 grows the recency target ``p``, a
    hit in B2 shrinks it, so the split adapts to the workload — the
    behaviour the paper wants when large one-off scans mix with a hot
    working set.
    """

    name = "arc"

    def __init__(self, capacity: float) -> None:
        super().__init__(capacity)
        self._t1: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._t2: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._b1: OrderedDict[Hashable, None] = OrderedDict()
        self._b2: OrderedDict[Hashable, None] = OrderedDict()
        self._p = 0.0
        self._t1_used = 0.0
        self._t2_used = 0.0

    def get(self, key: Hashable) -> Any | None:
        entry = self._t1.pop(key, None)
        if entry is not None:
            # Second access: promote from recency to frequency.
            self._t1_used -= entry.weight
            self._t2[key] = entry
            self._t2_used += entry.weight
            self.stats.hits += 1
            return entry.value
        entry = self._t2.get(key)
        if entry is not None:
            self._t2.move_to_end(key)
            self.stats.hits += 1
            return entry.value
        self.stats.misses += 1
        return None

    def put(self, key: Hashable, value: Any, weight: float = 1.0) -> None:
        if key in self._t1:
            self._t1_used -= self._t1.pop(key).weight
            self._t2[key] = _Entry(value, weight)
            self._t2_used += weight
        elif key in self._t2:
            self._t2_used -= self._t2[key].weight
            self._t2[key] = _Entry(value, weight)
            self._t2.move_to_end(key)
            self._t2_used += weight
        elif key in self._b1:
            # Ghost hit on the recency side: favour recency.
            delta = max(1.0, len(self._b2) / max(len(self._b1), 1))
            self._p = min(self.capacity, self._p + delta)
            del self._b1[key]
            self._t2[key] = _Entry(value, weight)
            self._t2_used += weight
        elif key in self._b2:
            delta = max(1.0, len(self._b1) / max(len(self._b2), 1))
            self._p = max(0.0, self._p - delta)
            del self._b2[key]
            self._t2[key] = _Entry(value, weight)
            self._t2_used += weight
        else:
            self._t1[key] = _Entry(value, weight)
            self._t1_used += weight
        self._evict()

    def _evict(self) -> None:
        ghost_cap = max(1, int(self.capacity))
        while self._t1_used + self._t2_used > self.capacity and (
            len(self._t1) + len(self._t2) > 1
        ):
            evict_t1 = self._t1 and (self._t1_used > self._p or not self._t2)
            if evict_t1:
                key, entry = self._t1.popitem(last=False)
                self._t1_used -= entry.weight
                self._b1[key] = None
            else:
                key, entry = self._t2.popitem(last=False)
                self._t2_used -= entry.weight
                self._b2[key] = None
            self.stats.evictions += 1
        while len(self._b1) > ghost_cap:
            self._b1.popitem(last=False)
        while len(self._b2) > ghost_cap:
            self._b2.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._t1 or key in self._t2

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def clear(self) -> None:
        self._t1.clear()
        self._t2.clear()
        self._b1.clear()
        self._b2.clear()
        self._p = 0.0
        self._t1_used = 0.0
        self._t2_used = 0.0

    @property
    def used(self) -> float:
        return self._t1_used + self._t2_used


_POLICIES = {cls.name: cls for cls in (LruCache, TwoQCache, ArcCache)}


def policy_names() -> list[str]:
    """The registered eviction policy names, for CLI choices."""
    return sorted(_POLICIES)


def make_cache(policy: str, capacity: float) -> Cache:
    """Build a cache by policy name ('lru', '2q', 'arc')."""
    try:
        return _POLICIES[policy](capacity)
    except KeyError:
        raise StorageError(
            f"unknown cache policy {policy!r}; choose from {sorted(_POLICIES)}"
        ) from None
