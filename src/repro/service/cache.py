"""The semantic result cache (serving layer, level 0).

The paper's servers keep *result* caches above the chunk/scan layer:
most mouse clicks repeat recent queries, so whole answers — not just
per-chunk partials — are worth remembering. Entries are keyed on
canonical plan fingerprints (:func:`repro.core.plan.query_fingerprint`),
so queries that differ only in conjunct order, IN-list order/duplicates,
or GROUP BY alias spelling share one entry. Eviction is byte-weighted
and delegated to the existing :mod:`repro.storage.cache` policies behind
this class's lock (those policies are deliberately not thread-safe
themselves).

A refinement of a cached query is a miss here: the engine below already
remembers its WHERE's classification of every chunk and the partials of
the chunks it serves, so there is nothing left for this layer to prune.
"""

from __future__ import annotations

import threading

from repro.core.result import QueryResult
from repro.storage.cache import Cache, make_cache


def estimate_result_weight(result: QueryResult) -> float:
    """Approximate resident bytes of a cached result (for eviction).

    Result tables are small (post-LIMIT), so a per-cell estimate plus a
    fixed object overhead is accurate enough to make eviction pressure
    proportional to real memory use.
    """
    n_rows = result.table.n_rows
    n_cols = max(1, len(result.column_names))
    return 512.0 + 64.0 * n_rows * n_cols


class SemanticResultCache:
    """Thread-safe exact reuse of whole results above the chunk cache."""

    def __init__(self, capacity_bytes: float, policy: str = "lru") -> None:
        self._lock = threading.Lock()
        self._results: Cache = make_cache(policy, capacity_bytes)
        self.hits = 0
        self.misses = 0

    def lookup(self, fingerprint: str) -> tuple[QueryResult | None, None]:
        """The cached result for a canonical-plan fingerprint, or ``None``.

        The second element is always ``None``: it is kept only for
        ``bench/trace.py``'s ``result_cache.footprint`` tally, which
        indexes it.
        """
        with self._lock:
            result = self._results.get(fingerprint)
            if result is not None:
                self.hits += 1
            else:
                self.misses += 1
            return result, None

    def admit(self, fingerprint: str, result: QueryResult) -> None:
        """Cache a served result.

        Incomplete (degraded) results are never admitted: their rows
        undercount.
        """
        if not result.complete:
            return
        with self._lock:
            self._results.put(
                fingerprint, result, weight=estimate_result_weight(result)
            )

    def stats(self) -> dict[str, float]:
        """A consistent snapshot of cache activity and occupancy."""
        with self._lock:
            probes = self.hits + self.misses
            return {
                "hits": float(self.hits),
                "misses": float(self.misses),
                "hit_fraction": self.hits / probes if probes else 0.0,
                "entries": float(len(self._results)),
                "used_bytes": float(self._results.used),
                "evictions": float(self._results.stats.evictions),
            }
