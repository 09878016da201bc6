"""A version-keyed, LRU-bounded query-result cache.

The serving layer's answer to the saturation/reformulation trade-off
*per request*: whatever strategy answered a query, re-answering it on
an unchanged graph is pure waste.  The cache key is

    ``(query text, ruleset, backend, strategy, reformulation
    strategy, graph.version)``

— the graph's monotone version counter (PR 3's ``Graph.version``,
also behind ``cached_derived``) is *part of the key*, so an effective
update invalidates every previously cached answer by construction:
there is no invalidation message to lose, no stale read to race.
Entries for dead versions age out of the LRU bound like any other
cold entry.

Thread-safe (one mutex around an :class:`~collections.OrderedDict`;
the critical section is a dict move, far below query cost).  Hits,
misses and evictions are counted into :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from ..obs import get_metrics
from ..sparql.bindings import ResultSet

__all__ = ["QueryResultCache", "CacheStats"]

#: (query text, ruleset name, backend, strategy, reformulation
#: strategy, validity token).  The validity token is the graph version
#: (the sharded coordinator uses its per-shard version vector).
CacheKey = Tuple[str, str, str, str, str, Hashable]


@dataclass(frozen=True, slots=True)
class CacheStats:
    """A point-in-time view of the cache's effectiveness."""

    size: int
    capacity: int
    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class QueryResultCache:
    """LRU cache from :data:`CacheKey` to :class:`ResultSet`.

    Cached result sets are treated as immutable by every consumer
    (serializers only read them), so hits hand back the shared object
    without a copy.
    """

    __slots__ = ("capacity", "_entries", "_lock", "_hits", "_misses",
                 "_evictions")

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, ResultSet]" = \
            OrderedDict()  # sc: guarded-by(_lock)
        self._lock = threading.Lock()
        self._hits = 0  # sc: guarded-by(_lock)
        self._misses = 0  # sc: guarded-by(_lock)
        self._evictions = 0  # sc: guarded-by(_lock)

    def get(self, key: CacheKey) -> Optional[ResultSet]:
        metrics = get_metrics()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                metrics.counter("cache.misses").inc()
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        metrics.counter("cache.hits").inc()
        return entry

    def put(self, key: CacheKey, results: ResultSet) -> None:
        evicted = 0
        with self._lock:
            self._entries[key] = results
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            get_metrics().counter("cache.evictions").inc(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(size=len(self._entries),
                              capacity=self.capacity,
                              hits=self._hits, misses=self._misses,
                              evictions=self._evictions)

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (benchmark phases)."""
        with self._lock:
            self._hits = self._misses = self._evictions = 0
