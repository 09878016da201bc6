""":class:`ServingDatabase`: the concurrent, transport-free serving core.

Everything the HTTP layer does that is *not* HTTP lives here, so tests
and the in-process load generator exercise the real serving semantics
without sockets:

* every query runs under the shared side of a
  :class:`~repro.server.rwlock.ReadWriteLock`, every update under the
  exclusive side — updates serialize against in-flight queries, and a
  query always sees one consistent graph version;
* query answers are cached in a version-keyed LRU
  (:class:`~repro.server.cache.QueryResultCache`); because the graph
  version is part of the key, a hit is *provably* current;
* per-request deadlines arm a
  :class:`~repro.cancellation.CancellationToken` that the lock
  acquisition, the evaluator loops and the saturation rounds all honor
  — a slow query gives its worker (and its read lock) back.

Updates are deliberately *not* cancelled mid-flight: the incremental
reasoners mutate derived state in place, and tearing that down halfway
would corrupt the store.  A deadline can reject an update before it
starts (queued too long, writer lock contended); once the mutation
begins it runs to completion.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cancellation import (CancellationToken, OperationCancelled,
                            cancellation_scope)
from ..db import RDFDatabase
from ..obs import get_metrics, span
from ..sparql.bindings import ResultSet
from ..sparql.parser import parse_query
from .cache import CacheKey, QueryResultCache
from .rwlock import ReadWriteLock

__all__ = ["ServerConfig", "QueryOutcome", "UpdateOutcome",
           "ServingDatabase"]

#: ASK detection: prefix declarations, then the ASK keyword.  The AST
#: does not distinguish ASK from SELECT (an ASK parses to a LIMIT-1
#: BGP), so the protocol layer keys off the request text.
_ASK_RE = re.compile(r"^\s*(?:PREFIX\s+\S*\s*<[^>]*>\s*)*ASK\b",
                     re.IGNORECASE)


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """Admission-control and cache knobs for one serving instance."""

    workers: int = 4            #: worker threads executing requests
    queue_depth: int = 16       #: admission queue bound (full -> 503)
    timeout: Optional[float] = 10.0  #: default per-request deadline (s)
    cache_size: int = 256       #: query-result cache entries (LRU)
    host: str = "127.0.0.1"
    port: int = 8000            #: 0 picks an ephemeral port


@dataclass(frozen=True, slots=True)
class QueryOutcome:
    """One answered query, with the serving metadata tests assert on."""

    kind: str                        #: "select" | "boolean"
    version: int                     #: graph version the answer is for
    cached: bool
    results: Optional[ResultSet] = None
    boolean: Optional[bool] = None
    seconds: float = 0.0


@dataclass(frozen=True, slots=True)
class UpdateOutcome:
    """One applied update batch."""

    removed: int
    added: int
    version: int                     #: graph version after the update
    seconds: float = 0.0


@dataclass(slots=True)
class _UpdateLogEntry:
    """The serialized-order update history (differential testing)."""

    version: int
    text: str
    removed: int = 0
    added: int = 0


@dataclass(slots=True)
class ServingDatabase:
    """A thread-safe serving wrapper around one :class:`RDFDatabase`.

    The guarded-by annotations below are enforced statically (SC301):
    the update log belongs to the readers–writer ``lock`` (appended
    under its exclusive side, read under its shared side), the served
    counters to the dedicated ``_stats_lock`` mutex so bumping them
    never serializes queries behind the big lock.
    """

    db: RDFDatabase
    cache_size: int = 256
    lock: ReadWriteLock = field(default_factory=ReadWriteLock)
    cache: QueryResultCache = field(init=False, repr=False)
    _stats_lock: threading.Lock = field(init=False, repr=False)
    _update_log: List[_UpdateLogEntry] = \
        field(init=False, repr=False)  # sc: guarded-by(lock)
    _served_queries: int = \
        field(init=False, repr=False)  # sc: guarded-by(_stats_lock)
    _served_updates: int = \
        field(init=False, repr=False)  # sc: guarded-by(_stats_lock)

    def __post_init__(self) -> None:
        self.cache = QueryResultCache(self.cache_size)
        self._stats_lock = threading.Lock()
        self._update_log = []
        self._served_queries = 0
        self._served_updates = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _cache_key(self, text: str, version: int,
                   reformulation_strategy: Optional[str] = None) -> CacheKey:
        return (text, self.db.ruleset.name, self.db.backend,
                self.db.strategy.value,
                reformulation_strategy or self.db.reformulation_strategy,
                version)

    def query(self, text: str,
              timeout: Optional[float] = None,
              token: Optional[CancellationToken] = None,
              reformulation_strategy: Optional[str] = None) -> QueryOutcome:
        """Answer SPARQL ``text`` under the read lock, through the cache.

        ``token`` (armed at admission) takes precedence over
        ``timeout``; both absent means no deadline.  Raises
        :class:`OperationCancelled` when the deadline fires — whether
        while waiting for the lock or mid-evaluation.

        ``reformulation_strategy`` overrides the database's configured
        reformulated-query evaluation for this request; it is part of
        the cache key, so answers computed under different strategies
        never alias (they are equal by contract, but the serving layer
        does not rely on that).  The text is parsed on a cache miss
        only: a hit is looked up by the text itself, and a malformed
        text is never cached, so it raises on every request.
        """
        if token is None:
            token = CancellationToken(timeout)
        metrics = get_metrics()
        try:
            with span("server.query") as sp:
                token.raise_if_cancelled()
                with self.lock.read(timeout=token.remaining):
                    version = self.db.graph.version
                    is_ask = _ASK_RE.match(text) is not None
                    if is_ask:
                        # ASK answers are one LIMIT-1 probe; not cached
                        with cancellation_scope(token):
                            answer = self.db.ask_query(
                                text, reformulation_strategy)
                        outcome = QueryOutcome(
                            kind="boolean", version=version, cached=False,
                            boolean=answer, seconds=sp.duration)
                    else:
                        key = self._cache_key(text, version,
                                              reformulation_strategy)
                        hit = self.cache.get(key)
                        if hit is not None:
                            outcome = QueryOutcome(
                                kind="select", version=version, cached=True,
                                results=hit, seconds=sp.duration)
                        else:
                            parsed = parse_query(text,
                                                 self.db.graph.namespaces)
                            with cancellation_scope(token):
                                results = self.db.query(
                                    parsed, reformulation_strategy)
                            self.cache.put(key, results)
                            outcome = QueryOutcome(
                                kind="select", version=version, cached=False,
                                results=results, seconds=sp.duration)
                sp.set(version=outcome.version, cached=outcome.cached)
        except OperationCancelled as cancelled:
            if cancelled.reason == "deadline":
                metrics.counter("server.deadline_exceeded").inc()
            raise
        with self._stats_lock:
            self._served_queries += 1
        metrics.counter("server.requests", endpoint="sparql").inc()
        metrics.histogram("server.query_seconds").observe(outcome.seconds)
        return outcome

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def update(self, text: str,
               timeout: Optional[float] = None,
               token: Optional[CancellationToken] = None) -> UpdateOutcome:
        """Apply a SPARQL Update request under the write lock.

        The deadline (if any) covers admission and lock acquisition
        only — see the module docstring for why the mutation itself is
        never cancelled.
        """
        if token is None:
            token = CancellationToken(timeout)
        metrics = get_metrics()
        try:
            with span("server.update") as sp:
                token.raise_if_cancelled()
                with self.lock.write(timeout=token.remaining):
                    removed, added = self.db.update(text)
                    version = self.db.graph.version
                    self._update_log.append(_UpdateLogEntry(
                        version=version, text=text,
                        removed=removed, added=added))
                    outcome = UpdateOutcome(removed=removed, added=added,
                                            version=version,
                                            seconds=sp.duration)
                sp.set(removed=removed, added=added, version=version)
        except OperationCancelled as cancelled:
            if cancelled.reason == "deadline":
                metrics.counter("server.deadline_exceeded").inc()
            raise
        with self._stats_lock:
            self._served_updates += 1
        metrics.counter("server.requests", endpoint="update").inc()
        metrics.histogram("server.update_seconds").observe(outcome.seconds)
        return outcome

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def snapshot(self, timeout: Optional[float] = None,
                 token: Optional[CancellationToken] = None) -> Dict[str, object]:
        """Commit a durable snapshot under the write lock.

        The write lock gives the snapshot a quiescent store: no update
        can interleave between the runs being flushed and the manifest
        being committed, so the snapshot is exactly one graph version.
        Requires the wrapped database to have a storage directory.
        """
        if token is None:
            token = CancellationToken(timeout)
        with span("server.snapshot") as sp:
            token.raise_if_cancelled()
            with self.lock.write(timeout=token.remaining):
                name = self.db.snapshot()
                version = self.db.graph.version
            sp.set(snapshot=name, version=version)
        get_metrics().counter("server.requests", endpoint="snapshot").inc()
        return {"snapshot": name, "version": version}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def update_log(self,
                   timeout: Optional[float] = None) -> List[Tuple[int, str]]:
        """The applied updates in serialization order, as
        ``(version_after, text)`` — the differential tests replay this
        against a single-threaded mirror.  Snapshots under the read
        lock: an in-flight update's entry is either fully visible or
        not yet appended, never half-written."""
        with self.lock.read(timeout=timeout):
            return [(entry.version, entry.text)
                    for entry in self._update_log]

    @property
    def can_snapshot(self) -> bool:
        """Snapshots need an attached durable store (``--storage-dir``)."""
        return self.db.storage is not None

    def healthz(self) -> Dict[str, object]:
        """The health document served by ``GET /healthz``."""
        document: Dict[str, object] = {
            "status": "ok",
            "triples": len(self.db),
            "version": self.db.graph.version,
            "backend": self.db.backend,
            "strategy": self.db.strategy.value,
            "reformulation_strategy": self.db.reformulation_strategy,
        }
        if self.db.storage is not None:
            document["storage"] = self.db.storage.stats()
        return document

    def stats(self) -> Dict[str, object]:
        """Serving statistics for ``GET /stats`` and dashboards."""
        cache = self.cache.stats()
        info: Dict[str, object] = dict(self.db.stats())
        with self._stats_lock:
            served_queries = self._served_queries
            served_updates = self._served_updates
        info.update({
            "graph_version": self.db.graph.version,
            "served_queries": served_queries,
            "served_updates": served_updates,
            "active_readers": self.lock.active_readers,
            "cache": {
                "size": cache.size, "capacity": cache.capacity,
                "hits": cache.hits, "misses": cache.misses,
                "evictions": cache.evictions,
                "hit_rate": round(cache.hit_rate, 6),
            },
        })
        return info
