"""The sharded serving tier: scatter-gather SPARQL over worker processes.

One coordinator process owns the HTTP front-end, the query-result
cache and the admission/locking discipline; ``N`` forked shard workers
(:mod:`repro.server.shard_worker`) each hold the hash-share of
instance triples whose *subject* maps to them — the exact
:func:`repro.distributed.partition.subject_owner` contract of the
simulated distributed engine — plus a full schema replica, and run
their own :class:`~repro.db.RDFDatabase` (their own reasoner, their
own indexes, their own core).  Saturation, the paper's
update-intensive regime, parallelizes across subjects because every
ρdf rule joins at most one instance atom with replicated schema atoms;
the only cross-shard traffic is range-typing conclusions whose
conclusion subject lands elsewhere, which the coordinator *ships* to
the owner under a refcount (a conclusion shipped by two shards
survives until both retract it).

Consistency model:

* a per-shard **version vector** replaces the single graph version:
  every worker reply carries its fragment version, queries snapshot
  the vector under the read lock, and the cache keys answers on the
  whole tuple — a hit is provably current across all shards;
* queries run under the shared side of one
  :class:`~repro.server.rwlock.ReadWriteLock`, updates (and their
  ship fix-point) under the exclusive side, so no query ever observes
  a half-propagated update;
* each shard channel is serialized by a gate; scatters acquire gates
  in ascending shard order (deadlock-free) and release each gate as
  its reply arrives, so concurrent scatters pipeline behind each
  other instead of serializing end-to-end.

A dead or unresponsive worker raises :class:`ShardUnavailableError`,
which the HTTP layer maps to 503 — degraded, never hung.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..cancellation import CancellationToken, OperationCancelled
from ..db import Strategy
from ..distributed.partition import partition_graph, subject_owner
from ..distributed.saturation import has_instance_instance_join
from ..obs import get_metrics, span
from ..rdf.graph import Graph
from ..rdf.triples import Triple
from ..reasoning.rulesets import RuleSet, get_ruleset
from ..schema import is_schema_triple
from ..sparql.bindings import ResultSet
from ..sparql.parser import parse_query
from ..sparql.update import UpdateOperation, parse_update
from .cache import CacheKey, QueryResultCache
from .rwlock import ReadWriteLock
from .service import _ASK_RE, QueryOutcome, UpdateOutcome
from .shard_worker import shard_main
from .shardplan import (ShardQueryPlan, ShardUnionPlan, merge_bgp_rows,
                        plan_query)
from .shardwire import FrameError, recv_frame, send_frame

__all__ = ["ShardUnavailableError", "ShardCluster", "ShardedDatabase",
           "build_sharded_database"]

Row = Tuple[object, ...]
_PendingShips = Dict[int, Set[Triple]]


class ShardUnavailableError(RuntimeError):
    """A shard worker died or its channel tore mid-request."""


def _check(shard_id: int, reply: object) -> Dict[str, object]:
    """Unwrap a worker reply; error replies re-raise coordinator-side.

    Worker-classified *user* errors (bad query text, unsupported
    graph) come back as :class:`ValueError` so the protocol layer maps
    them to 400 exactly like the single-process server.
    """
    if not isinstance(reply, dict):
        raise ShardUnavailableError(
            f"shard {shard_id} sent a malformed reply")
    if not reply.get("ok", False):
        message = str(reply.get("error", "shard request failed"))
        if reply.get("user_error"):
            raise ValueError(message)
        raise RuntimeError(f"shard {shard_id}: {message}")
    return reply


def _child_entry(sock: socket.socket, shard_id: int, shards: int,
                 inherited: Sequence[socket.socket]) -> None:
    """Worker bootstrap: drop the parent-end sockets of earlier shards
    (inherited across fork) so their EOF semantics stay one-owner."""
    for other in inherited:
        try:
            other.close()
        except OSError:  # pragma: no cover - defensive
            pass
    shard_main(sock, shard_id, shards)


class ShardCluster:
    """The worker processes and their serialized frame channels."""

    __slots__ = ("shards", "_processes", "_socks", "_gates", "_broken")

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._socks: List[socket.socket] = []
        self._gates = [threading.Lock() for _ in range(shards)]
        self._broken = [False] * shards
        context = multiprocessing.get_context("fork")
        for shard_id in range(shards):
            parent_end, child_end = socket.socketpair()
            process = context.Process(
                target=_child_entry,
                args=(child_end, shard_id, shards, tuple(self._socks)),
                name=f"repro-shard-{shard_id}", daemon=True)
            process.start()
            # the child's copy is the only one left once ours closes:
            # worker death is an immediate EOF on the parent end
            child_end.close()
            self._processes.append(process)
            self._socks.append(parent_end)

    # ------------------------------------------------------------------
    # channel primitives (gate held)
    # ------------------------------------------------------------------

    def _send(self, shard_id: int, request: Dict[str, object],
              timeout: Optional[float]) -> None:
        if self._broken[shard_id]:
            raise ShardUnavailableError(f"shard {shard_id} is down")
        sock = self._socks[shard_id]
        try:
            sock.settimeout(timeout)
            send_frame(sock, request)
        except (OSError, FrameError) as error:
            self._broken[shard_id] = True
            raise ShardUnavailableError(
                f"shard {shard_id} unreachable: {error}") from error

    def _recv(self, shard_id: int,
              timeout: Optional[float]) -> Dict[str, object]:
        sock = self._socks[shard_id]
        try:
            sock.settimeout(timeout)
            reply = recv_frame(sock)
        except (OSError, FrameError) as error:
            # a timed-out channel is desynchronized (the reply is
            # still coming); it cannot be reused
            self._broken[shard_id] = True
            raise ShardUnavailableError(
                f"shard {shard_id} failed: {error}") from error
        if reply is None:
            self._broken[shard_id] = True
            raise ShardUnavailableError(f"shard {shard_id} exited")
        return _check(shard_id, reply)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def alive(self, shard_id: int) -> bool:
        return (not self._broken[shard_id]
                and self._processes[shard_id].is_alive())

    def pids(self) -> List[Optional[int]]:
        return [process.pid for process in self._processes]

    def call(self, shard_id: int, request: Dict[str, object],
             timeout: Optional[float] = None) -> Dict[str, object]:
        """One request/reply exchange with a single shard."""
        with self._gates[shard_id]:
            self._send(shard_id, request, timeout)
            return self._recv(shard_id, timeout)

    def scatter(self, requests: Dict[int, Dict[str, object]],
                timeout: Optional[float] = None
                ) -> Dict[int, Dict[str, object]]:
        """Send every request, then collect every reply.

        Gates are acquired in ascending shard order — two concurrent
        scatters cannot deadlock — and released as replies arrive, so
        a second scatter's frames queue in the socket buffers while
        the first is still collecting.  All shards compute in parallel
        between their send and their recv.

        On a shard failure the remaining replies are still drained
        (their channels stay usable) before the first error re-raises.
        """
        order = sorted(requests)
        held: List[int] = []
        sent: List[int] = []
        replies: Dict[int, Dict[str, object]] = {}
        failure: Optional[BaseException] = None
        try:
            for shard_id in order:
                self._gates[shard_id].acquire()
                held.append(shard_id)
                try:
                    self._send(shard_id, requests[shard_id], timeout)
                    sent.append(shard_id)
                except ShardUnavailableError as error:
                    if failure is None:
                        failure = error
            for shard_id in sent:
                try:
                    replies[shard_id] = self._recv(shard_id, timeout)
                except (ShardUnavailableError, ValueError,
                        RuntimeError) as error:
                    if failure is None:
                        failure = error
                finally:
                    self._gates[shard_id].release()
                    held.remove(shard_id)
        finally:
            for shard_id in held:
                self._gates[shard_id].release()
        if failure is not None:
            raise failure
        return replies

    def shutdown(self) -> None:
        """Orderly stop: shutdown frames, join, then terminate."""
        for shard_id in range(self.shards):
            try:
                self.call(shard_id, {"op": "shutdown"}, timeout=2.0)
            except (ShardUnavailableError, RuntimeError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
        for sock in self._socks:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for shard_id in range(self.shards):
            self._broken[shard_id] = True


# ----------------------------------------------------------------------
# ship propagation (pure functions over the coordinator's guarded
# state, always called with the exclusive lock held by the caller)
# ----------------------------------------------------------------------

def _absorb_reply(shards: int, versions: List[int],
                  ship_refs: Dict[Triple, Set[int]],
                  shard_id: int, reply: Dict[str, object],
                  pending_add: _PendingShips,
                  pending_del: _PendingShips) -> None:
    """Record a mutating reply: fragment version plus ships.

    ``ship_refs`` refcounts each shipped conclusion by deriving shard:
    the owner receives it on the first deriver (0→1) and loses it only
    when the last deriver retracts (1→0) — a conclusion two shards
    derive survives either one's deletion.
    """
    versions[shard_id] = int(reply["version"])  # type: ignore[arg-type]
    for triple in reply.get("ships_del", ()):  # type: ignore[union-attr]
        sources = ship_refs.get(triple)
        if sources is None or shard_id not in sources:
            continue
        sources.discard(shard_id)
        if not sources:
            del ship_refs[triple]
            owner = subject_owner(triple.s, shards)
            pending_del.setdefault(owner, set()).add(triple)
    for triple in reply.get("ships_add", ()):  # type: ignore[union-attr]
        sources = ship_refs.setdefault(triple, set())
        if not sources:
            owner = subject_owner(triple.s, shards)
            pending_add.setdefault(owner, set()).add(triple)
        sources.add(shard_id)


def _run_ship_rounds(cluster: ShardCluster, versions: List[int],
                     ship_refs: Dict[Triple, Set[int]],
                     pending_add: _PendingShips,
                     pending_del: _PendingShips) -> None:
    """Propagate foreign conclusions to their owners to fix-point.

    Ship requests run without a channel deadline: like the
    single-process update path, a mutation in flight is never torn
    down halfway.
    """
    while pending_add or pending_del:  # sc: allow(SC303): converges in <=2 rounds under rho-df — shipped typings only feed subject-local rules
        targets = sorted(set(pending_add) | set(pending_del))
        requests = {
            shard_id: {
                "op": "ship",
                "add": sorted(pending_add.get(shard_id, ())),
                "del": sorted(pending_del.get(shard_id, ())),
            }
            for shard_id in targets}
        pending_add, pending_del = {}, {}
        replies = cluster.scatter(requests)
        for shard_id in targets:
            _absorb_reply(cluster.shards, versions, ship_refs, shard_id,
                          replies[shard_id], pending_add, pending_del)


def _apply_operation(cluster: ShardCluster, versions: List[int],
                     ship_refs: Dict[Triple, Set[int]],
                     operation: UpdateOperation) -> int:
    """Route one ground update operation and settle its ships.

    Schema triples broadcast to every shard (only shard 0's effect
    count is taken — the replicas change identically); instance
    triples go to their subject owner, every owner's count taken.
    """
    schema = [t for t in operation.triples if is_schema_triple(t)]
    routed: Dict[int, List[Triple]] = {}
    for triple in operation.triples:
        if not is_schema_triple(triple):
            owner = subject_owner(triple.s, cluster.shards)
            routed.setdefault(owner, []).append(triple)
    effective = 0
    pending_add: _PendingShips = {}
    pending_del: _PendingShips = {}
    batches: List[Dict[int, Dict[str, object]]] = []
    if schema:
        batches.append({
            shard_id: {"op": "update", "kind": operation.kind,
                       "triples": schema, "counted": shard_id == 0}
            for shard_id in range(cluster.shards)})
    if routed:
        batches.append({
            shard_id: {"op": "update", "kind": operation.kind,
                       "triples": triples, "counted": True}
            for shard_id, triples in routed.items()})
    for requests in batches:
        replies = cluster.scatter(requests)
        for shard_id in sorted(replies):
            reply = replies[shard_id]
            effective += int(reply["effective"])  # type: ignore[arg-type]
            _absorb_reply(cluster.shards, versions, ship_refs, shard_id,
                          reply, pending_add, pending_del)
    _run_ship_rounds(cluster, versions, ship_refs,
                     pending_add, pending_del)
    return effective


class ShardedDatabase:
    """Scatter-gather serving facade over a :class:`ShardCluster`.

    Duck-types the :class:`~repro.server.service.ServingDatabase`
    surface the protocol layer consumes (``query``/``update``/
    ``stats``/``healthz``/``update_log``/``views_*``/``snapshot``), so
    the HTTP front-end serves a sharded store through the exact same
    request-planning code path as a single-process one.
    """

    __slots__ = ("cluster", "namespaces", "ruleset_name", "backend",
                 "strategy", "reformulation_strategy", "lock", "cache",
                 "cache_size", "_stats_lock", "_versions", "_update_log",
                 "_ship_refs", "_served_queries", "_served_updates")

    def __init__(self, cluster: ShardCluster, namespaces,
                 ruleset_name: str, backend: str, strategy: Strategy,
                 reformulation_strategy: str, cache_size: int = 256):
        self.cluster = cluster
        self.namespaces = namespaces
        self.ruleset_name = ruleset_name
        self.backend = backend
        self.strategy = strategy
        self.reformulation_strategy = reformulation_strategy
        self.lock = ReadWriteLock()
        self.cache_size = cache_size
        self.cache = QueryResultCache(cache_size)
        self._stats_lock = threading.Lock()
        self._versions = [0] * cluster.shards  # sc: guarded-by(lock)
        self._update_log: List[Tuple[int, str]] = []  # sc: guarded-by(lock)
        #: which shards currently derive each shipped conclusion — a
        #: conclusion leaves its owner only when every deriver retracts
        self._ship_refs: Dict[Triple, Set[int]] = {}  # sc: guarded-by(lock)
        self._served_queries = 0  # sc: guarded-by(_stats_lock)
        self._served_updates = 0  # sc: guarded-by(_stats_lock)

    # ------------------------------------------------------------------
    # loading and ship propagation (write side)
    # ------------------------------------------------------------------

    @property
    def _colocated(self) -> bool:
        """Whole subject stars live on one shard — true whenever the
        worker store holds materialized state (explicit or saturated);
        under reformulation the rewriting moves subjects, so only
        single atoms may be pushed (see :mod:`.shardplan`)."""
        return self.strategy is not Strategy.REFORMULATION

    def _load(self, fragments: Sequence[Graph], ruleset_name: str) -> None:
        requests = {
            shard_id: {
                "op": "load",
                "triples": list(fragment),
                "strategy": self.strategy.value,
                "ruleset": ruleset_name,
                "backend": self.backend,
                "reformulation_strategy": self.reformulation_strategy,
            }
            for shard_id, fragment in enumerate(fragments)}
        with self.lock.write(timeout=None):
            replies = self.cluster.scatter(requests)
            pending_add: _PendingShips = {}
            pending_del: _PendingShips = {}
            for shard_id in sorted(replies):
                _absorb_reply(self.cluster.shards, self._versions,
                              self._ship_refs, shard_id,
                              replies[shard_id], pending_add, pending_del)
            _run_ship_rounds(self.cluster, self._versions,
                             self._ship_refs, pending_add, pending_del)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _cache_key(self, text: str, validity: object,
                   reformulation_strategy: Optional[str]) -> CacheKey:
        return (text, self.ruleset_name, self.backend,
                self.strategy.value,
                reformulation_strategy or self.reformulation_strategy,
                validity)

    def query(self, text: str,
              timeout: Optional[float] = None,
              token: Optional[CancellationToken] = None,
              reformulation_strategy: Optional[str] = None) -> QueryOutcome:
        """Answer SPARQL ``text`` by scatter-gather, through the cache.

        The cache is keyed on the whole version vector: an entry is
        valid exactly when no shard has moved since it was computed.
        """
        if token is None:
            token = CancellationToken(timeout)
        metrics = get_metrics()
        try:
            with span("coordinator.query") as sp:
                token.raise_if_cancelled()
                with self.lock.read(timeout=token.remaining):
                    vector = tuple(self._versions)
                    version = sum(vector)
                    if _ASK_RE.match(text) is not None:
                        parsed = parse_query(text, self.namespaces)
                        results = self._evaluate(
                            parsed, token, reformulation_strategy)
                        outcome = QueryOutcome(
                            kind="boolean", version=version, cached=False,
                            boolean=len(results) > 0, seconds=sp.duration)
                    else:
                        key = self._cache_key(text, vector,
                                              reformulation_strategy)
                        hit = self.cache.get(key)
                        if hit is not None:
                            outcome = QueryOutcome(
                                kind="select", version=version,
                                cached=True, results=hit,
                                seconds=sp.duration)
                        else:
                            parsed = parse_query(text, self.namespaces)
                            results = self._evaluate(
                                parsed, token, reformulation_strategy)
                            self.cache.put(key, results)
                            outcome = QueryOutcome(
                                kind="select", version=version,
                                cached=False, results=results,
                                seconds=sp.duration)
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

    def _evaluate(self, parsed, token: CancellationToken,
                  reformulation_strategy: Optional[str]) -> ResultSet:
        plan = plan_query(parsed, self.cluster.shards, self._colocated)
        if isinstance(plan, ShardUnionPlan):
            return self._gather_union(plan, token, reformulation_strategy)
        return self._gather_bgp(plan, token, reformulation_strategy)

    def _gather_bgp(self, plan: ShardQueryPlan, token: CancellationToken,
                    reformulation_strategy: Optional[str]) -> ResultSet:
        gathered: List[List[Row]] = []
        for subplan in plan.subplans:
            request = {"op": "query", "text": subplan.text,
                       "reformulation_strategy": reformulation_strategy}
            replies = self.cluster.scatter(
                {shard_id: request for shard_id in subplan.targets},
                timeout=token.remaining)
            rows: List[Row] = []
            for shard_id in subplan.targets:
                rows.extend(replies[shard_id]["rows"])  # type: ignore[arg-type]
            gathered.append(rows)
        return merge_bgp_rows(plan, gathered)

    def _gather_union(self, plan: ShardUnionPlan,
                      token: CancellationToken,
                      reformulation_strategy: Optional[str]) -> ResultSet:
        rows: List[Row] = []
        for branch in plan.branches:
            # branches were re-projected to the shared head at parse
            # time, so their rows align with the union's variables
            rows.extend(self._gather_bgp(
                branch, token, reformulation_strategy).rows())
        # branch order then merge order: deterministic without a sort
        ordered = list(dict.fromkeys(rows))
        if plan.limit is not None:
            ordered = ordered[:plan.limit]
        results = ResultSet(plan.distinguished, distinct=True)
        results.extend_unique_rows(iter(ordered))
        return results

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def update(self, text: str,
               timeout: Optional[float] = None,
               token: Optional[CancellationToken] = None) -> UpdateOutcome:
        """Route a ground update to the owning shards under the write
        lock, then propagate the resulting ships to fix-point.

        Schema triples broadcast to every shard (only shard 0's effect
        count is taken); instance triples go to their subject owner.
        The deadline covers admission and lock acquisition only, as in
        the single-process server — a mutation is never torn mid-way.
        """
        if token is None:
            token = CancellationToken(timeout)
        metrics = get_metrics()
        try:
            with span("coordinator.update") as sp:
                token.raise_if_cancelled()
                operations = parse_update(text, self.namespaces)
                with self.lock.write(timeout=token.remaining):
                    removed = added = 0
                    for operation in operations:
                        effective = _apply_operation(
                            self.cluster, self._versions,
                            self._ship_refs, operation)
                        if operation.kind == "insert":
                            added += effective
                        else:
                            removed += effective
                    version = sum(self._versions)
                    self._update_log.append((version, text))
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
    # durability and views (not available sharded)
    # ------------------------------------------------------------------

    @property
    def can_snapshot(self) -> bool:
        return False

    def snapshot(self, timeout: Optional[float] = None,
                 token: Optional[CancellationToken] = None
                 ) -> Dict[str, object]:
        raise ValueError("the sharded tier has no durable storage; "
                         "snapshots need a single-process server "
                         "started with --storage-dir")

    def views_info(self,
                   timeout: Optional[float] = None) -> Dict[str, object]:
        return {
            "count": 0, "views": [], "enabled": False,
            "note": "materialized views are not available in the "
                    "sharded tier",
            "workload_log": {"size": 0, "capacity": 0, "recorded": 0},
        }

    def views_advise(self, apply: bool = False,
                     min_support: int = 2, max_atoms: int = 4,
                     max_views: int = 8,
                     timeout: Optional[float] = None) -> Dict[str, object]:
        raise ValueError("view advising is not available in the "
                         "sharded tier")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def update_log(self,
                   timeout: Optional[float] = None) -> List[Tuple[int, str]]:
        with self.lock.read(timeout=timeout):
            return list(self._update_log)

    def healthz(self) -> Dict[str, object]:
        """The health document: per-shard liveness via cheap pings.

        A dead shard degrades the status instead of failing the
        endpoint — ``/healthz`` keeps answering while the cluster
        limps, which is what the kill-one-shard smoke test asserts.
        """
        shard_versions: List[Optional[int]] = []
        triples = 0
        down: List[int] = []
        for shard_id in range(self.cluster.shards):
            try:
                reply = self.cluster.call(shard_id, {"op": "ping"},
                                          timeout=2.0)
                shard_versions.append(int(reply["version"]))  # type: ignore[arg-type]
                triples += int(reply.get("triples", 0))  # type: ignore[arg-type]
            except (ShardUnavailableError, RuntimeError, ValueError):
                shard_versions.append(None)
                down.append(shard_id)
        with self.lock.read(timeout=None):
            version = sum(self._versions)
        return {
            "status": "degraded" if down else "ok",
            "triples": triples,
            "version": version,
            "backend": self.backend,
            "strategy": self.strategy.value,
            "reformulation_strategy": self.reformulation_strategy,
            "shards": self.cluster.shards,
            "shards_down": down,
            "shard_versions": shard_versions,
            "shard_pids": self.cluster.pids(),
        }

    def stats(self) -> Dict[str, object]:
        """Serving statistics, shaped like the single-process ones
        (``cache``/``served_*``/``graph_version``) plus the per-shard
        detail gathered from the live workers."""
        cache = self.cache.stats()
        with self._stats_lock:
            served_queries = self._served_queries
            served_updates = self._served_updates
        with self.lock.read(timeout=None):
            vector = list(self._versions)
            shipped = len(self._ship_refs)
        shards_detail: List[Dict[str, object]] = []
        for shard_id in range(self.cluster.shards):
            try:
                reply = self.cluster.call(shard_id, {"op": "stats"},
                                          timeout=5.0)
                shards_detail.append({
                    "shard": shard_id,
                    "alive": True,
                    "triples": reply.get("triples"),
                    "version": reply.get("version"),
                    "busy_seconds": reply.get("busy_seconds"),
                    "obs": reply.get("obs"),
                })
            except (ShardUnavailableError, RuntimeError, ValueError):
                shards_detail.append({"shard": shard_id, "alive": False})
        return {
            "sharded": True,
            "shards": self.cluster.shards,
            "backend": self.backend,
            "strategy": self.strategy.value,
            "reformulation_strategy": self.reformulation_strategy,
            "ruleset": self.ruleset_name,
            "graph_version": sum(vector),
            "shard_versions": vector,
            "shipped_conclusions": shipped,
            "served_queries": served_queries,
            "served_updates": served_updates,
            "active_readers": self.lock.active_readers,
            "cache": {
                "size": cache.size, "capacity": cache.capacity,
                "hits": cache.hits, "misses": cache.misses,
                "evictions": cache.evictions,
                "hit_rate": round(cache.hit_rate, 6),
            },
            "workload_log": {"size": 0, "capacity": 0, "recorded": 0},
            "shards_detail": shards_detail,
        }

    def close(self) -> None:
        self.cluster.shutdown()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_sharded_database(graph: Graph, shards: int, *,
                           strategy: Union[Strategy, str] = Strategy.SATURATION,
                           ruleset: Union[RuleSet, str, None] = None,
                           backend: str = "hash",
                           reformulation_strategy: str = "factorized",
                           cache_size: int = 256) -> ShardedDatabase:
    """Partition ``graph``, spawn the workers and load every fragment.

    Validates the configuration *before* forking: backward chaining
    evaluates joins at query time against triples that may live on
    another shard, and any ruleset with an instance–instance join
    (e.g. transitivity over instance properties) cannot be saturated
    worker-locally under subject hashing — both are rejected here
    rather than mis-answered later.
    """
    if isinstance(strategy, str):
        strategy = Strategy(strategy)
    if isinstance(ruleset, str):
        ruleset = get_ruleset(ruleset)
    if ruleset is None:
        ruleset = get_ruleset("rdfs-default")
    if strategy is Strategy.BACKWARD:
        raise ValueError("backward chaining is not supported in the "
                         "sharded tier (query-time joins are not "
                         "subject-local)")
    unsupported = [rule.name for rule in ruleset
                   if has_instance_instance_join(rule)]
    if unsupported:
        raise ValueError(
            "ruleset %r has instance-instance joins (%s) that cannot "
            "be saturated worker-locally under subject hashing"
            % (ruleset.name, ", ".join(unsupported)))
    partitioned = partition_graph(graph, shards)
    cluster = ShardCluster(shards)
    try:
        service = ShardedDatabase(
            cluster, graph.namespaces.copy(), ruleset.name, backend,
            strategy, reformulation_strategy, cache_size=cache_size)
        service._load(partitioned.fragments, ruleset.name)
    except BaseException:
        cluster.shutdown()
        raise
    return service
