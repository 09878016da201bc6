"""The shard worker process: one :class:`RDFDatabase` per core.

Each worker owns the hash-share of instance triples whose subject maps
to it (plus a full schema replica, the contract of
:mod:`repro.distributed.partition`) and runs its own reasoner — true
core scaling, no GIL sharing with the coordinator or its siblings.
The process speaks the :mod:`repro.server.shardwire` frame protocol
over the socketpair it inherits at fork: a synchronous
request/dispatch/reply loop, one request in flight at a time.

Two bookkeeping sets keep update counts byte-compatible with the
single-process server:

* ``user`` — triples explicitly asserted here (the fragment load plus
  every routed ``INSERT DATA``).  Insert/delete effect counts are
  computed against this set, because the worker's explicit graph also
  holds *shipped* triples;
* ``received`` — foreign-derived conclusions shipped in by the
  coordinator (under ρdf: range-typing conclusions whose subject this
  worker owns).  They live in the explicit graph so every strategy
  sees them, but they are invisible to effect counts, and a user
  deletion never removes one (the remote derivation still stands
  until its source ships a retraction).
"""

from __future__ import annotations

import socket
from typing import Dict, List, Optional

from ..db import RDFDatabase, Strategy
from ..distributed.partition import subject_owner
from ..obs import CpuStopwatch, get_metrics, observability_report, span
from ..rdf.graph import Graph
from ..rdf.triples import Triple
from ..reasoning.rulesets import get_ruleset
from ..schema import is_schema_triple
from ..sparql.parser import parse_query
from .shardwire import FrameError, recv_frame, send_frame

__all__ = ["shard_main", "ShardWorker"]

#: worker error classes re-raised coordinator-side as a 400-mapped
#: ValueError rather than an internal failure
_USER_ERRORS = ("ValueError", "SPARQLSyntaxError", "UnsupportedGraphError")


class ShardWorker:
    """The dispatch state of one shard process."""

    __slots__ = ("shard_id", "shards", "db", "user", "received",
                 "_parsed", "busy")

    #: parsed-query cache bound — at this size the cache is simply
    #: dropped; the serving mix repeats a small set of texts
    PARSE_CACHE_LIMIT = 512

    def __init__(self, shard_id: int, shards: int):
        self.shard_id = shard_id
        self.shards = shards
        self.db: Optional[RDFDatabase] = None
        self.user: set = set()
        self.received: set = set()
        self._parsed: Dict[str, object] = {}
        #: CPU seconds spent inside dispatch — the shard's *service
        #: demand*, excluding waits for the next request (and, being
        #: CPU time, excluding slices a sibling held the core), which
        #: ``stats`` reports as ``busy_seconds``.
        self.busy = CpuStopwatch()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def dispatch(self, request: Dict[str, object]) -> Dict[str, object]:
        op = request.get("op")
        if op == "load":
            return self._op_load(request)
        if op == "query":
            return self._op_query(request)
        if op == "update":
            return self._op_update(request)
        if op == "ship":
            return self._op_ship(request)
        if op == "stats":
            return self._op_stats()
        if op == "ping":
            return {"ok": True, "version": self._version(),
                    "triples": len(self.db.graph)
                    if self.db is not None else 0}
        if op == "shutdown":
            return {"ok": True}
        raise ValueError(f"unknown shard op {op!r}")

    def _version(self) -> int:
        return self.db.graph.version if self.db is not None else 0

    def _require_db(self) -> RDFDatabase:
        if self.db is None:
            raise ValueError("shard not loaded yet")
        return self.db

    def _foreign_instance(self, triple: Triple) -> bool:
        """A conclusion to ship: instance-level, owned elsewhere."""
        return (not is_schema_triple(triple)
                and subject_owner(triple.s, self.shards) != self.shard_id)

    def _collect_ships(self, db: RDFDatabase,
                       ships_add: List[Triple],
                       ships_del: List[Triple]) -> None:
        """Append the last closure delta's foreign conclusions."""
        if db.strategy is not Strategy.SATURATION or db._reasoner is None:
            return
        added, removed = db._reasoner.last_delta
        ships_add.extend(t for t in added if self._foreign_instance(t))
        ships_del.extend(t for t in removed if self._foreign_instance(t))

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def _op_load(self, request: Dict[str, object]) -> Dict[str, object]:
        with span("shard.load", shard=self.shard_id) as sp:
            triples = list(request["triples"])  # type: ignore[arg-type]
            backend = str(request["backend"])
            graph = Graph(backend=backend)
            graph.update(triples)
            self.db = RDFDatabase(
                graph,
                strategy=Strategy(str(request["strategy"])),
                ruleset=get_ruleset(str(request["ruleset"])),
                backend=backend,
                reformulation_strategy=str(request["reformulation_strategy"]))
            self.user = set(triples)
            self.received = set()
            self._parsed.clear()  # namespaces may have changed
            ships_add: List[Triple] = []
            if self.db.strategy is Strategy.SATURATION \
                    and self.db._reasoner is not None:
                ships_add = [t for t in self.db._reasoner.graph
                             if self._foreign_instance(t)]
            sp.set(triples=len(triples), ships=len(ships_add))
        return {"ok": True, "version": self._version(),
                "ships_add": ships_add, "ships_del": []}

    def _parse(self, db: RDFDatabase, text: str):
        """Parse ``text``, memoized: the serving mix repeats a small
        set of query texts, and parsing is a per-shard per-request
        constant that would otherwise bound scatter scaling."""
        parsed = self._parsed.get(text)
        if parsed is None:
            if len(self._parsed) >= self.PARSE_CACHE_LIMIT:
                self._parsed.clear()
            parsed = parse_query(text, db.graph.namespaces)
            self._parsed[text] = parsed
        return parsed

    def _op_query(self, request: Dict[str, object]) -> Dict[str, object]:
        db = self._require_db()
        with span("shard.query", shard=self.shard_id) as sp:
            parsed = self._parse(db, str(request["text"]))
            results = db.query(
                parsed, request.get("reformulation_strategy"))  # type: ignore[arg-type]
            sp.set(answers=len(results))
        get_metrics().counter("shard.query").inc()
        return {"ok": True,
                "vars": [v.name for v in results.variables],
                "rows": results.rows(),
                "version": self._version()}

    def _op_update(self, request: Dict[str, object]) -> Dict[str, object]:
        db = self._require_db()
        kind = str(request["kind"])
        triples = list(request["triples"])  # type: ignore[arg-type]
        counted = bool(request.get("counted", True))
        ships_add: List[Triple] = []
        ships_del: List[Triple] = []
        with span("shard.update", shard=self.shard_id, kind=kind) as sp:
            effective = 0
            if kind == "insert":
                for t in triples:  # incremental: a batch-internal dupe counts once
                    if t not in self.user:
                        effective += 1
                        self.user.add(t)
                db.insert(triples)
            elif kind == "delete":
                for t in triples:
                    if t in self.user:
                        effective += 1
                        self.user.discard(t)
                # shipped conclusions outlive a local retraction: the
                # remote derivation still stands until its owner ships
                # a deletion of its own
                db.delete([t for t in triples if t not in self.received])
            else:
                raise ValueError(f"unknown update kind {kind!r}")
            self._collect_ships(db, ships_add, ships_del)
            sp.set(triples=len(triples), effective=effective)
        get_metrics().counter("shard.update").inc()
        return {"ok": True,
                "effective": effective if counted else 0,
                "version": self._version(),
                "ships_add": ships_add, "ships_del": ships_del}

    def _op_ship(self, request: Dict[str, object]) -> Dict[str, object]:
        db = self._require_db()
        add = list(request.get("add") or ())
        remove = list(request.get("del") or ())
        ships_add: List[Triple] = []
        ships_del: List[Triple] = []
        with span("shard.ship", shard=self.shard_id) as sp:
            if remove:
                self.received.difference_update(remove)
                db.delete([t for t in remove if t not in self.user])
                self._collect_ships(db, ships_add, ships_del)
            if add:
                self.received.update(add)
                db.insert([t for t in add if t not in self.user])
                self._collect_ships(db, ships_add, ships_del)
            sp.set(added=len(add), removed=len(remove))
        get_metrics().counter("shard.ship").inc(len(add) + len(remove))
        return {"ok": True, "version": self._version(),
                "ships_add": ships_add, "ships_del": ships_del}

    def _op_stats(self) -> Dict[str, object]:
        db = self._require_db()
        return {"ok": True,
                "version": self._version(),
                "triples": len(db),
                "busy_seconds": self.busy.seconds,
                "db": db.stats(),
                "obs": observability_report(command="shard")}


def _classify(error: BaseException) -> Dict[str, object]:
    name = type(error).__name__
    return {"ok": False, "error": f"{name}: {error}",
            "user_error": name in _USER_ERRORS}


def shard_main(sock: socket.socket, shard_id: int, shards: int) -> None:
    """The worker process entry point: serve frames until EOF/shutdown.

    Every exception that escapes an operation is reported to the
    coordinator as an error reply — the worker survives bad requests;
    only a torn channel (coordinator death) or an explicit shutdown
    ends the loop.
    """
    worker = ShardWorker(shard_id, shards)
    try:
        while True:  # sc: allow(SC303): worker lifetime loop; ends on channel EOF or a shutdown frame
            request = recv_frame(sock)
            if request is None or not isinstance(request, dict):
                break
            with worker.busy:
                try:
                    reply = worker.dispatch(request)
                except Exception as error:  # pragma: no cover - defensive
                    reply = _classify(error)
            send_frame(sock, reply)
            if request.get("op") == "shutdown":
                break
    except (FrameError, OSError):  # torn channel: nothing to report to
        pass                       # (the coordinator is gone)
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
