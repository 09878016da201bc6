"""The RDF database facade: one store, the paper's two techniques.

Section II-B compares two ways to answer queries under RDFS;
:class:`RDFDatabase` makes each a pluggable :class:`Strategy` over the
same store, so they can be compared — and switched — on live data:

* ``NONE`` — plain query evaluation, ignoring entailed triples (what
  the paper notes many database prototypes do);
* ``SATURATION`` — forward chaining + incremental maintenance, the
  OWLIM / Oracle Semantic Graph regime;
* ``REFORMULATION`` — rewrite each query against the schema, the [12]
  regime, robust to updates by construction: it keeps the one asserted
  graph and the :class:`~repro.schema.Schema`, and an instance update
  touches neither the schema nor the cached rewritings.

Both reasoning strategies return identical answer sets (an invariant
the test suite checks); they differ — by orders of magnitude, see
Figure 3 — in where they spend the time.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..obs import get_metrics, span
from ..rdf.graph import Graph
from ..rdf.triples import Triple, TriplePattern
from ..reasoning.incremental import (CountingReasoner, DRedReasoner,
                                     IncrementalReasoner)
from ..reasoning.reformulation import reformulate
from ..reasoning.rulesets import RDFS_DEFAULT, RHO_DF, RuleSet, get_ruleset
from ..reasoning.saturation import has_meta_schema
from ..schema import Schema, is_schema_triple
from ..storage import DEFAULT_SNAPSHOT_EVERY, DurableStore, WALRecord
from ..sparql.ast import BGPQuery
from ..sparql.bindings import ResultSet
from ..sparql.evaluator import (DEFAULT_REFORMULATION_STRATEGY,
                                REFORMULATION_STRATEGIES, evaluate,
                                evaluate_reformulation)
from ..sparql.parser import parse_query

__all__ = ["Strategy", "RDFDatabase", "UnsupportedGraphError"]


class Strategy(enum.Enum):
    """How query answers reflect entailed triples."""

    NONE = "none"
    SATURATION = "saturation"
    REFORMULATION = "reformulation"


class UnsupportedGraphError(RuntimeError):
    """Raised when a strategy cannot honour its completeness contract
    on the current graph (e.g. reformulation on a meta-schema graph)."""


def _stored_strategy(value: str) -> Strategy:
    """The strategy a saved store or snapshot manifest recorded.

    ``"backward"`` names the retired magic-set regime; it answered
    ``q(G∞)`` exactly as saturation does, so such stores reopen under
    ``SATURATION`` with unchanged answers."""
    return Strategy.SATURATION if value == "backward" else Strategy(value)


class RDFDatabase:
    """An RDF store with a selectable reasoning strategy.

    >>> from repro.db import RDFDatabase, Strategy
    >>> db = RDFDatabase(strategy=Strategy.REFORMULATION)
    >>> db.load_turtle('''
    ...     @prefix ex: <http://example.org/> .
    ...     ex:Woman rdfs:subClassOf ex:Person .
    ...     ex:Anne a ex:Woman .
    ... ''')
    4
    >>> rows = db.query("SELECT ?x WHERE { ?x a <http://example.org/Person> }")
    >>> len(rows)
    1
    """

    def __init__(self, graph: Optional[Graph] = None,
                 strategy: Strategy = Strategy.SATURATION,
                 ruleset: RuleSet = RDFS_DEFAULT,
                 maintenance: str = "dred",
                 backend: Optional[str] = None,
                 reformulation_strategy: str = DEFAULT_REFORMULATION_STRATEGY,
                 storage_dir: Optional[str] = None,
                 snapshot_every: int = DEFAULT_SNAPSHOT_EVERY):
        if maintenance not in ("dred", "counting"):
            raise ValueError("maintenance must be 'dred' or 'counting'")
        if reformulation_strategy not in REFORMULATION_STRATEGIES:
            raise ValueError(
                "reformulation_strategy must be one of "
                + ", ".join(repr(s) for s in REFORMULATION_STRATEGIES))
        self._storage: Optional[DurableStore] = None
        self._resume_saturated: Optional[Graph] = None
        store: Optional[DurableStore] = None
        recovered = None
        if storage_dir is not None and DurableStore.exists(storage_dir):
            # the committed store is the source of truth: it supplies
            # the graph *and* the configuration it was committed under
            if graph is not None:
                raise ValueError(
                    f"{storage_dir!r} already holds a committed store; "
                    "it cannot be combined with an initial graph")
            store = DurableStore(storage_dir, snapshot_every)
            recovered = store.recover()
            meta = recovered.meta
            strategy = _stored_strategy(meta["strategy"])  # type: ignore[arg-type]
            ruleset = get_ruleset(meta["ruleset"])  # type: ignore[arg-type]
            maintenance = meta["maintenance"]  # type: ignore[assignment]
            reformulation_strategy = meta["reformulation_strategy"]  # type: ignore[assignment]
            self._explicit: Graph = recovered.explicit
            self._resume_saturated = recovered.saturated
        # backend defaults to the given graph's layout (hash otherwise);
        # an explicit choice converts the snapshot on the way in
        elif graph is None:
            self._explicit = Graph(backend=backend or "hash")
        elif backend is None or backend == graph.backend:
            self._explicit = graph.copy()
        else:
            self._explicit = graph.to_backend(backend)
        self._strategy = strategy
        self._ruleset = ruleset
        self._maintenance = maintenance
        self._reformulation_strategy = reformulation_strategy
        self._reasoner: Optional[IncrementalReasoner] = None
        self._schema: Optional[Schema] = None
        self._queries_answered = 0
        # reformulations depend only on the query and the schema, so
        # they are cached until a schema change bumps the generation
        self._reformulation_cache: Dict[BGPQuery, object] = {}
        self._schema_generation = 0
        self._prepare()
        if storage_dir is not None:
            if recovered is not None:
                assert store is not None
                # replay before attaching so the replayed batches are
                # not re-appended to the WAL they came from
                self._replay(recovered.records)
                self._storage = store
                if store.should_snapshot():
                    self.snapshot()
            else:
                store = DurableStore(storage_dir, snapshot_every)
                store.initialize(self._meta(), self._explicit,
                                 self._saturated_graph())
                self._storage = store

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    @property
    def strategy(self) -> Strategy:
        return self._strategy

    @property
    def ruleset(self) -> RuleSet:
        return self._ruleset

    @property
    def reformulation_strategy(self) -> str:
        """How reformulated queries are evaluated (``"ucq"``, the
        default, ``"factorized"`` or ``"encoded"``)."""
        return self._reformulation_strategy

    @property
    def backend(self) -> str:
        """Index layout of the store (``"hash"`` or ``"columnar"``)."""
        return self._explicit.backend

    def switch_strategy(self, strategy: Strategy) -> None:
        """Change the reasoning regime; derived state is rebuilt."""
        if strategy != self._strategy:
            get_metrics().counter("db.strategy_switches",
                                  to=strategy.value).inc()
            with span("db.switch_strategy", to=strategy.value):
                self._strategy = strategy
                self._reasoner = None
                self._schema = None
                self._prepare()
            if self._storage is not None:
                # config changes are committed via a snapshot (its meta
                # carries the strategy), never via WAL records — so a
                # restart always reopens under the regime it crashed in
                self.snapshot()

    def _prepare(self) -> None:
        if self._strategy == Strategy.SATURATION:
            factory = DRedReasoner if self._maintenance == "dred" \
                else CountingReasoner
            if self._resume_saturated is not None:
                # recovery: adopt the persisted closure instead of
                # re-running the initial saturation fixpoint
                self._reasoner = factory.resume(
                    self._explicit, self._resume_saturated, self._ruleset)
                self._resume_saturated = None
            else:
                self._reasoner = factory(self._explicit, self._ruleset)
        elif self._strategy == Strategy.REFORMULATION:
            self._check_reformulation_supported()
            self._rebuild_schema()

    def _check_reformulation_supported(self) -> None:
        if frozenset(self._ruleset.rules) != frozenset(RHO_DF.rules):
            raise UnsupportedGraphError(
                "the reformulation strategy is complete for the "
                "rhodf/rdfs-default rule set only")
        if has_meta_schema(self._explicit):
            raise UnsupportedGraphError(
                "the graph constrains the RDFS vocabulary itself; "
                "reformulation is out of fragment — use SATURATION")

    def _rebuild_schema(self) -> None:
        self._schema = Schema.from_graph(self._explicit)
        if self._reformulation_cache:
            get_metrics().counter("db.reformulation_cache_invalidations").inc()
        self._reformulation_cache.clear()
        self._schema_generation += 1

    # ------------------------------------------------------------------
    # data
    # ------------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The explicit graph (the user's assertions)."""
        return self._explicit

    def __len__(self) -> int:
        return len(self._explicit)

    def insert(self, triples: Union[Triple, Iterable[Triple]]) -> int:
        """Insert explicit triples; derived state follows the strategy."""
        batch = [triples] if isinstance(triples, Triple) else list(triples)
        get_metrics().counter("db.triples_inserted").inc(len(batch))
        version_before = self._explicit.version
        added = self._explicit.update(batch)
        if self._strategy == Strategy.SATURATION and self._reasoner is not None:
            self._reasoner.insert(batch)
        elif self._strategy == Strategy.REFORMULATION:
            if any(is_schema_triple(t) for t in batch):
                self._check_reformulation_supported()
                self._rebuild_schema()
            else:
                # instance-only batches keep the cached interval-encoded
                # view warm instead of forcing a rebuild on next query
                from ..reasoning.encoding import refresh_view_after_insert
                refresh_view_after_insert(self._explicit, batch)
        self._log_update("insert", batch, version_before)
        return added

    def delete(self, triples: Union[Triple, Iterable[Triple]]) -> int:
        """Delete explicit triples; derived state follows the strategy."""
        batch = [triples] if isinstance(triples, Triple) else list(triples)
        get_metrics().counter("db.triples_deleted").inc(len(batch))
        version_before = self._explicit.version
        removed = self._explicit.remove_all(batch)
        if self._strategy == Strategy.SATURATION and self._reasoner is not None:
            self._reasoner.delete(batch)
        elif self._strategy == Strategy.REFORMULATION:
            if any(is_schema_triple(t) for t in batch):
                self._rebuild_schema()
            else:
                from ..reasoning.encoding import refresh_view_after_delete
                refresh_view_after_delete(self._explicit, batch)
        self._log_update("delete", batch, version_before)
        return removed

    def apply(self, inserts: Iterable[Triple] = (),
              deletes: Iterable[Triple] = ()) -> Tuple[int, int]:
        """Apply one mixed update batch: deletions first, then
        insertions (so replacing a triple in one batch behaves as
        expected).  Returns ``(removed, added)``."""
        removed = self.delete(list(deletes))
        added = self.insert(list(inserts))
        return removed, added

    def update(self, text: str) -> Tuple[int, int]:
        """Execute a SPARQL Update request (the ground
        ``INSERT DATA`` / ``DELETE DATA`` subset); operations run in
        order.  Returns total ``(removed, added)``."""
        from ..sparql.update import parse_update

        removed = added = 0
        for operation in parse_update(text, self._explicit.namespaces):
            if operation.kind == "insert":
                added += self.insert(operation.triples)
            else:
                removed += self.delete(operation.triples)
        return removed, added

    def load_turtle(self, text: str) -> int:
        """Parse Turtle and insert its triples; returns the count added."""
        from ..rdf.turtle import parse_turtle

        return self.insert(list(parse_turtle(text, self._explicit.namespaces)))

    def load_ntriples(self, text: str) -> int:
        """Parse N-Triples and insert; returns the count added."""
        from ..rdf.ntriples import parse_ntriples

        return self.insert(list(parse_ntriples(text)))

    # ------------------------------------------------------------------
    # query answering
    # ------------------------------------------------------------------

    def query(self, query: Union[str, BGPQuery, "UnionQuery"],
              reformulation_strategy: Optional[str] = None) -> ResultSet:
        """Answer a BGP or UNION query under the configured strategy.

        Accepts SPARQL text or a pre-built query object.  For both
        reasoning strategies the answer set is ``q(G∞)``; for
        ``Strategy.NONE`` it is the incomplete ``q(G)``.

        ``reformulation_strategy`` overrides the database's configured
        reformulated-query evaluation strategy for this call only (it
        has no effect under the other reasoning regimes).
        """
        if reformulation_strategy is None:
            reformulation_strategy = self._reformulation_strategy
        elif reformulation_strategy not in REFORMULATION_STRATEGIES:
            raise ValueError(
                "reformulation_strategy must be one of "
                + ", ".join(repr(s) for s in REFORMULATION_STRATEGIES))
        if isinstance(query, str):
            query = parse_query(query, self._explicit.namespaces)
        from ..sparql.union import UnionQuery

        if isinstance(query, UnionQuery):
            return self._query_union(query, reformulation_strategy)
        metrics = get_metrics()
        with span("db.query", strategy=self._strategy.value) as sp:
            if self._strategy == Strategy.NONE:
                results = evaluate(self._explicit, query)
            elif self._strategy == Strategy.SATURATION:
                assert self._reasoner is not None
                results = evaluate(self._reasoner.graph, query)
            else:
                assert self._schema is not None
                reformulated = self._reformulation_cache.get(query)
                if reformulated is None:
                    metrics.counter("db.reformulation_cache_misses").inc()
                    reformulated = reformulate(query, self._schema)
                    # parsed text never carries presets; a preset query
                    # is a caller-built one-off with constants bound in,
                    # and caching those would grow the cache without
                    # bound, so only preset-free queries (the recurring
                    # workload shapes) are remembered
                    if not query.preset:
                        self._reformulation_cache[query] = reformulated
                else:
                    metrics.counter("db.reformulation_cache_hits").inc()
                results = evaluate_reformulation(
                    self._explicit, reformulated,
                    strategy=reformulation_strategy)
            sp.set(answers=len(results))
        metrics.counter("db.queries", strategy=self._strategy.value).inc()
        metrics.histogram("db.query_seconds").observe(sp.duration)
        self._queries_answered += 1
        return results

    def _query_union(self, union,
                     reformulation_strategy: Optional[str] = None) -> ResultSet:
        """A union's answer set is the set-union of its branches'
        answer sets, each answered under the configured strategy."""
        with span("db.query_union", strategy=self._strategy.value,
                  branches=len(union.branches)) as sp:
            results = ResultSet(union.distinguished, distinct=True)
            for branch in union.branches:
                for row in self.query(branch, reformulation_strategy):
                    results.add(row)
                    if union.limit is not None and len(results) >= union.limit:
                        break
                if union.limit is not None and len(results) >= union.limit:
                    break
            sp.set(answers=len(results))
        # the per-branch calls each counted themselves; count the union too
        self._queries_answered += 1
        return results

    def ask_query(self, query: Union[str, BGPQuery],
                  reformulation_strategy: Optional[str] = None) -> bool:
        """Answer a boolean (ASK) query under the configured strategy:
        True iff the BGP has at least one answer in ``G∞`` (or in ``G``
        for ``Strategy.NONE``)."""
        if isinstance(query, str):
            query = parse_query(query, self._explicit.namespaces)
        from ..sparql.union import UnionQuery

        if isinstance(query, UnionQuery):
            limited = UnionQuery(query.branches, query.distinguished,
                                 query.distinct, limit=1)
            return len(self.query(limited, reformulation_strategy)) > 0
        return len(self.query(query.with_modifiers(limit=1),
                              reformulation_strategy)) > 0

    def ask(self, triple: Triple) -> bool:
        """Does the database entail ``triple`` (``G ⊢RDF s p o``)?"""
        if self._strategy == Strategy.NONE:
            return triple in self._explicit
        if self._strategy == Strategy.SATURATION:
            assert self._reasoner is not None
            return triple in self._reasoner.graph
        return self.ask_query(BGPQuery(
            [TriplePattern(triple.s, triple.p, triple.o)], ()))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, directory: str) -> None:
        """Persist the explicit graph and the database configuration.

        Layout: ``<dir>/data.nt`` (sorted N-Triples — diffable) and
        ``<dir>/meta.json`` (strategy, rule set, maintenance choice).
        Only explicit triples are stored; derived state is recomputed
        on :meth:`load`, which is always correct and usually cheaper
        than shipping the saturation.

        The save is atomic: everything is written to a temp sibling
        directory, fsynced, and swapped in by rename — a failure at
        any point before the swap leaves the previous saved state
        untouched and readable.
        """
        import json
        import os
        import shutil

        from ..rdf.ntriples import serialize_ntriples
        from ..storage.faults import fault_point
        from ..storage.runfiles import fsync_dir

        directory = directory.rstrip("/")
        parent = os.path.dirname(os.path.abspath(directory))
        os.makedirs(parent, exist_ok=True)
        fault_point("save.start")
        tmp = directory + ".saving"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        with open(os.path.join(tmp, "data.nt"), "w",
                  encoding="utf-8") as handle:
            handle.write(serialize_ntriples(self._explicit, sort=True))
            handle.flush()
            os.fsync(handle.fileno())
        meta = {
            "format": "repro-database",
            "version": 1,
            "strategy": self._strategy.value,
            "ruleset": self._ruleset.name,
            "maintenance": self._maintenance,
            "reformulation_strategy": self._reformulation_strategy,
            "backend": self._explicit.backend,
            "triples": len(self._explicit),
        }
        with open(os.path.join(tmp, "meta.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2)
            handle.flush()
            os.fsync(handle.fileno())
        fsync_dir(tmp)
        fault_point("save.files_written")
        if os.path.exists(directory):
            trash = directory + ".old"
            if os.path.exists(trash):
                shutil.rmtree(trash)
            os.rename(directory, trash)
            os.rename(tmp, directory)
            shutil.rmtree(trash, ignore_errors=True)
        else:
            os.rename(tmp, directory)
        fsync_dir(parent)

    @classmethod
    def load(cls, directory: str) -> "RDFDatabase":
        """Reopen a database saved with :meth:`save`."""
        import json
        import os

        from ..rdf.ntriples import graph_from_ntriples
        from ..reasoning.rulesets import get_ruleset

        with open(os.path.join(directory, "meta.json"),
                  encoding="utf-8") as handle:
            meta = json.load(handle)
        if meta.get("format") != "repro-database":
            raise ValueError(f"{directory!r} is not a repro database")
        with open(os.path.join(directory, "data.nt"),
                  encoding="utf-8") as handle:
            graph = graph_from_ntriples(handle.read())
        db = cls(graph, strategy=_stored_strategy(meta["strategy"]),
                 ruleset=get_ruleset(meta["ruleset"]),
                 maintenance=meta.get("maintenance", "dred"),
                 backend=meta.get("backend", "hash"),
                 reformulation_strategy=meta.get(
                     "reformulation_strategy", "factorized"))
        return db

    # ------------------------------------------------------------------
    # durable storage (WAL + snapshots; see repro.storage)
    # ------------------------------------------------------------------

    @property
    def storage(self) -> Optional[DurableStore]:
        """The attached durable store, or ``None`` when in-memory only."""
        return self._storage

    def _meta(self) -> Dict[str, object]:
        """The configuration a snapshot manifest records (recovery
        reopens under exactly this configuration)."""
        return {
            "strategy": self._strategy.value,
            "ruleset": self._ruleset.name,
            "maintenance": self._maintenance,
            "reformulation_strategy": self._reformulation_strategy,
            "backend": self._explicit.backend,
        }

    def _saturated_graph(self) -> Optional[Graph]:
        """The closure to persist alongside the explicit graph, if the
        strategy maintains one worth shipping (re-deriving it is the
        cost recovery exists to avoid)."""
        if self._strategy == Strategy.SATURATION and self._reasoner is not None:
            return self._reasoner.graph
        return None

    def _log_update(self, op: str, batch: List[Triple],
                    version_before: int) -> None:
        """Append one applied batch to the WAL (durable before the
        caller sees the mutation acknowledged).

        No-effect batches are not logged: the version they would carry
        equals the previous record's, which the staleness test on
        recovery treats as already covered.  Replay re-applies the
        *requested* batch through the same code path, so the version
        sequence reproduces deterministically.
        """
        if self._storage is None or self._explicit.version == version_before:
            return
        self._storage.log({
            "op": op,
            "nt": [t.n3() for t in batch],
            "version": self._explicit.version,
        })
        if self._storage.should_snapshot():
            self.snapshot()

    def _replay(self, records: List[WALRecord]) -> None:
        """Re-apply the WAL tail through the maintenance engines."""
        from ..rdf.ntriples import parse_ntriples_line

        metrics = get_metrics()
        with span("storage.replay", records=len(records)):
            for record in records:
                batch = [parse_ntriples_line(line)
                         for line in record["nt"]]  # type: ignore[union-attr]
                if record["op"] == "insert":
                    self.insert(batch)
                else:
                    self.delete(batch)
                if self._explicit.version != record["version"]:
                    # replay is deterministic, so this is defensive
                    # only: pin the persisted version and flag it
                    metrics.counter("storage.version_fixups").inc()
                    self._explicit.restore_version(
                        int(record["version"]))  # type: ignore[call-overload]

    def snapshot(self) -> str:
        """Fold the WAL into a freshly committed snapshot.

        Returns the committed snapshot's directory name.  Requires an
        attached store (``storage_dir=`` at construction).
        """
        if self._storage is None:
            raise RuntimeError("no storage directory attached "
                               "(construct with storage_dir=...)")
        return self._storage.snapshot(self._meta(), self._explicit,
                                      self._saturated_graph())

    def close(self) -> None:
        """Release the durable store's WAL handle (no-op in-memory)."""
        if self._storage is not None:
            self._storage.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Store and reasoning statistics, for dashboards and tests."""
        info: Dict[str, object] = {
            "strategy": self._strategy.value,
            "ruleset": self._ruleset.name,
            "backend": self._explicit.backend,
            "explicit_triples": len(self._explicit),
            "queries_answered": self._queries_answered,
        }
        if self._strategy == Strategy.SATURATION and self._reasoner is not None:
            info["saturated_triples"] = len(self._reasoner.graph)
            info["implicit_triples"] = (len(self._reasoner.graph)
                                        - len(self._reasoner.explicit))
            info["maintenance"] = self._maintenance
        if self._strategy == Strategy.REFORMULATION and self._schema is not None:
            info["cached_reformulations"] = len(self._reformulation_cache)
            info["schema_generation"] = self._schema_generation
            info["reformulation_strategy"] = self._reformulation_strategy
        if self._storage is not None:
            info["storage"] = self._storage.stats()
        return info
