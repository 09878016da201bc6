"""The decomposed replay's building blocks: each layer's public functions
called directly, under a span named after the layer.

The untraced workloads go through ``RDFDatabase`` / the HTTP server; the
traced replay rebuilds the same state from the same inputs with the calls
the facade makes internally — parse, index build, saturate, the
incremental reasoner, the WAL — so that each can be timed on its own.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rdf.ntriples import parse_ntriples
from repro.reasoning.incremental import DRedReasoner
from repro.reasoning.saturation import saturate
from repro.schema import is_schema_triple
from repro.sparql.evaluator import evaluate
from repro.sparql.optimizer import order_patterns
from repro.sparql.parser import parse_query
from repro.sparql.results import results_to_json
from repro.sparql.update import parse_update
from repro.storage import DurableStore

from . import stats
from .tracing import Tracer

#: What ``RDFDatabase`` records in a snapshot manifest for the fixed
#: configuration.
STORE_META = {"strategy": "saturation", "ruleset": "rdfs-default",
              "maintenance": "dred", "reformulation_strategy": "factorized",
              "backend": "columnar", "views": None}


def load_graph(tracer: Tracer, text: str) -> Graph:
    """N-Triples text to a compacted columnar graph, layer by layer."""
    with tracer.span("rdf.ntriples.parse"):
        triples = list(parse_ntriples(text))
    with tracer.span("rdf.columnar.build"):
        graph = Graph(triples, backend="columnar")
    with tracer.span("rdf.columnar.compact"):
        graph.index.compact()  # type: ignore[union-attr]
    return graph


def saturated_copy(tracer: Tracer, graph: Graph) -> Graph:
    """``G∞`` by a from-scratch saturation, its work counted."""
    with tracer.span("reasoning.saturation.saturate"):
        result = saturate(graph)
    tracer.counts["reasoning.saturation.derived_triples"] = result.inferred
    tracer.counts["reasoning.saturation.rounds"] = result.rounds
    return result.graph


def timed_recover(tracer: Tracer, directory: str) -> None:
    """Open the committed snapshot and the WAL tail, as a restart does."""
    store = DurableStore(directory)
    with tracer.span("storage.recover"):
        store.recover()
    store.close()


def answer_metrics(rows: int, document_bytes: int) -> Dict[str, float]:
    """What one pass's queries returned and what serializing it cost."""
    return {"sparql.evaluator.rows_out": rows,
            "sparql.results.json_bytes": document_bytes,
            "sparql.results.bytes_per_row": document_bytes / rows}


class ShadowStore:
    """The write path of a SATURATION database, one layer per call: the
    explicit graph, the DRed reasoner over its closure and (optionally)
    the durable store, advanced by the same update texts."""

    def __init__(self, tracer: Tracer, explicit: Graph, saturated: Graph,
                 storage_dir: Optional[str] = None,
                 snapshot_every: int = 100):
        self.tracer = tracer
        self.explicit = explicit
        self.reasoner = DRedReasoner.resume(explicit, saturated)
        self.store: Optional[DurableStore] = None
        self.storage_dir = storage_dir
        self.derived: List[int] = []
        self.rederived: List[int] = []
        self.user_bytes = 0
        self.wal_bytes = 0
        if storage_dir is not None:
            self.store = DurableStore(storage_dir, snapshot_every)
            with tracer.span("storage.snapshot"):
                self.store.initialize(STORE_META, explicit, saturated)

    @property
    def graph(self) -> Graph:
        return self.reasoner.graph

    def update(self, text: str) -> None:
        tracer = self.tracer
        with tracer.span("sparql.update.parse_update"):
            operations = parse_update(text, self.explicit.namespaces)
        self.user_bytes += len(text)
        for operation in operations:
            batch = list(operation.triples)
            schema = any(is_schema_triple(t) for t in batch)
            layer = ("reasoning.incremental."
                     + ("schema_" if schema else "") + operation.kind)
            with tracer.span("rdf.graph.update"):
                if operation.kind == "insert":
                    self.explicit.update(batch)
                else:
                    self.explicit.remove_all(batch)
            with tracer.span(layer):
                if operation.kind == "insert":
                    result = self.reasoner.insert(batch)
                    self.derived.append(result.implicit_added)
                else:
                    result = self.reasoner.delete(batch)
                    self.rederived.append(result.rederived)
            if self.store is not None:
                assert self.store.wal is not None
                before = self.store.wal.bytes_written
                with tracer.span("storage.wal.append"):
                    self.store.log({"op": operation.kind,
                                    "nt": [t.n3() for t in batch],
                                    "version": self.explicit.version})
                self.wal_bytes += self.store.wal.bytes_written - before
                if self.store.should_snapshot():
                    with tracer.span("storage.snapshot"):
                        self.store.snapshot(STORE_META, self.explicit,
                                            self.reasoner.graph)

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


def traced_select(tracer: Tracer, graph: Graph, text: str):
    """Parse, plan and evaluate one SELECT against ``graph``."""
    with tracer.span("sparql.parser.parse_query"):
        query = parse_query(text, graph.namespaces)
    with tracer.span("sparql.optimizer.order_patterns"):
        order_patterns(graph, query.patterns)
    with tracer.span("sparql.evaluator.evaluate"):
        results = evaluate(graph, query)
    return results


def traced_json(tracer: Tracer, results) -> str:
    with tracer.span("sparql.results.results_to_json"):
        return results_to_json(results)


def median_of(tracer: Tracer, name: str, scale: float = 1.0) -> float:
    """Median duration of the spans called ``name`` (0 when none ran)."""
    durations = tracer.durations(name)
    return stats.median(durations) * scale if durations else 0.0


def common_layer_metrics(tracer: Tracer, triples: int) -> Dict[str, float]:
    """Every metric that is the median duration of one span name, plus
    the counts taken at layer boundaries."""
    values: Dict[str, float] = dict(tracer.counts)
    parse = median_of(tracer, "rdf.ntriples.parse")
    if parse:
        values["rdf.ntriples.parse_s"] = parse
        values["rdf.ntriples.triples_per_s"] = triples / parse
    values["rdf.columnar.build_s"] = median_of(tracer, "rdf.columnar.build")
    values["rdf.columnar.compact_s"] = median_of(tracer,
                                                 "rdf.columnar.compact")
    values["reasoning.saturation.saturate_s"] = median_of(
        tracer, "reasoning.saturation.saturate")
    for layer, unit_scale, metric in (
            ("sparql.parser.parse_query", 1e6, "sparql.parser.parse_us"),
            ("sparql.update.parse_update", 1e6, "sparql.update.parse_us"),
            ("sparql.optimizer.order_patterns", 1e6,
             "sparql.optimizer.plan_us"),
            ("sparql.evaluator.evaluate", 1e3, "sparql.evaluator.eval_ms"),
            ("sparql.results.results_to_json", 1e3,
             "sparql.results.json_ms"),
            ("reasoning.incremental.insert", 1e3,
             "reasoning.incremental.insert_ms"),
            ("reasoning.incremental.delete", 1e3,
             "reasoning.incremental.delete_ms"),
            ("reasoning.incremental.schema_insert", 1e3,
             "reasoning.incremental.schema_insert_ms"),
            ("reasoning.incremental.schema_delete", 1e3,
             "reasoning.incremental.schema_delete_ms"),
            ("storage.wal.append", 1e3, "storage.wal.append_ms"),
            ("storage.snapshot", 1.0, "storage.snapshot_s"),
            ("storage.recover", 1.0, "storage.recover_s"),
            ("db.query", 1e3, "db.query_ms"),
            ("db.update", 1e3, "db.update_ms"),
            ("server.service.query", 1e3, "server.service.query_ms"),
            ("server.service.update", 1e3, "server.service.update_ms"),
            ("server.cache.get", 1e6, "server.cache.get_us")):
        values[metric] = median_of(tracer, layer, unit_scale)
    return values


def unattributed(tracer: Tracer, whole: str, parts: Tuple[str, ...]
                 ) -> Tuple[float, float]:
    """``(ms, share)``: what the undecomposed call ``whole`` costs per
    operation beyond the layer calls in ``parts``.  Differences are taken
    within an operation and their median within an operation kind, so
    that a collector pause in one call does not pass for a layer's cost;
    the share is over the kinds' summed medians."""
    kind_of: Dict[int, str] = {}
    whole_by_op: Dict[int, float] = {}
    parts_by_op: Dict[int, float] = {}
    for name, start, end, _, op in tracer.spans:
        if name.startswith("op."):
            kind_of[op] = name
        elif name == whole:
            whole_by_op[op] = whole_by_op.get(op, 0.0) + end - start
        elif name in parts:
            parts_by_op[op] = parts_by_op.get(op, 0.0) + end - start
    if not whole_by_op:
        return 0.0, 0.0
    rest = stats.by_kind_median(
        (kind_of[op], seconds - parts_by_op.get(op, 0.0))
        for op, seconds in whole_by_op.items())
    total = stats.by_kind_median(
        (kind_of[op], seconds) for op, seconds in whole_by_op.items())
    return (sum(rest.values()) / len(rest) * 1e3,
            sum(rest.values()) / sum(total.values()))
