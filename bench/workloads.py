"""The four in-process workloads, and the registry of all seven."""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Optional, Tuple, Type

from repro import RDFDatabase, Strategy
from repro.rdf.ntriples import graph_from_ntriples, serialize_ntriples
from repro.reasoning.encoding import encoded_view, refresh_view_after_insert
from repro.reasoning.reformulation import reformulate
from repro.schema import Schema
from repro.sparql.evaluator import evaluate_reformulation
from repro.sparql.parser import parse_query
from repro.sparql.results import results_to_json
from repro.sparql.update import parse_update
from repro.storage import DurableStore
from repro.workloads import generate_lubm

from . import datasets, layers, queries, stats
from .harness import Recorder, Workload, clock, directory_bytes
from .oracle import Expected
from .queries import Op
from .spec import FIXED_CONFIG
from .tracing import Tracer

BACKEND = str(FIXED_CONFIG["backend"])


def open_database(text: str, strategy: Strategy,
                  storage_dir: Optional[str] = None) -> RDFDatabase:
    """N-Triples text to a ready database, in the fixed configuration."""
    options = {}
    if storage_dir is not None:
        options = {"storage_dir": storage_dir,
                   "snapshot_every": FIXED_CONFIG["snapshot_every"]}
    return RDFDatabase(graph_from_ntriples(text), strategy=strategy,
                       maintenance=str(FIXED_CONFIG["maintenance"]),
                       backend=BACKEND, **options)


def update_effect(op: Op) -> Tuple[int, int]:
    """``(removed, added)`` when every triple of the batch takes effect."""
    return (0, op.triples) if op.kind.endswith("insert") else (op.triples, 0)


def timed_query(db: RDFDatabase, text: str) -> Tuple[str, float]:
    """The in-process query operation: answer and serialize."""
    started = clock()
    document = results_to_json(db.query(text))
    return document, clock() - started


# ----------------------------------------------------------------------
# load_saturate
# ----------------------------------------------------------------------

class LoadSaturate(Workload):
    """Rounds of: N-Triples text -> durable SATURATION database ->
    snapshot -> close -> reopen -> checksum query.

    The seed generates the graph itself here.  The checksum queries read
    only triples the generator places by index, not by chance, so their
    committed answers hold on every seed.
    """

    CHECKSUMS = ("Q1", "Q9", "Q10")  # the first is timed inside recover

    def prepare(self) -> None:
        self.expected = Expected(self.ctx.scale)
        self.round = 0
        self.disk_bytes_per_triple = 0.0
        self.recover_s: List[float] = []

    def setup(self) -> None:
        # set-up is producing the input text; loading it is the workload
        graph = generate_lubm(datasets.lubm_config(self.ctx.scale),
                              seed=self.ctx.seed)
        self.text = serialize_ntriples(graph)
        self.triples = len(graph)

    def run_pass(self, rec: Recorder) -> Tuple[int, float]:
        self.round += 1
        directory = os.path.join(self.ctx.tmpdir, f"store-{self.round}")
        checksum = queries.query_text(self.CHECKSUMS[0])
        started = clock()
        db = open_database(self.text, Strategy.SATURATION, directory)
        loaded = clock()
        db.snapshot()
        snapshotted = clock()
        db.close()
        db = RDFDatabase(storage_dir=directory)
        document = results_to_json(db.query(checksum))
        recovered = clock()
        rec.op("load", loaded - started, len(db) == self.triples)
        rec.op("snapshot", snapshotted - loaded, True)
        rec.op("recover", recovered - snapshotted,
               self.expected.size_ok(self.CHECKSUMS[0], len(document)))
        rec.check(self.expected.document_ok(self.CHECKSUMS[0], document))
        for qid in self.CHECKSUMS[1:]:
            rec.check(self.expected.document_ok(
                qid, results_to_json(db.query(queries.query_text(qid)))))
        self.recover_s.append(recovered - snapshotted)
        self.disk_bytes_per_triple = directory_bytes(directory) / len(db)
        db.close()
        shutil.rmtree(directory)
        # an op is one input triple made durable and queryable
        return self.triples, recovered - started

    def diagnostics(self) -> Dict[str, float]:
        return {"client.recover_s": stats.median(self.recover_s),
                "client.disk_bytes_per_triple": self.disk_bytes_per_triple}

    def trace_pass(self, tracer: Tracer) -> None:
        directory = os.path.join(self.ctx.tmpdir, "traced-store")
        with tracer.op("round"):
            graph = layers.load_graph(tracer, self.text)
            saturated = layers.saturated_copy(tracer, graph)
            store = DurableStore(directory)
            with tracer.span("storage.snapshot"):
                store.initialize(layers.STORE_META, graph, saturated)
            store.close()
            layers.timed_recover(tracer, directory)
        shutil.rmtree(directory)

    def layer_metrics(self, tracer: Tracer,
                      rec: Recorder) -> Dict[str, float]:
        values = layers.common_layer_metrics(tracer, self.triples)
        values["storage.snapshots"] = tracer.count("storage.snapshot")
        return values


# ----------------------------------------------------------------------
# query_sat / query_ref
# ----------------------------------------------------------------------

class QueryWorkload(Workload):
    """The 16 templates through ``RDFDatabase.query`` + ``results_to_json``,
    single thread.  The seed picks the department of the two bound-constant
    templates and the order of each pass.

    Allocation is deterministic, so with one fixed order a full garbage
    collection would hit the same template in every pass and pass for its
    latency; a fresh seeded order per pass lets the per-template medians
    see through it.
    """

    strategy: Strategy

    def prepare(self) -> None:
        self.dataset = datasets.build(self.ctx.scale)
        self.expected = Expected(self.ctx.scale)
        self.expected.check_graph(self.dataset)
        self.dataset.graph = None  # type: ignore[assignment]  # text only
        rng = self.ctx.rng
        dept = rng.choice(queries.department_ids(self.dataset.universities))
        qids = [t if t in queries.FIXED_TEMPLATES else f"{t}:{dept}"
                for t in queries.QUERY_TEMPLATES]
        self.ops: List[Op] = [queries.query_op(q) for q in qids]
        self.db: Optional[RDFDatabase] = None
        self.last: List[Tuple[str, str]] = []

    def setup(self) -> None:
        self.db = open_database(self.dataset.text, self.strategy)

    def teardown(self) -> None:
        self.db = None

    def run_pass(self, rec: Recorder) -> Tuple[int, float]:
        assert self.db is not None
        self.last = []
        self.ctx.rng.shuffle(self.ops)
        started = clock()
        for kind, qid, text, _ in self.ops:
            document, seconds = timed_query(self.db, text)
            rec.op(kind, seconds, self.expected.size_ok(qid, len(document)))
            self.last.append((qid, document))
        return len(self.ops), clock() - started

    def verify(self, rec: Recorder) -> None:
        for qid, document in self.last:
            rec.check(self.expected.document_ok(qid, document))
        self.last = []

    def trace_teardown(self) -> None:
        self.graph = None


class QuerySat(QueryWorkload):
    strategy = Strategy.SATURATION

    def trace_setup(self, tracer: Tracer) -> None:
        self.graph = layers.saturated_copy(
            tracer, layers.load_graph(tracer, self.dataset.text))

    def trace_pass(self, tracer: Tracer) -> None:
        assert self.db is not None
        self.rows_out = self.json_bytes = 0
        for kind, _, text, _ in self.ops:
            with tracer.op(kind):
                with tracer.span("db.query"):
                    self.db.query(text)
                results = layers.traced_select(tracer, self.graph, text)
                document = layers.traced_json(tracer, results)
            self.rows_out += len(results)
            self.json_bytes += len(document)

    def layer_metrics(self, tracer: Tracer,
                      rec: Recorder) -> Dict[str, float]:
        values = layers.common_layer_metrics(tracer, self.dataset.triples)
        values.update(layers.answer_metrics(self.rows_out, self.json_bytes))
        (values["db.unattributed_ms"],
         values["db.unattributed_share"]) = layers.unattributed(
            tracer, "db.query", ("sparql.parser.parse_query",
                                 "sparql.evaluator.evaluate"))
        return values


class QueryRef(QueryWorkload):
    strategy = Strategy.REFORMULATION

    def trace_setup(self, tracer: Tracer) -> None:
        # what RDFDatabase keeps under REFORMULATION: the schema and the
        # explicit graph plus the schema's own closure
        explicit = layers.load_graph(tracer, self.dataset.text)
        self.schema = Schema.from_graph(explicit)
        explicit.update(self.schema.closure_triples())
        self.graph = explicit
        assert self.db is not None
        self.evaluation = self.db.reformulation_strategy
        # the interval-encoded view is off the default (factorized) path;
        # its build and refresh are timed once so the layer has a number
        with tracer.span("reasoning.encoding.encoded_view"):
            encoded_view(self.graph)
        batch = list(parse_update(queries.insert_data(
            queries.fresh_student_triples(0, "u0d0")))[0].triples)
        self.graph.update(batch)
        with tracer.span("reasoning.encoding.refresh_view_after_insert"):
            refresh_view_after_insert(self.graph, batch)
        self.graph.remove_all(batch)

    def trace_pass(self, tracer: Tracer) -> None:
        assert self.db is not None
        self.rows_out = self.json_bytes = self.conjuncts = 0
        for kind, _, text, _ in self.ops:
            with tracer.op(kind):
                with tracer.span("db.query"):
                    self.db.query(text)
                with tracer.span("sparql.parser.parse_query"):
                    query = parse_query(text, self.graph.namespaces)
                with tracer.span("reasoning.reformulation.reformulate"):
                    reformulation = reformulate(query, self.schema)
                with tracer.span("sparql.evaluator.evaluate_reformulation"):
                    results = evaluate_reformulation(
                        self.graph, reformulation, strategy=self.evaluation)
                document = layers.traced_json(tracer, results)
            self.conjuncts += reformulation.ucq_size
            self.rows_out += len(results)
            self.json_bytes += len(document)

    def layer_metrics(self, tracer: Tracer,
                      rec: Recorder) -> Dict[str, float]:
        values = layers.common_layer_metrics(tracer, self.dataset.triples)
        values.update(layers.answer_metrics(self.rows_out, self.json_bytes))
        values["reasoning.reformulation.reformulate_ms"] = layers.median_of(
            tracer, "reasoning.reformulation.reformulate", 1e3)
        values["reasoning.reformulation.conjuncts_total"] = self.conjuncts
        values["sparql.evaluator.eval_reformulation_ms"] = layers.median_of(
            tracer, "sparql.evaluator.evaluate_reformulation", 1e3)
        values["reasoning.encoding.view_build_s"] = layers.median_of(
            tracer, "reasoning.encoding.encoded_view")
        values["reasoning.encoding.refresh_ms"] = layers.median_of(
            tracer, "reasoning.encoding.refresh_view_after_insert", 1e3)
        # the database caches reformulations per query text, so its
        # steady-state call is parse + evaluate; reformulate is extra
        (values["db.unattributed_ms"],
         values["db.unattributed_share"]) = layers.unattributed(
            tracer, "db.query",
            ("sparql.parser.parse_query",
             "sparql.evaluator.evaluate_reformulation"))
        return values


# ----------------------------------------------------------------------
# update_stream
# ----------------------------------------------------------------------

class UpdateStream(Workload):
    """Seeded ``db.update(text)`` calls on a durable SATURATION database,
    single thread, with a probe query every 20 updates.

    Each pass is self-inverse: every inserted record is later deleted,
    every deleted record re-inserted, every new constraint retracted.  The
    closure must therefore be the base graph's again when the pass ends,
    which a fixed probe set checks against the oracle on any seed.
    """

    PROBE_EVERY = 20
    PROBES = ("point_dept", "Q5", "varprop", "Q8")
    FINAL_PROBES = ("Q1", "Q3", "Q7", "Q9", "chain3")

    def prepare(self) -> None:
        ctx = self.ctx
        self.dataset = datasets.build(ctx.scale)
        self.expected = Expected(ctx.scale)
        self.expected.check_graph(self.dataset)
        rng = ctx.rng
        depts = queries.department_ids(self.dataset.universities)
        inserts = ctx.pass_ops
        pairs: List[Tuple[Op, Op]] = []
        for k in range(inserts):
            pairs.append(queries.update_pair(
                "insert", queries.fresh_student_triples(k, rng.choice(depts))))
        # asserted records: deleting one leaves some of its consequences
        # derivable another way (an advisee is still a Person)
        students = rng.sample(
            queries.graduate_ids(self.dataset.universities), inserts // 2)
        for student in students:
            subject = datasets.individual(student)
            record = [t.n3().rstrip(" .") for t in
                      self.dataset.graph.triples(subject, None, None)]
            pairs.append(queries.update_pair("delete", record))
        schema = list(queries.SCHEMA_UPDATES)
        if ctx.quick:
            schema = schema[:2]
        for constraint in schema:
            pairs.append(queries.update_pair("insert", [constraint],
                                             schema=True))
        self.dataset.graph = None  # type: ignore[assignment]
        self.ops: List[Op] = []
        dept = rng.choice(depts)
        for index, op in enumerate(queries.paired_order(rng, pairs)):
            if index % self.PROBE_EVERY == self.PROBE_EVERY - 1:
                template = self.PROBES[(index // self.PROBE_EVERY)
                                       % len(self.PROBES)]
                qid = (template if template in queries.FIXED_TEMPLATES
                       else f"{template}:{dept}")
                self.ops.append(queries.query_op(qid))
            self.ops.append(op)
        self.db: Optional[RDFDatabase] = None
        self.setups = 0

    def setup(self) -> None:
        self.setups += 1
        self.directory = os.path.join(self.ctx.tmpdir,
                                      f"store-{self.setups}")
        self.db = open_database(self.dataset.text, Strategy.SATURATION,
                                self.directory)

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
            shutil.rmtree(self.directory, ignore_errors=True)

    def run_pass(self, rec: Recorder) -> Tuple[int, float]:
        db = self.db
        assert db is not None
        started = clock()
        for op in self.ops:
            if op.qid:
                document, seconds = timed_query(db, op.text)
                # mid-pass state depends on the seed's order: a probe
                # must answer, the final probes check what it answers
                rec.op(op.kind, seconds, len(document) > 0)
            else:
                op_started = clock()
                effect = db.update(op.text)
                rec.op(op.kind, clock() - op_started,
                       effect == update_effect(op))
        wall = clock() - started
        for qid in self.FINAL_PROBES:
            rec.check(self.expected.document_ok(
                qid, results_to_json(db.query(queries.query_text(qid)))))
        return len(self.ops), wall

    def diagnostics(self) -> Dict[str, float]:
        assert self.db is not None
        return {"client.disk_bytes_per_triple":
                directory_bytes(self.directory) / len(self.db)}

    def trace_setup(self, tracer: Tracer) -> None:
        explicit = layers.load_graph(tracer, self.dataset.text)
        saturated = layers.saturated_copy(tracer, explicit)
        self.shadow_dir = os.path.join(self.ctx.tmpdir, "traced-store")
        self.shadow = layers.ShadowStore(
            tracer, explicit, saturated, self.shadow_dir,
            int(FIXED_CONFIG["snapshot_every"]))  # type: ignore[call-overload]

    def trace_pass(self, tracer: Tracer) -> None:
        db, shadow = self.db, self.shadow
        assert db is not None
        self.rows_out = self.json_bytes = 0
        for kind, qid, text, _ in self.ops:
            with tracer.op(kind):
                if qid:
                    with tracer.span("db.query"):
                        db.query(text)
                    results = layers.traced_select(tracer, shadow.graph,
                                                   text)
                    self.rows_out += len(results)
                    self.json_bytes += len(layers.traced_json(tracer,
                                                              results))
                else:
                    with tracer.span("db.update"):
                        db.update(text)
                    shadow.update(text)

    def trace_teardown(self) -> None:
        self.shadow.close()
        shutil.rmtree(self.shadow_dir, ignore_errors=True)

    def layer_metrics(self, tracer: Tracer,
                      rec: Recorder) -> Dict[str, float]:
        shadow = self.shadow
        # two last measurements on the state the passes left behind: one
        # explicit compaction of the accumulated deltas, and a restart
        with tracer.span("rdf.columnar.compact"):
            shadow.graph.index.compact()  # type: ignore[union-attr]
        shadow.close()
        layers.timed_recover(tracer, self.shadow_dir)
        values = layers.common_layer_metrics(tracer, self.dataset.triples)
        values["rdf.columnar.compact_s"] = tracer.durations(
            "rdf.columnar.compact")[-1]
        values["reasoning.incremental.derived_per_update"] = (
            sum(shadow.derived) / len(shadow.derived))
        values["reasoning.incremental.rederived_per_delete"] = (
            sum(shadow.rederived) / len(shadow.rederived))
        values.update(layers.answer_metrics(self.rows_out, self.json_bytes))
        values["storage.wal.records"] = (tracer.count("storage.wal.append")
                                         / tracer.passes)
        values["storage.wal.bytes_per_user_byte"] = (
            shadow.wal_bytes / shadow.user_bytes)
        values["storage.snapshots"] = tracer.count("storage.snapshot")
        values["storage.stall_max_ms"] = max(
            tracer.durations("db.update")) * 1e3
        (values["db.unattributed_ms"],
         values["db.unattributed_share"]) = layers.unattributed(
            tracer, "db.update",
            ("sparql.update.parse_update", "rdf.graph.update",
             "reasoning.incremental.insert", "reasoning.incremental.delete",
             "reasoning.incremental.schema_insert",
             "reasoning.incremental.schema_delete",
             "storage.wal.append", "storage.snapshot"))
        return values


def _registry() -> Dict[str, Type[Workload]]:
    from .serving import ServeChurn, ServeHot, ShardChurn

    return {"load_saturate": LoadSaturate, "query_sat": QuerySat,
            "query_ref": QueryRef, "update_stream": UpdateStream,
            "serve_hot": ServeHot, "serve_churn": ServeChurn,
            "shard_churn": ShardChurn}


REGISTRY = _registry()
