"""Reformulation on the asserted graph alone.

Under ``Strategy.REFORMULATION`` the database keeps one graph, the
user's assertions, and answers ``rdfs:subClassOf``/``rdfs:subPropertyOf``
atoms from the :class:`~repro.schema.Schema` closure while rewriting.
These tests pin that down: answers equal saturation's on schema-atom
queries under interleaved instance and schema updates, an instance
update leaves the schema and the cached rewritings alone (and copies no
graph), ``ask`` never saturates, the encoded view stays warm across
instance deletes, and the maintained saturation is compacted.
"""

import pytest

from repro.db import RDFDatabase, Strategy
from repro.obs import measurement_window
from repro.rdf import Graph, Triple
from repro.rdf.namespaces import RDF, RDFS
from repro.reasoning import DRedReasoner, reformulate
from repro.reasoning.encoding import ENCODING_VIEW_KEY
from repro.reasoning.incremental import CountingReasoner
from repro.schema import Schema
from repro.sparql import parse_query
from repro.sparql.evaluator import REFORMULATION_STRATEGIES
from repro.staticcheck import estimate_ucq_size

from conftest import EX

TURTLE = """
@prefix ex: <http://example.org/> .
ex:Cat rdfs:subClassOf ex:Mammal .
ex:Mammal rdfs:subClassOf ex:Animal .
ex:Animal rdfs:subClassOf ex:Thing .
ex:hasKitten rdfs:subPropertyOf ex:hasChild .
ex:hasChild rdfs:subPropertyOf ex:relatedTo .
ex:hasChild rdfs:domain ex:Animal .
ex:Tom a ex:Cat ; ex:hasKitten ex:Kit .
ex:Rex a ex:Mammal .
"""

PREFIX = "PREFIX ex: <http://example.org/> "

#: Queries whose atoms range over the two transitively closed schema
#: properties, alone and joined with instance atoms.
SCHEMA_ATOM_QUERIES = [
    # constant subject / constant object / both variable
    "SELECT ?c WHERE { ex:Cat rdfs:subClassOf ?c }",
    "SELECT ?c WHERE { ?c rdfs:subClassOf ex:Thing }",
    "SELECT ?a ?b WHERE { ?a rdfs:subClassOf ?b }",
    "SELECT ?p WHERE { ex:hasKitten rdfs:subPropertyOf ?p }",
    "SELECT ?p ?q WHERE { ?p rdfs:subPropertyOf ?q }",
    # a transitive-only edge, ground: the schema answers it alone
    "SELECT * WHERE { ex:Cat rdfs:subClassOf ex:Thing }",
    "SELECT * WHERE { ex:Thing rdfs:subClassOf ex:Cat }",
    # only schema atoms: no pattern is left for the graph
    "SELECT ?a ?c WHERE { ?a rdfs:subClassOf ?b . ?b rdfs:subClassOf ?c }",
    "SELECT ?b WHERE { ex:Cat rdfs:subClassOf ?b . "
    "ex:hasKitten rdfs:subPropertyOf ?p }",
    # a cycle probe: reflexive edges exist only under cycles
    "SELECT ?c WHERE { ?c rdfs:subClassOf ?c }",
    # mixed schema/instance joins
    "SELECT ?x ?c WHERE { ?x a ?c . ?c rdfs:subClassOf ex:Animal }",
    "SELECT ?x ?p WHERE { ?x ?p ?y . ?p rdfs:subPropertyOf ex:relatedTo }",
    "SELECT ?x ?c WHERE { ?x a ex:Cat . ex:Cat rdfs:subClassOf ?c }",
    "SELECT ?s ?o WHERE { ?s ?p ?o . ?s rdfs:subClassOf ?o }",
    # variable predicate: explicit triples plus every entailed one
    "SELECT ?x ?p ?o WHERE { ?x ?p ?o }",
    "SELECT ?p ?o WHERE { ex:Cat ?p ?o }",
]

#: Interleaved instance and schema inserts and deletes; the queries are
#: checked after every step.
UPDATES = [
    ("insert", [Triple(EX.Kit, RDF.type, EX.Cat)]),
    ("insert", [Triple(EX.Thing, RDFS.subClassOf, EX.Entity)]),
    ("delete", [Triple(EX.Tom, RDF.type, EX.Cat)]),
    ("insert", [Triple(EX.relatedTo, RDFS.subPropertyOf, EX.knows),
                Triple(EX.Ann, EX.hasChild, EX.Bob)]),
    ("delete", [Triple(EX.Mammal, RDFS.subClassOf, EX.Animal)]),
    ("insert", [Triple(EX.Entity, RDFS.subClassOf, EX.Cat)]),   # a cycle
    ("delete", [Triple(EX.Ann, EX.hasChild, EX.Bob)]),
    ("delete", [Triple(EX.Entity, RDFS.subClassOf, EX.Cat),
                Triple(EX.hasKitten, RDFS.subPropertyOf, EX.hasChild)]),
    ("insert", [Triple(EX.Tom, RDF.type, EX.Cat)]),
]


def make_db(strategy, backend="hash", evaluation="ucq"):
    db = RDFDatabase(strategy=strategy, backend=backend,
                     reformulation_strategy=evaluation)
    db.load_turtle(TURTLE)
    return db


def apply(db, op, batch):
    if op == "insert":
        db.insert(batch)
    else:
        db.delete(batch)


def parsed(text):
    return parse_query(PREFIX + text)


def schema():
    return Schema.from_graph(make_db(Strategy.NONE).graph)


class TestSchemaAtomDifferential:
    @pytest.mark.parametrize("evaluation", REFORMULATION_STRATEGIES)
    @pytest.mark.parametrize("backend", ["hash", "columnar"])
    def test_matches_saturation_under_interleaved_updates(self, backend,
                                                          evaluation):
        reference = make_db(Strategy.SATURATION, backend)
        db = make_db(Strategy.REFORMULATION, backend, evaluation)
        queries = [parsed(text) for text in SCHEMA_ATOM_QUERIES]
        for step, (op, batch) in enumerate([(None, None)] + UPDATES):
            if op is not None:
                apply(reference, op, batch)
                apply(db, op, batch)
            for query in queries:
                assert db.query(query).to_set() == \
                    reference.query(query).to_set(), (step, query)
        assert db.stats()["explicit_triples"] == len(reference.graph)

    def test_evaluates_against_the_explicit_graph(self):
        """The facade answers from the asserted graph, not a copy."""
        db = make_db(Strategy.REFORMULATION, "columnar", "encoded")
        db.query(PREFIX + "SELECT ?x WHERE { ?x a ex:Animal }")
        view = db.graph.peek_derived(ENCODING_VIEW_KEY)
        assert view is not None and view.source is db.graph

    def test_schema_only_query_has_no_remaining_pattern(self):
        query = parsed("SELECT ?a ?c WHERE { ?a rdfs:subClassOf ?b . "
                       "?b rdfs:subClassOf ?c }")
        reformulation = reformulate(query, schema())
        assert reformulation.variants
        assert all(not variant.query.patterns
                   for variant in reformulation.variants)

    def test_refuted_query_has_no_variant(self):
        query = parsed("SELECT * WHERE { ex:Thing rdfs:subClassOf ex:Cat }")
        assert reformulate(query, schema()).variants == []


class TestInstanceUpdatesAreFree:
    def test_delete_keeps_schema_and_rewritings(self, monkeypatch):
        db = make_db(Strategy.REFORMULATION, "columnar")
        for text in SCHEMA_ATOM_QUERIES:
            db.query(PREFIX + text)
        before = db.stats()
        kept = db._schema

        def no_copy(self, *args, **kwargs):
            raise AssertionError("an instance update copied a graph")

        monkeypatch.setattr(Graph, "copy", no_copy)
        db.delete(Triple(EX.Tom, EX.hasKitten, EX.Kit))
        db.insert(Triple(EX.Tom, EX.hasKitten, EX.Kit))
        db.delete([Triple(EX.Rex, RDF.type, EX.Mammal)])
        after = db.stats()
        assert after["schema_generation"] == before["schema_generation"]
        assert after["cached_reformulations"] == \
            before["cached_reformulations"] > 0
        assert db._schema is kept

    def test_schema_batch_rebuilds(self):
        db = make_db(Strategy.REFORMULATION)
        db.query(PREFIX + "SELECT ?x WHERE { ?x a ex:Animal }")
        generation = db.stats()["schema_generation"]
        db.delete(Triple(EX.Cat, RDFS.subClassOf, EX.Mammal))
        stats = db.stats()
        assert stats["schema_generation"] == generation + 1
        assert stats["cached_reformulations"] == 0


class TestAsk:
    CASES = [
        (Triple(EX.Tom, RDF.type, EX.Cat), True),            # explicit
        (Triple(EX.Tom, RDF.type, EX.Animal), True),         # rdfs9
        (Triple(EX.Cat, RDFS.subClassOf, EX.Thing), True),   # transitive only
        (Triple(EX.Rex, RDF.type, EX.Cat), False),           # not entailed
    ]

    @pytest.mark.parametrize("backend", ["hash", "columnar"])
    def test_ask_matches_saturation_without_saturating(self, backend,
                                                       monkeypatch):
        reference = make_db(Strategy.SATURATION, backend)
        db = make_db(Strategy.REFORMULATION, backend)

        def forbidden(*args, **kwargs):
            raise AssertionError("ask() saturated the graph")

        from repro.db import database
        from repro.reasoning import saturation
        monkeypatch.setattr(saturation, "saturate", forbidden)
        monkeypatch.setattr(database, "saturate", forbidden, raising=False)
        for triple, entailed in self.CASES:
            assert reference.ask(triple) is entailed, triple
            assert db.ask(triple) is entailed, triple


class TestEncodedViewAcrossDeletes:
    def test_delete_keeps_the_view_warm(self):
        db = make_db(Strategy.REFORMULATION, "columnar", "encoded")
        query = PREFIX + "SELECT ?x WHERE { ?x a ex:Animal }"
        db.query(query)
        with measurement_window() as (registry, __):
            db.delete(Triple(EX.Rex, RDF.type, EX.Mammal))
            db.insert(Triple(EX.Kit, RDF.type, EX.Cat))
            got = db.query(query).to_set()
            assert registry.counter("encoding.builds").value == 0
            assert registry.counter("encoding.incremental_deletes").value == 1
        assert got == make_db(Strategy.SATURATION).query(
            query).to_set() - {(EX.Rex,)} | {(EX.Kit,)}

    def test_schema_batch_between_refreshes_rebuilds(self):
        """A view that missed a schema batch is stale: the next instance
        update must not re-publish it."""
        db = make_db(Strategy.REFORMULATION, "columnar", "encoded")
        reference = make_db(Strategy.SATURATION, "columnar")
        query = PREFIX + "SELECT ?p ?d WHERE { ?p rdfs:domain ?d }"
        db.query(query)
        for op, batch in (
                ("insert", [Triple(EX.hasPet, RDFS.domain, EX.Animal)]),
                ("delete", [Triple(EX.Rex, RDF.type, EX.Mammal)])):
            apply(db, op, batch)
            apply(reference, op, batch)
        with measurement_window() as (registry, __):
            assert db.query(query).to_set() == reference.query(query).to_set()
            assert registry.counter("encoding.builds").value == 1


class TestUcqSizeEstimate:
    @pytest.mark.parametrize("text", SCHEMA_ATOM_QUERIES)
    def test_estimate_exact_on_schema_atom_queries(self, text):
        query, rdfs = parsed(text), schema()
        assert estimate_ucq_size(query, rdfs) == \
            reformulate(query, rdfs).ucq_size


class TestSaturationIsCompacted:
    @pytest.mark.parametrize("reasoner", [DRedReasoner, CountingReasoner])
    def test_initial_saturation_leaves_no_delta(self, reasoner):
        db = make_db(Strategy.NONE, "columnar")
        maintained = reasoner(db.graph)
        assert len(maintained.graph) > len(db.graph)
        for order in maintained.graph.index.run_stats().values():
            assert order["delta"] == 0 and order["dead"] == 0
