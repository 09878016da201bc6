"""Differential suite: the ``"encoded"`` reformulation strategy.

The interval-encoded evaluator re-implements reformulated-query
answering from the atom level up (identifier range scans over a
remapped columnar view instead of a UCQ expansion), so the contract
is *exact* agreement with both the saturation reference and the other
reformulation strategies — same answer sets on every supported input:
all eight pattern shapes, random and LUBM workloads, both storage
backends, multiple-inheritance schemas, and update-then-query
sequences through :class:`RDFDatabase` and the serving layer.
"""

import pytest

from repro.db import RDFDatabase, Strategy, UnsupportedGraphError
from repro.rdf import Graph, Triple, TriplePattern as TP
from repro.rdf.namespaces import RDF, RDFS
from repro.rdf.terms import Variable as V
from repro.reasoning import reformulate, saturate
from repro.reasoning.rulesets import (RDFS_DEFAULT, RDFS_FULL, RDFS_PLUS,
                                      RHO_DF)
from repro.schema import Schema
from repro.server import ServingDatabase
from repro.sparql import BGPQuery, evaluate, evaluate_reformulation
from repro.sparql.evaluator import REFORMULATION_STRATEGIES
from repro.workloads import (RandomGraphConfig, WORKLOAD_QUERIES,
                             random_graph, random_query, workload_query)

from conftest import EX, random_rdfs_graph

STRATEGIES = pytest.mark.parametrize("strategy", REFORMULATION_STRATEGIES)
BACKENDS = pytest.mark.parametrize("backend", ["hash", "columnar"])


def assert_strategies_agree(graph: Graph, query: BGPQuery, context=""):
    """Every strategy, on both backends, must match the saturation."""
    expected = evaluate(saturate(graph).graph, query).to_set()
    reformulation = reformulate(query, Schema.from_graph(graph))
    columnar = graph.to_backend("columnar")
    for strategy in REFORMULATION_STRATEGIES:
        for side in (graph, columnar):
            got = evaluate_reformulation(side, reformulation,
                                         strategy=strategy).to_set()
            assert got == expected, (context, strategy, side.backend)


def diamond_graph() -> Graph:
    """Multiple inheritance: D and E under both B and C, plus the F
    wedge that makes C's interval fragment into two runs."""
    graph = Graph()
    graph.update([
        Triple(EX.B, RDFS.subClassOf, EX.A),
        Triple(EX.C, RDFS.subClassOf, EX.A),
        Triple(EX.D, RDFS.subClassOf, EX.B),
        Triple(EX.D, RDFS.subClassOf, EX.C),
        Triple(EX.E, RDFS.subClassOf, EX.B),
        Triple(EX.E, RDFS.subClassOf, EX.C),
        Triple(EX.F, RDFS.subClassOf, EX.B),
        Triple(EX.q, RDFS.subPropertyOf, EX.p),
        Triple(EX.p, RDFS.domain, EX.C),
        Triple(EX.q, RDFS.range, EX.E),
        Triple(EX.d1, RDF.type, EX.D),
        Triple(EX.e1, RDF.type, EX.E),
        Triple(EX.f1, RDF.type, EX.F),
        Triple(EX.b1, RDF.type, EX.B),
        Triple(EX.i1, EX.q, EX.i2),
        Triple(EX.i2, EX.p, EX.d1),
    ])
    return graph


# ----------------------------------------------------------------------
# pattern shapes
# ----------------------------------------------------------------------

class TestPatternShapes:
    def test_all_eight_shapes(self, paper_graph):
        """Single-atom queries over every bound/free mask must agree
        with saturation under every strategy and backend."""
        probes = [Triple(EX.Tom, RDF.type, EX.Cat),
                  Triple(EX.Anne, EX.hasFriend, EX.Marie),
                  Triple(EX.Tom, RDF.type, EX.Mammal)]  # inferred probe
        variables = (V("s"), V("p"), V("o"))
        for probe in probes:
            for mask in range(8):
                atom = TP(probe.s if mask & 4 else variables[0],
                          probe.p if mask & 2 else variables[1],
                          probe.o if mask & 1 else variables[2])
                assert_strategies_agree(paper_graph, BGPQuery([atom]),
                                        context=(probe, mask))

    def test_unknown_constants_are_empty(self, paper_graph):
        for atom in (TP(V("x"), RDF.type, EX.Unicorn),
                     TP(V("x"), EX.noSuchProperty, V("y")),
                     TP(EX.Nobody, RDF.type, EX.Cat)):
            assert_strategies_agree(paper_graph, BGPQuery([atom]),
                                    context=atom)

    def test_joins_through_inferred_types(self, paper_graph):
        query = BGPQuery([TP(V("x"), RDF.type, EX.Person),
                          TP(V("x"), EX.hasFriend, V("y"))])
        assert_strategies_agree(paper_graph, query)


# ----------------------------------------------------------------------
# random workloads
# ----------------------------------------------------------------------

class TestRandomWorkloads:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_graph_random_query(self, seed):
        config = RandomGraphConfig(seed=seed, allow_cycles=True)
        graph = random_graph(config)
        query = random_query(config, seed=seed * 13)
        assert_strategies_agree(graph, query, context=seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_rdfs_graph_type_probes(self, seed):
        graph = random_rdfs_graph(seed)
        for cls in sorted(Schema.from_graph(graph).classes(),
                          key=lambda t: t.sort_key())[:3]:
            assert_strategies_agree(
                graph, BGPQuery([TP(V("x"), RDF.type, cls)]),
                context=(seed, cls))


# ----------------------------------------------------------------------
# LUBM
# ----------------------------------------------------------------------

class TestLUBM:
    def test_all_workload_queries(self, lubm_small):
        expected_graph = saturate(lubm_small).graph
        schema = Schema.from_graph(lubm_small)
        columnar = lubm_small.to_backend("columnar")
        for qid in WORKLOAD_QUERIES:
            query = workload_query(qid)
            expected = evaluate(expected_graph, query).to_set()
            reformulation = reformulate(query, schema)
            for strategy in REFORMULATION_STRATEGIES:
                for side in (lubm_small, columnar):
                    got = evaluate_reformulation(
                        side, reformulation, strategy=strategy).to_set()
                    assert got == expected, (qid, strategy, side.backend)


# ----------------------------------------------------------------------
# multiple inheritance
# ----------------------------------------------------------------------

class TestMultipleInheritance:
    def test_diamond_type_queries(self):
        graph = diamond_graph()
        for cls in (EX.A, EX.B, EX.C, EX.D):
            assert_strategies_agree(
                graph, BGPQuery([TP(V("x"), RDF.type, cls)]), context=cls)

    def test_fragmented_interval_still_exact(self):
        # C's closure spans two identifier runs (the SC110 shape); the
        # encoded evaluator must still return exactly C's instances
        graph = diamond_graph()
        assert_strategies_agree(graph,
                                BGPQuery([TP(V("x"), RDF.type, EX.C)]))

    def test_subproperty_and_domain_range(self):
        graph = diamond_graph()
        for query in (BGPQuery([TP(V("x"), EX.p, V("y"))]),
                      BGPQuery([TP(V("x"), RDF.type, EX.C),
                                TP(V("y"), EX.p, V("x"))])):
            assert_strategies_agree(graph, query)


# ----------------------------------------------------------------------
# rule sets
# ----------------------------------------------------------------------

class TestRulesets:
    @STRATEGIES
    @pytest.mark.parametrize("ruleset", [RHO_DF, RDFS_DEFAULT],
                             ids=lambda r: r.name)
    def test_supported_rulesets(self, paper_graph, ruleset, strategy):
        db = RDFDatabase(paper_graph, strategy=Strategy.REFORMULATION,
                         ruleset=ruleset, reformulation_strategy=strategy)
        reference = RDFDatabase(paper_graph, strategy=Strategy.SATURATION,
                                ruleset=ruleset)
        query = BGPQuery([TP(V("x"), RDF.type, EX.Person)])
        assert db.query(query).to_set() == reference.query(query).to_set()

    @pytest.mark.parametrize("ruleset", [RDFS_FULL, RDFS_PLUS],
                             ids=lambda r: r.name)
    def test_unsupported_rulesets_refuse(self, paper_graph, ruleset):
        with pytest.raises(UnsupportedGraphError):
            RDFDatabase(paper_graph, strategy=Strategy.REFORMULATION,
                        ruleset=ruleset, reformulation_strategy="encoded")


# ----------------------------------------------------------------------
# update-then-query sequences through RDFDatabase
# ----------------------------------------------------------------------

class TestDatabaseSequences:
    QUERY = BGPQuery([TP(V("x"), RDF.type, EX.Person)])

    def _pair(self, graph, backend="hash"):
        db = RDFDatabase(graph, strategy=Strategy.REFORMULATION,
                         reformulation_strategy="encoded", backend=backend)
        reference = RDFDatabase(graph, strategy=Strategy.SATURATION,
                                backend=backend)
        return db, reference

    def _check(self, db, reference, query=None):
        query = query or self.QUERY
        assert db.query(query).to_set() == reference.query(query).to_set()

    @BACKENDS
    def test_instance_insert_then_query(self, paper_graph, backend):
        db, reference = self._pair(paper_graph, backend)
        self._check(db, reference)  # warm the cached encoded view
        batch = [Triple(EX.Zoe, RDF.type, EX.Person),
                 Triple(EX.Zoe, EX.hasFriend, EX.Anne)]
        db.insert(batch)
        reference.insert(batch)
        self._check(db, reference)

    @BACKENDS
    def test_schema_insert_then_query(self, paper_graph, backend):
        db, reference = self._pair(paper_graph, backend)
        self._check(db, reference)
        batch = [Triple(EX.Wizard, RDFS.subClassOf, EX.Person),
                 Triple(EX.Merlin, RDF.type, EX.Wizard)]
        db.insert(batch)
        reference.insert(batch)
        self._check(db, reference)
        self._check(db, reference,
                    BGPQuery([TP(V("x"), RDF.type, EX.Wizard)]))

    @BACKENDS
    def test_delete_then_query(self, paper_graph, backend):
        db, reference = self._pair(paper_graph, backend)
        self._check(db, reference)
        victim = Triple(EX.Anne, EX.hasFriend, EX.Marie)
        db.delete(victim)
        reference.delete(victim)
        self._check(db, reference)

    def test_interleaved_sequence(self, paper_graph):
        db, reference = self._pair(paper_graph)
        steps = [
            ("insert", [Triple(EX.i1, RDF.type, EX.Cat)]),
            ("insert", [Triple(EX.Feline, RDFS.subClassOf, EX.Mammal),
                        Triple(EX.i2, RDF.type, EX.Feline)]),
            ("delete", [Triple(EX.i1, RDF.type, EX.Cat)]),
            ("insert", [Triple(EX.i3, EX.hasFriend, EX.i2)]),
        ]
        probe = BGPQuery([TP(V("x"), RDF.type, EX.Mammal)])
        for op, batch in steps:
            getattr(db, op)(batch)
            getattr(reference, op)(batch)
            self._check(db, reference, probe)
            self._check(db, reference)

    @STRATEGIES
    def test_per_query_override(self, paper_graph, strategy):
        db = RDFDatabase(paper_graph, strategy=Strategy.REFORMULATION)
        reference = RDFDatabase(paper_graph, strategy=Strategy.SATURATION)
        got = db.query(self.QUERY, reformulation_strategy=strategy)
        assert got.to_set() == reference.query(self.QUERY).to_set()


# ----------------------------------------------------------------------
# serving layer
# ----------------------------------------------------------------------

class TestServingLayer:
    TEXT = ("SELECT ?x WHERE { ?x a <http://example.org/Person> }")

    def _service(self, graph) -> ServingDatabase:
        db = RDFDatabase(graph, strategy=Strategy.REFORMULATION,
                         reformulation_strategy="encoded")
        return ServingDatabase(db)

    def test_strategies_never_alias_in_the_cache(self, paper_graph):
        service = self._service(paper_graph)
        first = service.query(self.TEXT, reformulation_strategy="encoded")
        assert not first.cached
        again = service.query(self.TEXT, reformulation_strategy="encoded")
        assert again.cached
        # same text, different strategy: a distinct cache entry
        other = service.query(self.TEXT, reformulation_strategy="factorized")
        assert not other.cached
        assert other.results.to_set() == first.results.to_set()

    def test_default_strategy_is_the_database_default(self, paper_graph):
        service = self._service(paper_graph)
        service.query(self.TEXT)
        explicit = service.query(self.TEXT, reformulation_strategy="encoded")
        assert explicit.cached  # implicit call already populated the key

    def test_answers_match_saturation_through_the_server(self, paper_graph):
        service = self._service(paper_graph)
        reference = RDFDatabase(paper_graph, strategy=Strategy.SATURATION)
        expected = reference.query(self.TEXT).to_set()
        for strategy in REFORMULATION_STRATEGIES:
            outcome = service.query(self.TEXT,
                                    reformulation_strategy=strategy)
            assert outcome.results.to_set() == expected, strategy
