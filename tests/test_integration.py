"""End-to-end integration tests: the full pipeline on the university
workload, cross-strategy agreement, and executable versions of the
paper's Figures 1 and 2."""

import pytest

from repro.db import RDFDatabase, Strategy
from repro.rdf import Graph, Triple, graph_from_turtle
from repro.rdf.namespaces import RDF, RDFS
from repro.reasoning import (FIGURE2_RULES, reformulate, saturate)
from repro.schema import Schema
from repro.sparql import evaluate, evaluate_reformulation, parse_query
from repro.workloads import WORKLOAD_QUERIES, query_ids, workload_query

from conftest import EX


class TestFigure1Conformance:
    """Figure 1: RDF statements and the OWA interpretation of the four
    RDFS constraints, as executable checks."""

    def test_class_assertion(self):
        g = graph_from_turtle("""
        @prefix ex: <http://example.org/> .
        ex:Tom a ex:Cat .
        """)
        # relational notation: Cat(Tom)
        assert (EX.Tom,) in evaluate(
            g, parse_query("SELECT ?s WHERE { ?s a <http://example.org/Cat> }")
        ).to_set()

    def test_property_assertion(self):
        g = graph_from_turtle("""
        @prefix ex: <http://example.org/> .
        ex:Anne ex:hasFriend ex:Marie .
        """)
        # relational notation: hasFriend(Anne, Marie)
        assert Triple(EX.Anne, EX.hasFriend, EX.Marie) in g

    def test_subclass_owa_propagation(self):
        """s ⊆ o: any tuple of s is also in o."""
        g = Graph()
        g.add(Triple(EX.Cat, RDFS.subClassOf, EX.Mammal))
        g.add(Triple(EX.Tom, RDF.type, EX.Cat))
        assert Triple(EX.Tom, RDF.type, EX.Mammal) in saturate(g).graph

    def test_subproperty_owa_propagation(self):
        g = Graph()
        g.add(Triple(EX.bestFriend, RDFS.subPropertyOf, EX.hasFriend))
        g.add(Triple(EX.a, EX.bestFriend, EX.b))
        assert Triple(EX.a, EX.hasFriend, EX.b) in saturate(g).graph

    def test_domain_owa_propagation(self):
        """Π_domain(s) ⊆ o — the paper's hasFriend/Person example."""
        g = Graph()
        g.add(Triple(EX.hasFriend, RDFS.domain, EX.Person))
        g.add(Triple(EX.Anne, EX.hasFriend, EX.Marie))
        assert Triple(EX.Anne, RDF.type, EX.Person) in saturate(g).graph

    def test_range_owa_propagation(self):
        g = Graph()
        g.add(Triple(EX.hasFriend, RDFS.range, EX.Person))
        g.add(Triple(EX.Anne, EX.hasFriend, EX.Marie))
        assert Triple(EX.Marie, RDF.type, EX.Person) in saturate(g).graph

    def test_constraints_never_reject(self):
        """OWA: constraints only add tuples; a 'violating' triple simply
        enriches the graph instead of failing."""
        g = Graph()
        g.add(Triple(EX.p, RDFS.domain, EX.OnlyClass))
        g.add(Triple(EX.weird, EX.p, EX.thing))  # 'weird' untyped
        result = saturate(g)
        assert Triple(EX.weird, RDF.type, EX.OnlyClass) in result.graph


class TestFigure2Conformance:
    """Figure 2's four immediate entailment rules, named as in the paper."""

    def test_rule_names_match_figure(self):
        assert [r.name for r in FIGURE2_RULES] == \
            ["rdfs9", "rdfs7", "rdfs2", "rdfs3"]

    @pytest.mark.parametrize("rule_name, schema_triple, instance_triple, expected", [
        ("rdfs9", Triple(EX.c1, RDFS.subClassOf, EX.c2),
         Triple(EX.s, RDF.type, EX.c1), Triple(EX.s, RDF.type, EX.c2)),
        ("rdfs7", Triple(EX.p1, RDFS.subPropertyOf, EX.p2),
         Triple(EX.s, EX.p1, EX.o), Triple(EX.s, EX.p2, EX.o)),
        ("rdfs2", Triple(EX.p, RDFS.domain, EX.c),
         Triple(EX.s, EX.p, EX.o), Triple(EX.s, RDF.type, EX.c)),
        ("rdfs3", Triple(EX.p, RDFS.range, EX.c),
         Triple(EX.s, EX.p, EX.o), Triple(EX.o, RDF.type, EX.c)),
    ])
    def test_immediate_entailment(self, rule_name, schema_triple,
                                  instance_triple, expected):
        """schema ∧ instance ⊢_rule conclusion — exactly Figure 2's rows."""
        rule = next(r for r in FIGURE2_RULES if r.name == rule_name)
        g = Graph([schema_triple, instance_triple])
        conclusions = {d.conclusion for d in rule.fire(g)}
        assert expected in conclusions


class TestMotivationScenario:
    """Section I's full story: compile-the-knowledge (saturation) vs
    reformulation on the cat/mammal database."""

    def test_saturation_route(self):
        db = RDFDatabase(strategy=Strategy.SATURATION)
        db.load_turtle("""
        @prefix ex: <http://example.org/> .
        ex:Tom a ex:Cat .
        ex:Cat rdfs:subClassOf ex:Mammal .
        """)
        mammals = db.query(
            "SELECT ?x WHERE { ?x a <http://example.org/Mammal> }")
        assert mammals.to_set() == {(EX.Tom,)}

    def test_reformulation_route(self):
        """'find all mammals and all cats as particular cases' — Tom is
        returned though never explicitly stated to be a mammal."""
        db = RDFDatabase(strategy=Strategy.REFORMULATION)
        db.load_turtle("""
        @prefix ex: <http://example.org/> .
        ex:Tom a ex:Cat .
        ex:Cat rdfs:subClassOf ex:Mammal .
        """)
        mammals = db.query(
            "SELECT ?x WHERE { ?x a <http://example.org/Mammal> }")
        assert mammals.to_set() == {(EX.Tom,)}

    def test_reformulated_query_mentions_cat(self):
        g = graph_from_turtle("""
        @prefix ex: <http://example.org/> .
        ex:Cat rdfs:subClassOf ex:Mammal .
        """)
        schema = Schema.from_graph(g)
        query = parse_query(
            "SELECT ?x WHERE { ?x a <http://example.org/Mammal> }")
        conjuncts = reformulate(query, schema).to_ucq()
        rendered = " UNION ".join(c.to_sparql() for c in conjuncts)
        assert "Cat" in rendered and "Mammal" in rendered


class TestFullPipelineOnLUBM:
    @pytest.mark.parametrize("qid", list(WORKLOAD_QUERIES))
    def test_all_strategies_agree(self, qid, lubm_small):
        query = workload_query(qid)
        reference = None
        for strategy in (Strategy.SATURATION, Strategy.REFORMULATION):
            db = RDFDatabase(lubm_small, strategy=strategy)
            answers = db.query(query).to_set()
            if reference is None:
                reference = answers
            assert answers == reference, (qid, strategy)

    def test_none_strategy_is_incomplete_on_lubm(self, lubm_small):
        """The paper's point about prototypes that ignore entailment."""
        q1 = workload_query("Q1")
        plain = RDFDatabase(lubm_small, strategy=Strategy.NONE).query(q1)
        reasoned = RDFDatabase(lubm_small,
                               strategy=Strategy.SATURATION).query(q1)
        assert len(plain.to_set()) < len(reasoned.to_set())

    def test_multi_endpoint_integration_scenario(self):
        """Section I: integrating data from independently authored
        endpoints, each with its own schema."""
        endpoint_a = graph_from_turtle("""
        @prefix ex: <http://example.org/> .
        ex:Researcher rdfs:subClassOf ex:Person .
        _:r1 a ex:Researcher ; ex:affiliatedWith ex:LabX .
        """)
        endpoint_b = graph_from_turtle("""
        @prefix ex: <http://example.org/> .
        ex:affiliatedWith rdfs:domain ex:Person .
        ex:Bob ex:affiliatedWith ex:LabY .
        """)
        merged = Graph()
        merged.update(endpoint_a.skolemize())
        merged.update(endpoint_b.skolemize())
        db = RDFDatabase(merged, strategy=Strategy.REFORMULATION)
        people = db.query(
            "SELECT ?x WHERE { ?x a <http://example.org/Person> }")
        assert len(people.to_set()) == 2  # the skolemized _:r1 and Bob

    def test_saturated_graph_size_consistent_across_routes(self, lubm_small):
        native = saturate(lubm_small).graph
        db = RDFDatabase(lubm_small, strategy=Strategy.SATURATION)
        assert db.stats()["saturated_triples"] == len(native)


class TestScaleSanity:
    def test_medium_lubm_full_pipeline(self, lubm_medium):
        """~2k triples through saturation + reformulation, all queries."""
        saturated = saturate(lubm_medium).graph
        schema = Schema.from_graph(lubm_medium)
        closed = lubm_medium.copy()
        closed.update(schema.closure_triples())
        for qid in query_ids():
            query = workload_query(qid)
            expected = evaluate(saturated, query).to_set()
            got = evaluate_reformulation(
                closed, reformulate(query, schema)).to_set()
            assert got == expected, qid
