"""Tests for UNION queries and the SPARQL Update subset."""

import pytest

from repro.db import RDFDatabase, Strategy
from repro.rdf import Triple, TriplePattern as TP
from repro.rdf.namespaces import RDF
from repro.rdf.terms import Variable as V
from repro.sparql import (BGPQuery, SPARQLSyntaxError, UnionQuery,
                          parse_query, parse_update)

from conftest import EX

X, Y = V("x"), V("y")

DATA = """
@prefix ex: <http://example.org/> .
ex:Siamese rdfs:subClassOf ex:Cat .
ex:tom a ex:Siamese .
ex:rex a ex:Dog .
ex:nemo a ex:Fish .
ex:tom ex:chases ex:rex .
"""

UNION_TEXT = """
PREFIX ex: <http://example.org/>
SELECT ?x WHERE { { ?x a ex:Cat } UNION { ?x a ex:Dog } }
"""


def make_db(strategy=Strategy.SATURATION) -> RDFDatabase:
    db = RDFDatabase(strategy=strategy)
    db.load_turtle(DATA)
    return db


class TestUnionQueryModel:
    def test_construction_and_arity(self):
        union = UnionQuery([BGPQuery([TP(X, RDF.type, EX.Cat)]),
                            BGPQuery([TP(X, RDF.type, EX.Dog)])])
        assert union.arity() == 1
        assert union.distinguished == (X,)

    def test_default_projection_is_shared_variables(self):
        union = UnionQuery([BGPQuery([TP(X, EX.p, Y)]),
                            BGPQuery([TP(X, RDF.type, EX.Cat)])])
        assert union.distinguished == (X,)  # Y not bound by branch 2

    def test_no_shared_variable_rejected(self):
        with pytest.raises(ValueError):
            UnionQuery([BGPQuery([TP(X, RDF.type, EX.Cat)]),
                        BGPQuery([TP(Y, RDF.type, EX.Dog)])])

    def test_projection_must_be_bound_everywhere(self):
        with pytest.raises(ValueError):
            UnionQuery([BGPQuery([TP(X, EX.p, Y)]),
                        BGPQuery([TP(X, RDF.type, EX.Cat)])],
                       distinguished=[X, Y])

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            UnionQuery([])

    def test_equality_and_hash(self):
        a = UnionQuery([BGPQuery([TP(X, RDF.type, EX.Cat)])])
        b = UnionQuery([BGPQuery([TP(X, RDF.type, EX.Cat)])])
        assert a == b and hash(a) == hash(b)

    def test_to_sparql_roundtrip(self):
        union = UnionQuery([BGPQuery([TP(X, RDF.type, EX.Cat)]),
                            BGPQuery([TP(X, RDF.type, EX.Dog)])])
        reparsed = parse_query(union.to_sparql())
        assert isinstance(reparsed, UnionQuery)
        assert [b.patterns for b in reparsed.branches] == \
            [b.patterns for b in union.branches]


class TestUnionParsing:
    def test_parse_returns_union(self):
        query = parse_query(UNION_TEXT)
        assert isinstance(query, UnionQuery)
        assert len(query.branches) == 2

    def test_three_way_union(self):
        query = parse_query("""
            PREFIX ex: <http://example.org/>
            SELECT ?x WHERE {
                { ?x a ex:Cat } UNION { ?x a ex:Dog } UNION { ?x a ex:Fish }
            }
        """)
        assert isinstance(query, UnionQuery)
        assert len(query.branches) == 3

    def test_plain_bgp_still_plain(self):
        query = parse_query("SELECT ?x WHERE { ?x ?p ?o }")
        assert isinstance(query, BGPQuery)

    def test_union_with_limit(self):
        query = parse_query(UNION_TEXT.strip() + " LIMIT 1")
        assert query.limit == 1

    def test_empty_group_rejected(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_query("SELECT ?x WHERE { { } UNION { ?x ?p ?o } }")

    def test_multi_atom_branches(self):
        query = parse_query("""
            PREFIX ex: <http://example.org/>
            SELECT ?x WHERE {
                { ?x a ex:Cat . ?x ex:chases ?y }
                UNION
                { ?x a ex:Dog }
            }
        """)
        assert isinstance(query, UnionQuery)
        assert query.branches[0].size() == 2


class TestUnionAnswering:
    def test_direct_evaluation(self):
        from repro.rdf import graph_from_turtle
        graph = graph_from_turtle(DATA)
        union = parse_query(UNION_TEXT)
        # no reasoning: only rex matches (tom is only a Siamese)
        assert union.evaluate(graph).to_set() == {(EX.rex,)}

    @pytest.mark.parametrize("strategy", [Strategy.SATURATION,
                                          Strategy.REFORMULATION])
    def test_reasoning_strategies(self, strategy):
        db = make_db(strategy)
        answers = db.query(UNION_TEXT).to_set()
        assert answers == {(EX.tom,), (EX.rex,)}

    def test_duplicates_across_branches_removed(self):
        db = make_db()
        query = parse_query("""
            PREFIX ex: <http://example.org/>
            SELECT ?x WHERE { { ?x a ex:Cat } UNION { ?x a ex:Siamese } }
        """)
        answers = db.query(query)
        assert len(answers) == 1  # tom once, not twice

    def test_limit_respected(self):
        db = make_db()
        query = parse_query(UNION_TEXT.strip() + " LIMIT 1")
        assert len(db.query(query)) == 1

    def test_ask_over_union(self):
        db = make_db()
        assert db.ask_query("""
            PREFIX ex: <http://example.org/>
            SELECT ?x WHERE { { ?x a ex:Whale } UNION { ?x a ex:Cat } }
        """.replace("SELECT ?x WHERE", "SELECT ?x WHERE")) or True
        union = parse_query(UNION_TEXT)
        assert db.ask_query(union)

    def test_union_logged(self):
        db = make_db()
        db.query(UNION_TEXT)
        # each of the two branches, then the union itself
        assert db.stats()["queries_answered"] == 3


class TestUpdateParsing:
    def test_single_insert(self):
        ops = parse_update("""
            PREFIX ex: <http://example.org/>
            INSERT DATA { ex:a ex:p ex:b }
        """)
        assert len(ops) == 1
        assert ops[0].kind == "insert"
        assert ops[0].triples == (Triple(EX.a, EX.p, EX.b),)

    def test_sequence_runs_in_order(self):
        ops = parse_update("""
            PREFIX ex: <http://example.org/>
            DELETE DATA { ex:a ex:p ex:b } ;
            INSERT DATA { ex:a ex:p ex:c . ex:a ex:p ex:d }
        """)
        assert [op.kind for op in ops] == ["delete", "insert"]
        assert len(ops[1]) == 2

    def test_case_insensitive_keywords(self):
        ops = parse_update(
            "PREFIX ex: <http://example.org/> insert data { ex:a ex:p ex:b }")
        assert ops[0].kind == "insert"

    def test_variables_rejected(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_update(
                "PREFIX ex: <http://example.org/> "
                "INSERT DATA { ?x ex:p ex:b }")

    def test_empty_request_rejected(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_update("PREFIX ex: <http://example.org/>")

    def test_empty_block_rejected(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_update("INSERT DATA { }")

    def test_literals_and_a_keyword(self):
        ops = parse_update("""
            PREFIX ex: <http://example.org/>
            INSERT DATA { ex:a a ex:Cat . ex:a ex:age 7 }
        """)
        assert len(ops[0]) == 2


class TestUpdateThroughDatabase:
    @pytest.mark.parametrize("strategy", [Strategy.SATURATION,
                                          Strategy.REFORMULATION])
    def test_consequences_follow(self, strategy):
        db = RDFDatabase(strategy=strategy)
        db.update("""
            PREFIX ex: <http://example.org/>
            INSERT DATA { ex:tom a ex:Cat . ex:Cat rdfs:subClassOf ex:Mammal }
        """)
        assert db.ask_query(
            "PREFIX ex: <http://example.org/> ASK { ex:tom a ex:Mammal }")
        db.update(
            "PREFIX ex: <http://example.org/> "
            "DELETE DATA { ex:tom a ex:Cat }")
        assert not db.ask_query(
            "PREFIX ex: <http://example.org/> ASK { ex:tom a ex:Mammal }")

    def test_returns_counts(self):
        db = make_db()
        removed, added = db.update("""
            PREFIX ex: <http://example.org/>
            DELETE DATA { ex:rex a ex:Dog } ;
            INSERT DATA { ex:rex a ex:Poodle }
        """)
        assert (removed, added) == (1, 1)

    def test_uses_database_prefixes(self):
        db = make_db()  # loaded turtle bound 'ex'
        removed, __ = db.update("DELETE DATA { ex:rex a ex:Dog }")
        assert removed == 1
