"""Unit tests for the Graph container."""

import pytest

from repro.rdf import Graph, Triple, TriplePattern
from repro.rdf.namespaces import RDF
from repro.rdf.terms import BlankNode, Literal, Variable

from conftest import EX

X, Y = Variable("x"), Variable("y")


@pytest.fixture
def small_graph():
    g = Graph()
    g.add(Triple(EX.a, EX.p, EX.b))
    g.add(Triple(EX.a, EX.p, EX.c))
    g.add(Triple(EX.b, EX.q, EX.c))
    g.add(Triple(EX.a, RDF.type, EX.T))
    return g


class TestMutation:
    def test_add_returns_true_when_new(self):
        g = Graph()
        assert g.add(Triple(EX.a, EX.p, EX.b))
        assert not g.add(Triple(EX.a, EX.p, EX.b))
        assert len(g) == 1

    def test_add_rejects_non_triple(self):
        with pytest.raises(TypeError):
            Graph().add("not a triple")

    def test_add_spo_convenience(self):
        g = Graph()
        assert g.add_spo(EX.a, EX.p, EX.b)
        assert Triple(EX.a, EX.p, EX.b) in g

    def test_update_counts_new_only(self):
        g = Graph()
        batch = [Triple(EX.a, EX.p, EX.b), Triple(EX.a, EX.p, EX.b),
                 Triple(EX.a, EX.p, EX.c)]
        assert g.update(batch) == 2

    def test_remove(self, small_graph):
        assert small_graph.remove(Triple(EX.a, EX.p, EX.b))
        assert Triple(EX.a, EX.p, EX.b) not in small_graph
        assert len(small_graph) == 3

    def test_remove_absent_returns_false(self, small_graph):
        assert not small_graph.remove(Triple(EX.z, EX.p, EX.z))

    def test_remove_with_unknown_term_is_safe(self, small_graph):
        # the term was never interned: must not pollute the dictionary
        assert not small_graph.remove(Triple(EX.never_seen, EX.p, EX.b))

    def test_clear(self, small_graph):
        small_graph.clear()
        assert len(small_graph) == 0

    def test_version_bumps_only_on_effective_change(self):
        g = Graph()
        v0 = g.version
        g.add(Triple(EX.a, EX.p, EX.b))
        v1 = g.version
        assert v1 > v0
        g.add(Triple(EX.a, EX.p, EX.b))  # duplicate: no change
        assert g.version == v1
        g.remove(Triple(EX.a, EX.p, EX.b))
        assert g.version > v1


class TestMatching:
    def test_triples_fully_wild(self, small_graph):
        assert len(list(small_graph.triples())) == 4

    def test_triples_by_subject(self, small_graph):
        assert len(list(small_graph.triples(EX.a, None, None))) == 3

    def test_triples_by_property(self, small_graph):
        assert len(list(small_graph.triples(None, EX.p, None))) == 2

    def test_triples_by_object(self, small_graph):
        assert len(list(small_graph.triples(None, None, EX.c))) == 2

    def test_triples_unknown_constant_empty(self, small_graph):
        assert list(small_graph.triples(EX.unknown, None, None)) == []

    def test_variables_act_as_wildcards(self, small_graph):
        assert len(list(small_graph.triples(X, EX.p, Y))) == 2

    def test_match_pattern_bindings(self, small_graph):
        bindings = list(small_graph.match(TriplePattern(X, EX.p, Y)))
        assert {(b[X], b[Y]) for b in bindings} == {(EX.a, EX.b), (EX.a, EX.c)}

    def test_match_respects_initial_binding(self, small_graph):
        bindings = list(small_graph.match(TriplePattern(X, EX.p, Y),
                                          {Y: EX.c}))
        assert bindings == [{X: EX.a, Y: EX.c}]

    def test_match_repeated_variable(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, EX.a))
        g.add(Triple(EX.a, EX.p, EX.b))
        bindings = list(g.match(TriplePattern(X, EX.p, X)))
        assert bindings == [{X: EX.a}]

    def test_match_literal_binding_in_subject_yields_nothing(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, Literal("v")))
        # binding X to a literal then using it as a subject is simply empty
        bindings = list(g.match(TriplePattern(X, RDF.type, EX.T),
                                {X: Literal("v")}))
        assert bindings == []

    def test_count(self, small_graph):
        assert small_graph.count() == 4
        assert small_graph.count(EX.a, None, None) == 3
        assert small_graph.count(None, EX.p, None) == 2
        assert small_graph.count(EX.unknown, None, None) == 0


class TestViews:
    def test_subjects(self, small_graph):
        assert small_graph.subjects(EX.p) == {EX.a}

    def test_objects(self, small_graph):
        assert small_graph.objects(EX.a, EX.p) == {EX.b, EX.c}

    def test_predicates(self, small_graph):
        assert small_graph.predicates() == {EX.p, EX.q, RDF.type}

    def test_value_unique(self, small_graph):
        assert small_graph.value(EX.b, EX.q, None) == EX.c

    def test_value_missing_is_none(self, small_graph):
        assert small_graph.value(EX.c, EX.q, None) is None

    def test_value_requires_two_bound(self, small_graph):
        with pytest.raises(ValueError):
            small_graph.value(EX.a, None, None)


class TestGraphSemantics:
    def test_equality_is_set_equality(self, small_graph):
        other = Graph()
        for t in sorted(small_graph):
            other.add(t)
        assert small_graph == other

    def test_inequality_on_different_content(self, small_graph):
        other = small_graph.copy()
        other.add(Triple(EX.z, EX.p, EX.z))
        assert small_graph != other

    def test_unhashable(self, small_graph):
        with pytest.raises(TypeError):
            hash(small_graph)

    def test_copy_independent(self, small_graph):
        clone = small_graph.copy()
        clone.add(Triple(EX.z, EX.p, EX.z))
        assert len(small_graph) == 4
        assert len(clone) == 5

    def test_skolemize_removes_blanks(self):
        g = Graph()
        g.add(Triple(BlankNode("b1"), EX.p, BlankNode("b2")))
        g.add(Triple(EX.a, EX.p, EX.b))
        skolemized = g.skolemize()
        assert len(skolemized) == 2
        for t in skolemized:
            assert not isinstance(t.s, BlankNode)
            assert not isinstance(t.o, BlankNode)

    def test_constructor_accepts_triples(self):
        g = Graph([Triple(EX.a, EX.p, EX.b)])
        assert len(g) == 1

    def test_single_order_layout_still_answers_all_patterns(self):
        g = Graph(index_orders=("spo",))
        g.add(Triple(EX.a, EX.p, EX.b))
        g.add(Triple(EX.c, EX.p, EX.b))
        assert len(list(g.triples(None, None, EX.b))) == 2
