"""Tests for the SPARQL dialect: AST, parser, results, optimizer and
the BGP/UCQ evaluators."""

import pytest

from repro.rdf import Graph, Triple, TriplePattern as TP
from repro.rdf.namespaces import RDF, XSD
from repro.rdf.terms import Literal, Variable as V
from repro.sparql import (BGPQuery, ResultSet, SPARQLSyntaxError,
                          canonical_form, estimate_cardinality, evaluate,
                          evaluate_bgp_bindings, evaluate_ucq,
                          order_patterns, parse_query)

from conftest import EX

X, Y, Z = V("x"), V("y"), V("z")


@pytest.fixture
def data():
    g = Graph()
    g.namespaces.bind("ex", EX)
    g.add(Triple(EX.a, RDF.type, EX.T))
    g.add(Triple(EX.b, RDF.type, EX.T))
    g.add(Triple(EX.a, EX.p, EX.b))
    g.add(Triple(EX.b, EX.p, EX.c))
    g.add(Triple(EX.a, EX.name, Literal("alpha")))
    return g


class TestBGPQueryAst:
    def test_select_star_collects_variables_in_order(self):
        q = BGPQuery([TP(X, EX.p, Y), TP(Y, EX.q, Z)])
        assert q.distinguished == (X, Y, Z)

    def test_explicit_projection(self):
        q = BGPQuery([TP(X, EX.p, Y)], [Y])
        assert q.distinguished == (Y,)
        assert q.existential_variables() == {X}

    def test_unknown_projection_rejected(self):
        with pytest.raises(ValueError):
            BGPQuery([TP(X, EX.p, Y)], [Z])

    def test_empty_patterns_rejected(self):
        with pytest.raises(ValueError):
            BGPQuery([])

    def test_substitute_records_preset_for_distinguished(self):
        q = BGPQuery([TP(X, EX.p, Y)], [X, Y])
        bound = q.substitute({X: EX.a})
        assert bound.preset == {X: EX.a}
        assert bound.patterns[0].s == EX.a

    def test_substitute_skips_preset_for_existential(self):
        q = BGPQuery([TP(X, EX.p, Y)], [Y])
        bound = q.substitute({X: EX.a})
        assert bound.preset == {}

    def test_replace_pattern(self):
        q = BGPQuery([TP(X, EX.p, Y)])
        q2 = q.replace_pattern(0, TP(X, EX.q, Y))
        assert q2.patterns[0].p == EX.q

    def test_to_sparql_roundtrips_through_parser(self):
        q = BGPQuery([TP(X, EX.p, Y)], [X], distinct=True, limit=5)
        reparsed = parse_query(q.to_sparql())
        assert reparsed.patterns == q.patterns
        assert reparsed.distinguished == q.distinguished
        assert reparsed.distinct and reparsed.limit == 5

    def test_equality_and_hash(self):
        q1 = BGPQuery([TP(X, EX.p, Y)])
        q2 = BGPQuery([TP(X, EX.p, Y)])
        assert q1 == q2 and hash(q1) == hash(q2)


class TestCanonicalForm:
    def test_invariant_under_existential_renaming(self):
        q1 = BGPQuery([TP(X, EX.p, V("v1"))], [X])
        q2 = BGPQuery([TP(X, EX.p, V("v2"))], [X])
        assert canonical_form(q1) == canonical_form(q2)

    def test_invariant_under_atom_reordering(self):
        q1 = BGPQuery([TP(X, EX.p, Y), TP(X, EX.q, Y)], [X, Y])
        q2 = BGPQuery([TP(X, EX.q, Y), TP(X, EX.p, Y)], [X, Y])
        assert canonical_form(q1) == canonical_form(q2)

    def test_distinguished_variables_not_renamed(self):
        q1 = BGPQuery([TP(X, EX.p, Y)], [X, Y])
        q2 = BGPQuery([TP(X, EX.p, Z)], [X, Z])
        assert canonical_form(q1) != canonical_form(q2)

    def test_different_constants_differ(self):
        q1 = BGPQuery([TP(X, EX.p, EX.a)], [X])
        q2 = BGPQuery([TP(X, EX.p, EX.b)], [X])
        assert canonical_form(q1) != canonical_form(q2)


class TestParser:
    def test_basic_select(self):
        q = parse_query("SELECT ?x WHERE { ?x a <http://example.org/T> }")
        assert q.patterns == (TP(X, RDF.type, EX.T),)

    def test_prefixes(self):
        q = parse_query("""
            PREFIX ex: <http://example.org/>
            SELECT ?x WHERE { ?x ex:p ?y }
        """)
        assert q.patterns[0].p == EX.p

    def test_default_prefixes_available(self):
        q = parse_query("SELECT ?x WHERE { ?x rdf:type ?c }")
        assert q.patterns[0].p == RDF.type

    def test_distinct_and_limit(self):
        q = parse_query("SELECT DISTINCT ?x WHERE { ?x ?p ?o } LIMIT 3")
        assert q.distinct and q.limit == 3

    def test_star_projection(self):
        q = parse_query("SELECT * WHERE { ?x ?p ?o }")
        assert set(q.distinguished) == {X, V("p"), V("o")}

    def test_semicolon_and_comma_shortcuts(self):
        q = parse_query("""
            PREFIX ex: <http://example.org/>
            SELECT ?x WHERE { ?x ex:p ?y , ?z ; a ex:T . }
        """)
        assert len(q.patterns) == 3

    def test_literals(self):
        q = parse_query("""
            PREFIX ex: <http://example.org/>
            SELECT ?x WHERE {
                ?x ex:name "alpha" .
                ?x ex:age 42 .
                ?x ex:label "hi"@en .
                ?x ex:score "3"^^xsd:integer .
            }
        """)
        objects = [p.o for p in q.patterns]
        assert Literal("alpha") in objects
        assert Literal("42", datatype=XSD.integer) in objects
        assert Literal("hi", language="en") in objects
        assert Literal("3", datatype=XSD.integer) in objects

    def test_blank_nodes_become_existential_variables(self):
        q = parse_query("""
            PREFIX ex: <http://example.org/>
            SELECT ?x WHERE { ?x ex:p _:b . _:b ex:q ?y }
        """)
        # the same blank label maps to the same variable
        assert q.patterns[0].o == q.patterns[1].s
        assert isinstance(q.patterns[0].o, V)

    def test_case_insensitive_keywords(self):
        q = parse_query("select ?x where { ?x ?p ?o } limit 1")
        assert q.limit == 1

    def test_ask_form(self):
        q = parse_query("ASK { ?x a <http://example.org/T> }")
        assert q.limit == 1
        assert q.patterns == (TP(X, RDF.type, EX.T),)

    def test_ask_with_where(self):
        q = parse_query("ASK WHERE { ?x ?p ?o }")
        assert q.limit == 1

    def test_ask_with_prefix(self):
        q = parse_query("PREFIX ex: <http://example.org/> ASK { ?x ex:p ?y }")
        assert q.patterns[0].p == EX.p

    def test_empty_ask_rejected(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_query("ASK { }")

    @pytest.mark.parametrize("bad", [
        "SELECT WHERE { ?x ?p ?o }",             # no projection
        "SELECT ?x { ?x ?p ?o }",                # missing WHERE
        "SELECT ?x WHERE { ?x ?p }",             # incomplete triple
        "SELECT ?x WHERE { ?x ?p ?o",            # unterminated block
        "SELECT ?x WHERE { ?x ?p ?o } LIMIT ?x",  # bad limit
        "SELECT ?x WHERE { } ",                   # empty where
        "SELECT ?x WHERE { ?x nope:p ?o }",       # unbound prefix
        "SELECT ?x WHERE { ?x ?p ?o } trailing",  # trailing tokens
        "SELECT ?y WHERE { ?x ?p ?o }",           # projection not in body
        'SELECT ?x WHERE { "lit" ?p ?o }',        # literal subject
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(SPARQLSyntaxError):
            parse_query(bad)


class TestResultSet:
    def test_add_and_iterate_preserves_order(self):
        rs = ResultSet([X])
        rs.add((EX.a,))
        rs.add((EX.b,))
        assert rs.rows() == [(EX.a,), (EX.b,)]

    def test_distinct_drops_duplicates(self):
        rs = ResultSet([X], distinct=True)
        assert rs.add((EX.a,))
        assert not rs.add((EX.a,))
        assert len(rs) == 1

    def test_non_distinct_keeps_duplicates(self):
        rs = ResultSet([X])
        rs.add((EX.a,))
        rs.add((EX.a,))
        assert len(rs) == 2
        assert rs.to_set() == {(EX.a,)}

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            ResultSet([X]).add((EX.a, EX.b))

    def test_equality_is_set_semantics(self):
        a = ResultSet([X])
        a.add((EX.a,))
        a.add((EX.a,))
        b = ResultSet([X])
        b.add((EX.a,))
        assert a == b

    def test_project(self):
        rs = ResultSet([X, Y])
        rs.add((EX.a, EX.b))
        projected = rs.project([Y])
        assert projected.rows() == [(EX.b,)]

    def test_project_unknown_variable(self):
        with pytest.raises(KeyError):
            ResultSet([X]).project([Y])

    def test_bindings_view(self):
        rs = ResultSet([X, Y])
        rs.add((EX.a, EX.b))
        assert list(rs.bindings()) == [{X: EX.a, Y: EX.b}]

    def test_pretty_renders_table(self):
        rs = ResultSet([X])
        rs.add((EX.a,))
        text = rs.pretty()
        assert "?x" in text and "example.org" in text

    def test_pretty_truncates(self):
        rs = ResultSet([X])
        for i in range(30):
            rs.add((EX.term(f"r{i}"),))
        assert "more row(s)" in rs.pretty(max_rows=5)


class TestEvaluator:
    def test_single_pattern(self, data):
        q = BGPQuery([TP(X, RDF.type, EX.T)])
        assert evaluate(data, q).to_set() == {(EX.a,), (EX.b,)}

    def test_join(self, data):
        q = BGPQuery([TP(X, RDF.type, EX.T), TP(X, EX.p, Y)])
        assert evaluate(data, q).to_set() == {(EX.a, EX.b), (EX.b, EX.c)}

    def test_path_join(self, data):
        q = BGPQuery([TP(X, EX.p, Y), TP(Y, EX.p, Z)])
        assert evaluate(data, q).to_set() == {(EX.a, EX.b, EX.c)}

    def test_projection(self, data):
        q = BGPQuery([TP(X, EX.p, Y)], [Y])
        assert evaluate(data, q).to_set() == {(EX.b,), (EX.c,)}

    def test_constants_filter(self, data):
        q = BGPQuery([TP(EX.a, EX.p, Y)])
        assert evaluate(data, q).to_set() == {(EX.b,)}

    def test_no_match_is_empty(self, data):
        q = BGPQuery([TP(X, EX.nothing, Y)])
        assert evaluate(data, q).to_set() == set()

    def test_limit(self, data):
        q = BGPQuery([TP(X, EX.p, Y)], limit=1)
        assert len(evaluate(data, q)) == 1

    def test_preset_merged_into_rows(self, data):
        q = BGPQuery([TP(EX.a, EX.p, Y)], [X, Y], preset={X: EX.marker})
        assert evaluate(data, q).to_set() == {(EX.marker, EX.b)}

    def test_cartesian_product_when_disconnected(self, data):
        q = BGPQuery([TP(X, RDF.type, EX.T), TP(Y, EX.name, Z)])
        assert len(evaluate(data, q).to_set()) == 2  # 2 T-instances x 1 name

    def test_optimized_and_naive_agree(self, data):
        q = BGPQuery([TP(X, EX.p, Y), TP(Y, EX.p, Z), TP(X, RDF.type, EX.T)])
        assert evaluate(data, q, optimize=True).to_set() == \
            evaluate(data, q, optimize=False).to_set()

    def test_evaluate_bgp_bindings_streams(self, data):
        bindings = list(evaluate_bgp_bindings(data, [TP(X, EX.p, Y)]))
        assert len(bindings) == 2

    def test_empty_pattern_list_yields_unit(self, data):
        assert list(evaluate_bgp_bindings(data, [])) == [{}]

    def test_evaluate_ucq_set_union(self, data):
        q1 = BGPQuery([TP(X, EX.p, EX.b)], [X])
        q2 = BGPQuery([TP(X, RDF.type, EX.T)], [X])
        result = evaluate_ucq(data, [q1, q2])
        assert result.to_set() == {(EX.a,), (EX.b,)}
        # duplicates across conjuncts are eliminated
        assert len(result) == 2

    def test_evaluate_ucq_empty_union_rejected(self, data):
        with pytest.raises(ValueError):
            evaluate_ucq(data, [])

    def test_evaluate_ask(self, data):
        from repro.sparql import evaluate_ask
        assert evaluate_ask(data, BGPQuery([TP(X, RDF.type, EX.T)]))
        assert not evaluate_ask(data, BGPQuery([TP(X, RDF.type, EX.Nope)]))

    def test_ask_through_database(self, data):
        from repro.db import RDFDatabase, Strategy
        db = RDFDatabase(data, strategy=Strategy.NONE)
        assert db.ask_query("ASK { ?x <http://example.org/p> ?y }")
        assert not db.ask_query("ASK { ?x <http://example.org/nope> ?y }")


class TestOptimizer:
    def test_estimate_exact_for_constants(self, data):
        assert estimate_cardinality(data, TP(X, EX.p, Y)) == 2.0
        assert estimate_cardinality(data, TP(EX.a, EX.p, Y)) == 1.0
        assert estimate_cardinality(data, TP(X, EX.nothing, Y)) == 0.0

    def test_bound_variables_reduce_estimate(self, data):
        unbound = estimate_cardinality(data, TP(X, EX.p, Y))
        bound = estimate_cardinality(data, TP(X, EX.p, Y), frozenset([X]))
        assert bound < unbound

    def test_order_starts_with_most_selective(self, data):
        patterns = [TP(X, EX.p, Y), TP(EX.a, EX.name, Z)]
        order = order_patterns(data, patterns)
        assert order[0] == 1  # the 1-row name scan first

    def test_order_avoids_cartesian_products(self, data):
        # after choosing the selective name atom, prefer the connected one
        patterns = [TP(Y, EX.p, Z), TP(X, EX.p, Y), TP(X, EX.name, W := V("w"))]
        order = order_patterns(data, patterns)
        chosen = [patterns[i] for i in order]
        bound = set(chosen[0].variables())
        for pattern in chosen[1:]:
            # every later atom shares a variable with what is bound
            assert pattern.variables() & bound
            bound |= pattern.variables()

    def test_order_is_permutation(self, data):
        patterns = [TP(X, EX.p, Y), TP(Y, EX.p, Z), TP(X, RDF.type, EX.T)]
        assert sorted(order_patterns(data, patterns)) == [0, 1, 2]

    def test_explain_plan_covers_all_atoms(self, data):
        from repro.sparql import explain_plan
        q = BGPQuery([TP(X, EX.p, Y), TP(Y, EX.p, Z), TP(X, RDF.type, EX.T)])
        steps = explain_plan(data, q)
        assert [s.position for s in steps] == [1, 2, 3]
        assert {s.pattern for s in steps} == set(q.patterns)
        assert steps[0].bound_before == frozenset()

    def test_explain_plan_estimates_and_describe(self, data):
        from repro.sparql import explain_plan
        q = BGPQuery([TP(EX.a, EX.p, Y), TP(Y, EX.p, Z)])
        steps = explain_plan(data, q)
        assert steps[0].estimate == 1.0  # the bound scan goes first
        text = steps[1].describe()
        assert "scan" in text and "bound:" in text
