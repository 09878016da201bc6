"""Tests for the Datalog substrate: core engine, magic sets, and the
RDF translation (the Section II-D route)."""

import pytest

from repro.datalog import (Atom, Clause, Database, Program, Relation,
                           SemiNaiveEngine, Var, answer_query,
                           graph_to_database, magic_query, magic_transform,
                           query_to_clause, ruleset_to_program,
                           saturate_via_datalog)
from repro.rdf import Graph, Triple, TriplePattern as TP
from repro.rdf.namespaces import RDF
from repro.rdf.terms import Literal, Variable
from repro.reasoning import RDFS_PLUS, saturate
from repro.sparql import BGPQuery, evaluate

from conftest import EX, random_rdfs_graph

X, Y, Z = Var("x"), Var("y"), Var("z")


class TestProgramModel:
    def test_atom_equality(self):
        assert Atom("p", ("a", X)) == Atom("p", ("a", X))
        assert Atom("p", ("a",)) != Atom("q", ("a",))

    def test_atom_ground(self):
        assert Atom("p", ("a", "b")).is_ground()
        assert not Atom("p", ("a", X)).is_ground()

    def test_atom_substitute(self):
        assert Atom("p", (X, "b")).substitute({X: "a"}) == Atom("p", ("a", "b"))

    def test_atom_match(self):
        assert Atom("p", (X, Y)).match(("a", "b")) == {X: "a", Y: "b"}
        assert Atom("p", (X, X)).match(("a", "b")) is None
        assert Atom("p", ("a", Y)).match(("b", "c")) is None

    def test_clause_safety(self):
        with pytest.raises(ValueError):
            Clause(Atom("p", (X,)), [Atom("q", (Y,))])

    def test_fact_must_be_ground(self):
        with pytest.raises(ValueError):
            Clause(Atom("p", (X,)), [])

    def test_program_rejects_facts(self):
        with pytest.raises(ValueError):
            Program([Clause(Atom("p", ("a",)), [])])

    def test_program_defining_lookup(self):
        clause = Clause(Atom("p", (X,)), [Atom("q", (X,))])
        program = Program([clause])
        assert program.defining("p") == (clause,)
        assert program.defining("q") == ()
        assert program.idb_predicates() == {"p"}
        assert program.predicates() == {"p", "q"}


class TestRelation:
    def test_add_and_match(self):
        rel = Relation(2)
        rel.add(("a", "b"))
        rel.add(("a", "c"))
        rel.add(("d", "b"))
        assert set(rel.match(("a", None))) == {("a", "b"), ("a", "c")}
        assert set(rel.match((None, "b"))) == {("a", "b"), ("d", "b")}
        assert set(rel.match((None, None))) == set(rel)

    def test_index_maintained_after_build(self):
        rel = Relation(2)
        rel.add(("a", "b"))
        list(rel.match(("a", None)))  # force index build
        rel.add(("a", "c"))           # must be reflected in that index
        assert set(rel.match(("a", None))) == {("a", "b"), ("a", "c")}

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            Relation(2).add(("a",))

    def test_fully_bound_match(self):
        rel = Relation(2)
        rel.add(("a", "b"))
        assert list(rel.match(("a", "b"))) == [("a", "b")]
        assert list(rel.match(("a", "z"))) == []


ANCESTOR = Program([
    Clause(Atom("anc", (X, Y)), [Atom("par", (X, Y))]),
    Clause(Atom("anc", (X, Z)), [Atom("par", (X, Y)), Atom("anc", (Y, Z))]),
])


def parent_db() -> Database:
    db = Database()
    for a, b in [("a", "b"), ("b", "c"), ("c", "d"), ("e", "f")]:
        db.add_fact("par", (a, b))
    return db


class TestSemiNaive:
    def test_transitive_closure(self):
        answers = SemiNaiveEngine(ANCESTOR).query(parent_db(), Atom("anc", (X, Y)))
        assert answers == {("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                           ("b", "d"), ("c", "d"), ("e", "f")}

    def test_stats_reported(self):
        db = parent_db()
        stats = SemiNaiveEngine(ANCESTOR).evaluate(db)
        assert stats.derived == 7
        assert stats.rounds >= 2
        assert stats.per_predicate["anc"] == 7

    def test_evaluation_is_idempotent(self):
        db = parent_db()
        engine = SemiNaiveEngine(ANCESTOR)
        engine.evaluate(db)
        stats = engine.evaluate(db)
        assert stats.derived == 0

    def test_bound_goal(self):
        answers = SemiNaiveEngine(ANCESTOR).query(parent_db(),
                                                  Atom("anc", ("b", Y)))
        assert answers == {("b", "c"), ("b", "d")}

    def test_non_recursive_program(self):
        program = Program([Clause(Atom("gp", (X, Z)),
                                  [Atom("par", (X, Y)), Atom("par", (Y, Z))])])
        answers = SemiNaiveEngine(program).query(parent_db(), Atom("gp", (X, Y)))
        assert answers == {("a", "c"), ("b", "d")}

    def test_mutual_recursion(self):
        program = Program([
            Clause(Atom("even", (X,)), [Atom("succ", (Y, X)), Atom("odd", (Y,))]),
            Clause(Atom("odd", (X,)), [Atom("succ", (Y, X)), Atom("even", (Y,))]),
        ])
        db = Database()
        db.add_fact("even", (0,))
        for i in range(6):
            db.add_fact("succ", (i, i + 1))
        engine = SemiNaiveEngine(program)
        assert engine.query(db, Atom("even", (X,))) == {(0,), (2,), (4,), (6,)}
        assert engine.query(db.copy(), Atom("odd", (X,))) == {(1,), (3,), (5,)}


class TestMagicSets:
    def test_bound_first_argument(self):
        assert magic_query(ANCESTOR, parent_db(), Atom("anc", ("a", Y))) == \
            {("a", "b"), ("a", "c"), ("a", "d")}

    def test_bound_second_argument(self):
        assert magic_query(ANCESTOR, parent_db(), Atom("anc", (X, "d"))) == \
            {("a", "d"), ("b", "d"), ("c", "d")}

    def test_fully_bound_goal(self):
        assert magic_query(ANCESTOR, parent_db(), Atom("anc", ("a", "d"))) == \
            {("a", "d")}
        assert magic_query(ANCESTOR, parent_db(), Atom("anc", ("a", "f"))) == \
            set()

    def test_free_goal_equals_bottom_up(self):
        assert magic_query(ANCESTOR, parent_db(), Atom("anc", (X, Y))) == \
            SemiNaiveEngine(ANCESTOR).query(parent_db(), Atom("anc", (X, Y)))

    def test_magic_derives_fewer_facts(self):
        db = parent_db()
        transformation = magic_transform(ANCESTOR, Atom("anc", ("e", Y)))
        transformation.run(db)
        adorned = db.relation("anc__bf")
        assert len(adorned) == 1  # only e's ancestors, not a-b-c-d's

    def test_goal_must_be_idb(self):
        with pytest.raises(ValueError):
            magic_transform(ANCESTOR, Atom("par", ("a", Y)))

    def test_adorned_predicates_reported(self):
        transformation = magic_transform(ANCESTOR, Atom("anc", ("a", Y)))
        assert ("anc", "bf") in transformation.adorned_predicates


class TestRDFTranslation:
    def test_graph_roundtrip(self, paper_graph):
        db = graph_to_database(paper_graph)
        assert db.relation("t").arity == 3
        assert len(db.relation("t")) == len(paper_graph)

    def test_guards_populated(self, paper_graph):
        db = graph_to_database(paper_graph)
        assert (EX.Tom,) in db.relation("r")
        assert (EX.Tom,) in db.relation("u")

    def test_literal_not_in_subject_guard(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, Literal("v")))
        db = graph_to_database(g)
        assert (Literal("v"),) not in db.relation("r")

    def test_program_size_matches_ruleset(self):
        from repro.reasoning import RHO_DF
        assert len(ruleset_to_program(RHO_DF)) == len(RHO_DF)

    def test_datalog_saturation_equals_native(self, paper_graph):
        assert saturate_via_datalog(paper_graph) == \
            saturate(paper_graph).graph

    @pytest.mark.parametrize("seed", range(6))
    def test_datalog_saturation_random(self, seed):
        graph = random_rdfs_graph(seed + 300, size=30)
        assert saturate_via_datalog(graph) == saturate(graph).graph

    def test_datalog_saturation_rdfs_plus(self):
        from repro.rdf.namespaces import OWL
        g = Graph()
        g.add(Triple(EX.partOf, RDF.type, OWL.TransitiveProperty))
        g.add(Triple(EX.a, EX.partOf, EX.b))
        g.add(Triple(EX.b, EX.partOf, EX.c))
        assert saturate_via_datalog(g, RDFS_PLUS) == \
            saturate(g, RDFS_PLUS).graph

    def test_query_to_clause_with_preset(self):
        q = BGPQuery([TP(Variable("x"), RDF.type, EX.C)],
                     [Variable("x"), Variable("c")],
                     preset={Variable("c"): EX.C})
        clause, goal = query_to_clause(q)
        assert goal.args[1] == EX.C  # preset became a constant

    @pytest.mark.parametrize("method", ["magic", "seminaive"])
    def test_answer_query_matches_saturation(self, paper_graph, method):
        q = BGPQuery([TP(Variable("x"), RDF.type, EX.Person)])
        expected = evaluate(saturate(paper_graph).graph, q).to_set()
        assert answer_query(paper_graph, q, method=method) == expected

    def test_answer_query_join(self, paper_graph):
        q = BGPQuery([TP(Variable("x"), EX.hasFriend, Variable("y")),
                      TP(Variable("y"), RDF.type, EX.Person)])
        expected = evaluate(saturate(paper_graph).graph, q).to_set()
        assert answer_query(paper_graph, q, method="magic") == expected

    def test_unknown_method_rejected(self, paper_graph):
        q = BGPQuery([TP(Variable("x"), RDF.type, EX.Person)])
        with pytest.raises(ValueError):
            answer_query(paper_graph, q, method="psychic")

    @pytest.mark.parametrize("seed", range(5))
    def test_methods_agree_randomized(self, seed):
        from repro.workloads import (RandomGraphConfig, random_graph,
                                     random_query)
        config = RandomGraphConfig(seed=seed + 40)
        graph = random_graph(config)
        query = random_query(config, seed=seed * 3 + 1,
                             allow_variable_predicates=False)
        expected = evaluate(saturate(graph).graph, query).to_set()
        assert answer_query(graph, query, method="magic") == expected
        assert answer_query(graph, query, method="seminaive") == expected
