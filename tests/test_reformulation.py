"""Tests for query reformulation — the ``qref(G) = q(G∞)`` technique.

The correctness contract (module docstring of
repro.reasoning.reformulation): evaluated against the graph with its
schema closure materialized, the reformulated query returns exactly
the answers of the original query against the saturation.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bench import queries as bench_queries
from repro.rdf import Graph, Triple, TriplePattern as TP
from repro.rdf.namespaces import RDF, RDFS
from repro.rdf.terms import Variable as V
from repro.reasoning import reformulate, reformulate_fixpoint, saturate
from repro.reasoning.reformulation import atom_alternatives
from repro.schema import Schema
from repro.sparql import (BGPQuery, evaluate, evaluate_reformulation,
                          evaluate_ucq, parse_query)
from repro.sparql.evaluator import REFORMULATION_STRATEGIES
from repro.workloads import WORKLOAD_QUERIES

from conftest import EX


@pytest.fixture
def schema(paper_graph):
    return Schema.from_graph(paper_graph)


class TestAtomAlternatives:
    def test_identity_always_first(self, schema):
        atom = TP(V("x"), RDF.type, EX.Person)
        assert atom_alternatives(atom, schema)[0] == atom

    def test_type_atom_expands_subclasses_domains_ranges(self, schema):
        alternatives = atom_alternatives(TP(V("x"), RDF.type, EX.Person),
                                         schema)
        shapes = set()
        for alt in alternatives:
            shapes.add((alt.p if not isinstance(alt.p, V) else None,
                        alt.o if alt.o == EX.Person else None))
        # identity, (x hasFriend _) via domain, (_ hasFriend x) via range
        predicates = {alt.p for alt in alternatives}
        assert EX.hasFriend in predicates
        assert len(alternatives) == 3

    def test_subclass_alternative(self, schema):
        alternatives = atom_alternatives(TP(V("x"), RDF.type, EX.Mammal),
                                         schema)
        assert TP(V("x"), RDF.type, EX.Cat) in alternatives

    def test_property_atom_expands_subproperties(self):
        s = Schema()
        s.add(Triple(EX.p1, RDFS.subPropertyOf, EX.p2))
        alternatives = atom_alternatives(TP(V("x"), EX.p2, V("y")), s)
        assert TP(V("x"), EX.p1, V("y")) in alternatives
        assert len(alternatives) == 2

    def test_leaf_class_has_identity_only(self, schema):
        assert len(atom_alternatives(TP(V("x"), RDF.type, EX.Cat),
                                     schema)) == 1

    def test_variable_property_atom_identity_only(self, schema):
        assert len(atom_alternatives(TP(V("x"), V("p"), V("y")),
                                     schema)) == 1

    def test_schema_vocabulary_atom_identity_only(self, schema):
        assert len(atom_alternatives(TP(V("x"), RDFS.subClassOf, V("y")),
                                     schema)) == 1

    def test_transitive_subclasses_in_one_step(self):
        s = Schema()
        s.add(Triple(EX.C1, RDFS.subClassOf, EX.C2))
        s.add(Triple(EX.C2, RDFS.subClassOf, EX.C3))
        alternatives = atom_alternatives(TP(V("x"), RDF.type, EX.C3), s)
        classes = {alt.o for alt in alternatives}
        assert classes == {EX.C1, EX.C2, EX.C3}


class TestReformulationStructure:
    def test_ucq_size_counts_cross_product(self, schema):
        query = BGPQuery([TP(V("x"), RDF.type, EX.Person),
                          TP(V("x"), RDF.type, EX.Mammal)])
        ref = reformulate(query, schema)
        assert ref.ucq_size == 3 * 2

    def test_to_ucq_expands_all_conjuncts(self, schema):
        query = BGPQuery([TP(V("x"), RDF.type, EX.Person)])
        ucq = reformulate(query, schema).to_ucq()
        assert len(ucq) == 3
        assert all(isinstance(c, BGPQuery) for c in ucq)

    def test_dedup_in_to_ucq(self, schema):
        # both atoms reformulate identically; cross product has dupes
        query = BGPQuery([TP(V("x"), RDF.type, EX.Mammal),
                          TP(V("x"), RDF.type, EX.Mammal)])
        ref = reformulate(query, schema)
        assert len(ref.to_ucq(deduplicate=True)) <= ref.ucq_size

    def test_summary(self, schema):
        ref = reformulate(BGPQuery([TP(V("x"), RDF.type, EX.Person)]), schema)
        assert "UCQ size" in ref.summary()

    def test_empty_schema_identity_reformulation(self):
        query = BGPQuery([TP(V("x"), EX.p, V("y"))])
        ref = reformulate(query, Schema())
        assert ref.ucq_size == 1
        assert ref.to_ucq()[0].patterns == query.patterns

    def test_preset_binding_recorded_for_distinguished_class_var(self):
        s = Schema()
        s.add(Triple(EX.C1, RDFS.subClassOf, EX.C2))
        query = BGPQuery([TP(V("x"), RDF.type, V("c"))])
        ref = reformulate(query, s)
        presets = {tuple(sorted((k.name, v) for k, v in c.preset.items()))
                   for c in ref.to_ucq()}
        assert (("c", EX.C2),) in presets  # the bound-class variant


class TestCorrectness:
    """qref(G) = q(G∞) on fixed cases."""

    def test_paper_example(self, paper_graph, schema):
        query = BGPQuery([TP(V("x"), RDF.type, EX.Person)])
        expected = evaluate(saturate(paper_graph).graph, query).to_set()
        got = evaluate_reformulation(paper_graph,
                                     reformulate(query, schema)).to_set()
        assert got == expected
        assert (EX.Anne,) in got and (EX.Marie,) in got

    def test_reformulation_never_touches_graph(self, paper_graph, schema):
        size = len(paper_graph)
        query = BGPQuery([TP(V("x"), RDF.type, EX.Person)])
        reformulate(query, schema)
        assert len(paper_graph) == size

    def test_join_query(self, paper_graph, schema):
        query = BGPQuery([TP(V("x"), EX.hasFriend, V("y")),
                          TP(V("y"), RDF.type, EX.Person)])
        expected = evaluate(saturate(paper_graph).graph, query).to_set()
        got = evaluate_reformulation(paper_graph,
                                     reformulate(query, schema)).to_set()
        assert got == expected

    def test_variable_class_position(self, paper_graph, schema):
        query = BGPQuery([TP(V("x"), RDF.type, V("c"))])
        expected = evaluate(saturate(paper_graph).graph, query).to_set()
        got = evaluate_reformulation(paper_graph,
                                     reformulate(query, schema)).to_set()
        assert got == expected
        # inferred membership with its class binding must be present
        assert (EX.Anne, EX.Person) in got

    def test_variable_property_position(self, paper_graph, schema):
        query = BGPQuery([TP(EX.Anne, V("p"), V("o"))])
        expected = evaluate(saturate(paper_graph).graph, query).to_set()
        got = evaluate_reformulation(paper_graph,
                                     reformulate(query, schema)).to_set()
        assert got == expected

    def test_fully_unconstrained_query(self, paper_graph, schema):
        query = BGPQuery([TP(V("s"), V("p"), V("o"))])
        expected = evaluate(saturate(paper_graph).graph, query).to_set()
        got = evaluate_reformulation(paper_graph,
                                     reformulate(query, schema)).to_set()
        assert got == expected

    def test_ucq_and_factorized_strategies_agree(self, paper_graph, schema):
        query = BGPQuery([TP(V("x"), RDF.type, EX.Person),
                          TP(V("x"), EX.hasFriend, V("y"))])
        ref = reformulate(query, schema)
        g = paper_graph
        assert evaluate_reformulation(g, ref, "factorized").to_set() == \
            evaluate_reformulation(g, ref, "ucq").to_set()

    def test_pruned_and_unpruned_factorized_agree(self, lubm_small):
        """Data-aware pruning of zero-cardinality alternatives never
        changes the answer set."""
        from repro.sparql.evaluator import evaluate_factorized

        schema = Schema.from_graph(lubm_small)
        g = lubm_small
        for qid in ("Q1", "Q8", "Q10"):
            ref = reformulate(WORKLOAD_QUERIES[qid][1], schema)
            assert evaluate_factorized(g, ref, prune=True).to_set() == \
                evaluate_factorized(g, ref, prune=False).to_set(), qid

    def test_pruning_handles_all_dead_alternatives(self, schema):
        """A class no data instantiates: every alternative prunes away
        and the variant contributes nothing (not an error)."""
        from repro.sparql.evaluator import evaluate_factorized

        empty_graph = Graph()
        ref = reformulate(BGPQuery([TP(V("x"), RDF.type, EX.Person)]), schema)
        assert evaluate_factorized(empty_graph, ref).to_set() == set()

    def test_unknown_strategy_rejected(self, paper_graph, schema):
        ref = reformulate(BGPQuery([TP(V("x"), RDF.type, EX.Person)]), schema)
        with pytest.raises(ValueError):
            evaluate_reformulation(paper_graph, ref, "hybrid")

    @pytest.mark.parametrize("qid", list(WORKLOAD_QUERIES))
    def test_workload_queries_on_lubm(self, qid, lubm_small):
        query = WORKLOAD_QUERIES[qid][1]
        schema = Schema.from_graph(lubm_small)
        expected = evaluate(saturate(lubm_small).graph, query).to_set()
        got = evaluate_reformulation(lubm_small,
                                     reformulate(query, schema)).to_set()
        assert got == expected, qid

    @pytest.mark.parametrize("seed", range(10))
    def test_randomized(self, seed):
        from repro.workloads import RandomGraphConfig, random_query
        config = RandomGraphConfig(seed=seed, allow_cycles=True)
        from repro.workloads import random_graph
        graph = random_graph(config)
        query = random_query(config, seed=seed * 13)
        schema = Schema.from_graph(graph)
        expected = evaluate(saturate(graph).graph, query).to_set()
        ref = reformulate(query, schema)
        assert evaluate_reformulation(graph, ref).to_set() == expected


def bench_template(template: str) -> BGPQuery:
    """A benchmark template, parameterised on the first department."""
    qid = (template if template in bench_queries.FIXED_TEMPLATES
           else f"{template}:u0d0")
    return parse_query(bench_queries.query_text(qid))


@pytest.fixture(scope="module")
def lubm_sides(lubm_small):
    """The saturation and the asserted graph on each backend."""
    return (saturate(lubm_small).graph,
            {"hash": lubm_small,
             "columnar": lubm_small.to_backend("columnar")})


class TestStrategiesOnBenchTemplates:
    """Every strategy, backend and join order answers the benchmark's
    templates as the saturation does."""

    @pytest.mark.parametrize("optimize", [True, False],
                             ids=["ordered", "textual"])
    @pytest.mark.parametrize("backend", ["hash", "columnar"])
    @pytest.mark.parametrize("strategy", REFORMULATION_STRATEGIES)
    @pytest.mark.parametrize("template", bench_queries.QUERY_TEMPLATES)
    def test_matches_saturation(self, lubm_small, lubm_sides, template,
                                strategy, backend, optimize):
        saturated, sides = lubm_sides
        query = bench_template(template)
        expected = evaluate(saturated, query).to_set()
        assert expected, template
        reformulation = reformulate(query, Schema.from_graph(lubm_small))
        got = evaluate_reformulation(sides[backend], reformulation,
                                     strategy, optimize)
        assert got.to_set() == expected


REWRITE_SCRIPT = """
from bench import queries
from repro.reasoning import reformulate
from repro.schema import Schema
from repro.sparql import parse_query
from repro.workloads import LUBMConfig, generate_lubm

schema = Schema.from_graph(generate_lubm(LUBMConfig(departments=1)))
for qid in ("Q1", "Q10", "varprop:u0d0"):
    query = parse_query(queries.query_text(qid))
    for conjunct in reformulate(query, schema).to_ucq():
        print(conjunct.to_sparql())
"""


def test_rewrites_do_not_depend_on_the_hash_seed():
    root = Path(__file__).resolve().parents[1]
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"),
                                               str(root)]))
        done = subprocess.run([sys.executable, "-c", REWRITE_SCRIPT],
                              env=env, capture_output=True, timeout=120,
                              check=True)
        outputs.append(done.stdout)
    assert outputs[0]
    assert outputs[0] == outputs[1]


class TestFixpointAlgorithm:
    """The literal [12] algorithm must agree with the closure one."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fixpoint_equals_closure_answers(self, seed):
        from repro.workloads import (RandomGraphConfig, random_graph,
                                     random_query)
        config = RandomGraphConfig(seed=seed)
        graph = random_graph(config)
        query = random_query(config, seed=seed * 7,
                             allow_variable_predicates=False)
        schema = Schema.from_graph(graph)
        g = graph
        via_closure = evaluate_reformulation(
            g, reformulate(query, schema)).to_set()
        via_fixpoint = evaluate_ucq(
            g, reformulate_fixpoint(query, schema)).to_set()
        assert via_closure == via_fixpoint

    def test_fixpoint_conjunct_count_matches_closure(self, lubm_small):
        schema = Schema.from_graph(lubm_small)
        query = WORKLOAD_QUERIES["Q2"][1]
        fixpoint_ucq = reformulate_fixpoint(query, schema)
        closure_ucq = reformulate(query, schema).to_ucq()
        assert len(fixpoint_ucq) == len(closure_ucq)

    def test_max_conjuncts_guard(self, lubm_small):
        schema = Schema.from_graph(lubm_small)
        query = WORKLOAD_QUERIES["Q1"][1]  # the widest reformulation
        with pytest.raises(RuntimeError):
            reformulate_fixpoint(query, schema, max_conjuncts=2)

    def test_terminates_on_cyclic_schema(self):
        s = Schema()
        s.add(Triple(EX.C1, RDFS.subClassOf, EX.C2))
        s.add(Triple(EX.C2, RDFS.subClassOf, EX.C1))
        ucq = reformulate_fixpoint(
            BGPQuery([TP(V("x"), RDF.type, EX.C2)]), s)
        classes = {c.patterns[0].o for c in ucq}
        assert classes == {EX.C1, EX.C2}


class TestUCQSizeGrowth:
    def test_ucq_size_grows_with_hierarchy_depth(self):
        """The performance phenomenon the paper stresses: deeper
        hierarchies mean syntactically larger reformulations."""
        sizes = []
        for depth in (2, 4, 8):
            s = Schema()
            for i in range(depth):
                s.add(Triple(EX.term(f"D{i}"), RDFS.subClassOf,
                             EX.term(f"D{i + 1}")))
            query = BGPQuery([TP(V("x"), RDF.type, EX.term(f"D{depth}"))])
            sizes.append(reformulate(query, s).ucq_size)
        assert sizes == [3, 5, 9]  # depth + 1 subclasses each

    def test_join_multiplies_sizes(self, lubm_small):
        from repro.workloads.lubm import UNIV

        schema = Schema.from_graph(lubm_small)
        unknown_class = reformulate(
            BGPQuery([TP(V("x"), RDF.type, EX.Nothing)]), schema).ucq_size
        assert unknown_class == 1  # unknown class: identity only
        person = reformulate(
            BGPQuery([TP(V("x"), RDF.type, UNIV.Person)]), schema).ucq_size
        pair = reformulate(
            BGPQuery([TP(V("x"), RDF.type, UNIV.Person),
                      TP(V("x"), RDF.type, UNIV.Person)]), schema).ucq_size
        assert pair == person * person
