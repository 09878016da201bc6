"""Property-based tests (hypothesis) for the paper's core invariants.

These are the theorems the two techniques rest on:

1. Saturation is a unique, idempotent, monotone fixpoint containing G.
2. ``G ⊢RDF t  ⟺  t ∈ G∞``.
3. ``qref(G) = q(G∞)`` for every query and graph in the fragment.
4. Incremental maintenance ≡ from-scratch saturation.
5. The Datalog route ≡ the native engines.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.rdf import Graph, Triple
from repro.rdf.namespaces import RDF, RDFS
from repro.reasoning import (CountingReasoner, DRedReasoner, reformulate,
                             saturate)
from repro.datalog import saturate_via_datalog
from repro.schema import Schema
from repro.sparql import evaluate, evaluate_reformulation
from repro.workloads import RandomGraphConfig, random_graph, random_query

from conftest import EX

SETTINGS = dict(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# -- strategies ---------------------------------------------------------

CLASSES = [EX.term(f"C{i}") for i in range(6)]
PROPS = [EX.term(f"p{i}") for i in range(4)]
INDS = [EX.term(f"i{i}") for i in range(8)]

class_term = st.sampled_from(CLASSES)
prop_term = st.sampled_from(PROPS)
ind_term = st.sampled_from(INDS)

schema_triple = st.one_of(
    st.builds(lambda a, b: Triple(a, RDFS.subClassOf, b), class_term, class_term),
    st.builds(lambda a, b: Triple(a, RDFS.subPropertyOf, b), prop_term, prop_term),
    st.builds(lambda p, c: Triple(p, RDFS.domain, c), prop_term, class_term),
    st.builds(lambda p, c: Triple(p, RDFS.range, c), prop_term, class_term),
)
instance_triple = st.one_of(
    st.builds(lambda s, c: Triple(s, RDF.type, c), ind_term, class_term),
    st.builds(Triple, ind_term, prop_term, ind_term),
)
any_triple = st.one_of(schema_triple, instance_triple)
graphs = st.lists(any_triple, max_size=40).map(Graph)


def acyclic_graphs():
    """Graphs whose subclass/subproperty edges follow the index order
    (counting-safe)."""

    def fix(triple: Triple) -> Triple:
        if triple.p in (RDFS.subClassOf, RDFS.subPropertyOf):
            s_name, o_name = triple.s.local_name, triple.o.local_name
            if s_name > o_name:
                return Triple(triple.o, triple.p, triple.s)
            if s_name == o_name:
                return Triple(triple.s, RDF.type, triple.o)
        return triple

    return st.lists(any_triple, max_size=30).map(
        lambda ts: Graph(fix(t) for t in ts))


# -- 1. fixpoint properties ---------------------------------------------

@settings(**SETTINGS)
@given(graphs)
def test_saturation_contains_input(graph):
    saturated = saturate(graph).graph
    assert all(t in saturated for t in graph)


@settings(**SETTINGS)
@given(graphs)
def test_saturation_idempotent(graph):
    once = saturate(graph).graph
    assert saturate(once).graph == once


@settings(**SETTINGS)
@given(graphs, any_triple)
def test_saturation_monotone(graph, extra):
    smaller = saturate(graph).graph
    enlarged = graph.copy()
    enlarged.add(extra)
    assert set(smaller) <= set(saturate(enlarged).graph)


@settings(**SETTINGS)
@given(graphs)
def test_engines_compute_same_fixpoint(graph):
    seminaive = saturate(graph, engine="seminaive").graph
    assert saturate(graph, engine="schema-aware").graph == seminaive


@settings(**SETTINGS)
@given(graphs)
def test_datalog_route_agrees(graph):
    assert saturate_via_datalog(graph) == saturate(graph).graph


# -- 2. the reformulation theorem  qref(G) = q(G∞) ----------------------

@settings(**SETTINGS)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_reformulation_theorem(graph_seed, query_seed):
    config = RandomGraphConfig(seed=graph_seed, allow_cycles=True)
    graph = random_graph(config)
    query = random_query(config, seed=query_seed)
    schema = Schema.from_graph(graph)
    closed = graph.copy()
    closed.update(schema.closure_triples())
    expected = evaluate(saturate(graph).graph, query).to_set()
    got = evaluate_reformulation(closed, reformulate(query, schema)).to_set()
    assert got == expected


@settings(**SETTINGS)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_reformulation_sound_without_closure_materialized(graph_seed,
                                                          query_seed):
    """Without the materialized schema closure the engine may be
    incomplete (that is the documented contract) but never unsound."""
    config = RandomGraphConfig(seed=graph_seed)
    graph = random_graph(config)
    query = random_query(config, seed=query_seed,
                         allow_variable_predicates=False)
    schema = Schema.from_graph(graph)
    expected = evaluate(saturate(graph).graph, query).to_set()
    got = evaluate_reformulation(graph, reformulate(query, schema)).to_set()
    assert got <= expected


# -- 3. maintenance ≡ recomputation --------------------------------------

@settings(**SETTINGS)
@given(graphs, st.lists(any_triple, min_size=1, max_size=5))
def test_dred_insert_equals_recompute(graph, batch):
    reasoner = DRedReasoner(graph)
    reasoner.insert(batch)
    assert reasoner.graph == saturate(reasoner.explicit_graph()).graph


@settings(**SETTINGS)
@given(graphs, st.data())
def test_dred_delete_equals_recompute(graph, data):
    reasoner = DRedReasoner(graph)
    pool = sorted(reasoner.explicit)
    if not pool:
        return
    batch = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    reasoner.delete(batch)
    assert reasoner.graph == saturate(reasoner.explicit_graph()).graph


@settings(**SETTINGS)
@given(acyclic_graphs(), st.data())
def test_counting_mixed_stream_equals_recompute(graph, data):
    reasoner = CountingReasoner(graph)
    for __ in range(3):
        if data.draw(st.booleans()):
            batch = data.draw(st.lists(any_triple, min_size=1, max_size=3))
            # keep hierarchies acyclic for the counting algorithm
            batch = [t for t in batch
                     if t.p not in (RDFS.subClassOf, RDFS.subPropertyOf)]
            if batch:
                reasoner.insert(batch)
        else:
            pool = sorted(reasoner.explicit)
            if pool:
                batch = data.draw(st.lists(st.sampled_from(pool),
                                           min_size=1, max_size=3))
                reasoner.delete(batch)
        assert reasoner.graph == saturate(reasoner.explicit_graph()).graph


@settings(**SETTINGS)
@given(acyclic_graphs(), st.data())
def test_dred_and_counting_agree(graph, data):
    dred = DRedReasoner(graph)
    counting = CountingReasoner(graph)
    pool = sorted(dred.explicit)
    if not pool:
        return
    batch = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    dred.delete(batch)
    counting.delete(batch)
    assert dred.graph == counting.graph


# -- 4. serialization roundtrips -----------------------------------------

@settings(**SETTINGS)
@given(graphs)
def test_ntriples_roundtrip(graph):
    from repro.rdf import graph_from_ntriples, serialize_ntriples
    assert graph_from_ntriples(serialize_ntriples(graph)) == graph


@settings(**SETTINGS)
@given(graphs)
def test_turtle_roundtrip(graph):
    from repro.rdf import graph_from_turtle, serialize_turtle
    assert graph_from_turtle(serialize_turtle(graph)) == graph


@settings(**SETTINGS)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_union_query_equals_branch_union(graph_seed, seed_a, seed_b):
    """UnionQuery evaluation == set-union of evaluating the branches."""
    from repro.sparql.union import UnionQuery

    config = RandomGraphConfig(seed=graph_seed)
    graph = random_graph(config)
    qa = random_query(config, seed=seed_a, max_atoms=2,
                      allow_variable_predicates=False)
    qb = random_query(config, seed=seed_b, max_atoms=2,
                      allow_variable_predicates=False)
    shared = qa.variables() & qb.variables()
    if not shared:
        return
    projection = sorted(shared, key=lambda v: v.name)
    union = UnionQuery([qa, qb], projection)
    direct = union.evaluate(graph).to_set()
    via_branches = (evaluate(graph, union.branches[0]).to_set()
                    | evaluate(graph, union.branches[1]).to_set())
    assert direct == via_branches


@settings(**SETTINGS)
@given(st.integers(0, 100_000), st.integers(0, 100_000))
def test_query_sparql_roundtrip(graph_seed, query_seed):
    """to_sparql() output re-parses to the same query."""
    from repro.sparql import parse_query

    config = RandomGraphConfig(seed=graph_seed)
    query = random_query(config, seed=query_seed)
    reparsed = parse_query(query.to_sparql())
    assert reparsed.patterns == query.patterns
    assert reparsed.distinguished == query.distinguished
    assert reparsed.distinct == query.distinct


# -- 5. blank nodes and saturation ----------------------------------------

def _blankify(graph):
    """Replace the individuals i0..i2 by blank nodes (same structure)."""
    from repro.rdf import BlankNode, Graph as _Graph, Triple as _Triple

    swap = {INDS[i]: BlankNode(f"b{i}") for i in range(3)}

    def walk(term):
        return swap.get(term, term)

    result = _Graph()
    for t in graph:
        result.add(_Triple(walk(t.s), t.p, walk(t.o)))
    return result


@settings(**SETTINGS)
@given(graphs)
def test_saturation_commutes_with_skolemization(graph):
    """Skolemizing then saturating = saturating then skolemizing:
    blank nodes behave like constants under ρdf entailment."""
    blanked = _blankify(graph)
    a = saturate(blanked.skolemize()).graph
    b = saturate(blanked).graph.skolemize()
    assert a == b


@settings(**SETTINGS)
@given(graphs)
def test_saturation_isomorphism_invariance(graph):
    """Saturation is unique up to blank node renaming (Section II-A):
    relabeling blanks before or after saturating gives isomorphic
    results."""
    from repro.rdf import isomorphic

    blanked = _blankify(graph)
    assert isomorphic(saturate(blanked).graph, saturate(blanked).graph)
