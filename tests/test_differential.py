"""Differential correctness suite: the two answering techniques must
agree on every query, graph and rule set.

The paper's central equivalence — ``qref(G) = q(G∞)`` — is checked
here as a *differential test*: seeded random graphs and random BGP
queries, one case per seed, asserting identical binding sets between

* saturation-based answering (``evaluate(q, saturate(G))``) and
* reformulation-based answering, for the rule sets the reformulation
  engine is complete for (``rhodf`` and its alias ``rdfs-default``);
* saturation-based answering and the backward-chaining Datalog route
  (magic sets) for the rule sets outside the reformulation fragment
  (``rdfs-full``, ``rdfs-plus``).

Every case is a fixed, replayable seed: a failure report names the
(graph_seed, query_seed) pair that reproduces it.
"""

import pytest

from repro.datalog import answer_query
from repro.db import RDFDatabase, Strategy
from repro.rdf import Triple
from repro.rdf.namespaces import OWL, RDF
from repro.reasoning import get_ruleset, reformulate, saturate
from repro.schema import Schema
from repro.sparql import evaluate, evaluate_reformulation
from repro.workloads import RandomGraphConfig, random_graph, random_query
from repro.workloads.random_graph import RANDOM

#: 50+ cases per ruleset, as fixed seeds (replayable one by one).
SEEDS = range(50)

CONFIG = RandomGraphConfig(classes=6, properties=4, individuals=10,
                           schema_triples=8, instance_triples=24)


def _case(seed):
    """The (graph, query) pair for one differential case."""
    graph = random_graph(CONFIG, seed=seed)
    query = random_query(CONFIG, seed=seed * 31 + 7)
    return graph, query


def _owl_axioms(seed):
    """A few OWL axioms over the random vocabulary, so the rdfs-plus
    cases actually exercise the RDFS-Plus rules."""
    p = [RANDOM.term(f"p{i}") for i in range(4)]
    c = [RANDOM.term(f"C{i}") for i in range(6)]
    pool = [
        Triple(p[0], OWL.inverseOf, p[1]),
        Triple(p[2], RDF.type, OWL.SymmetricProperty),
        Triple(p[3], RDF.type, OWL.TransitiveProperty),
        Triple(c[0], OWL.equivalentClass, c[1]),
        Triple(p[1], OWL.equivalentProperty, p[2]),
    ]
    # vary which axioms apply per seed, deterministically
    return [t for i, t in enumerate(pool) if (seed >> i) & 1]


def _saturation_answers(graph, query, ruleset):
    return evaluate(saturate(graph, ruleset).graph, query).to_set()


@pytest.mark.parametrize("ruleset_name", ["rhodf", "rdfs-default"])
@pytest.mark.parametrize("seed", SEEDS)
def test_saturation_vs_reformulation(ruleset_name, seed):
    """For the ρdf fragment: q(G∞) == qref(G) on the asserted graph."""
    graph, query = _case(seed)
    ruleset = get_ruleset(ruleset_name)
    expected = _saturation_answers(graph, query, ruleset)
    schema = Schema.from_graph(graph)
    got = evaluate_reformulation(graph, reformulate(query, schema)).to_set()
    assert got == expected, (
        f"reformulation disagrees with saturation for "
        f"ruleset={ruleset_name} graph_seed={seed} "
        f"query={query.to_sparql()!r}")


@pytest.mark.parametrize("ruleset_name", ["rdfs-full", "rdfs-plus"])
@pytest.mark.parametrize("seed", SEEDS)
def test_saturation_vs_backward(ruleset_name, seed):
    """Outside the reformulation fragment: saturation vs the
    goal-directed Datalog route (magic sets) on the same rule set."""
    graph, query = _case(seed)
    if ruleset_name == "rdfs-plus":
        graph.update(_owl_axioms(seed))
    ruleset = get_ruleset(ruleset_name)
    expected = _saturation_answers(graph, query, ruleset)
    got = answer_query(graph, query, ruleset, method="magic")
    assert got == expected, (
        f"backward chaining disagrees with saturation for "
        f"ruleset={ruleset_name} graph_seed={seed} "
        f"query={query.to_sparql()!r}")


@pytest.mark.parametrize("seed", range(10))
def test_database_strategies_agree(seed):
    """The RDFDatabase facade: both strategies that reason return the
    same bindings on the same (graph, query) pair."""
    graph, query = _case(seed)
    answers = {}
    for strategy in (Strategy.SATURATION, Strategy.REFORMULATION):
        db = RDFDatabase(graph.copy(), strategy=strategy)
        answers[strategy] = db.query(query).to_set()
    assert answers[Strategy.SATURATION] == \
        answers[Strategy.REFORMULATION], f"strategies disagree at seed={seed}"


class TestWorkloadDeterminism:
    """Re-running a generator with the same seed must reproduce the
    workload byte for byte."""

    def test_random_graph_byte_identical(self):
        from repro.rdf import serialize_ntriples

        first = serialize_ntriples(random_graph(CONFIG, seed=99), sort=True)
        second = serialize_ntriples(random_graph(CONFIG, seed=99), sort=True)
        assert first == second

    def test_random_graph_seed_overrides_config(self):
        base = RandomGraphConfig(seed=1)
        override = random_graph(base, seed=2)
        assert override == random_graph(RandomGraphConfig(seed=2))
        assert override != random_graph(base)

    def test_random_query_byte_identical(self):
        first = random_query(CONFIG, seed=123)
        second = random_query(CONFIG, seed=123)
        assert first.to_sparql() == second.to_sparql()

    def test_lubm_seed_override(self):
        from repro.rdf import serialize_ntriples
        from repro.workloads import LUBMConfig, generate_lubm

        config = LUBMConfig(departments=1)
        by_override = generate_lubm(config, seed=7)
        by_config = generate_lubm(LUBMConfig(departments=1, seed=7))
        assert serialize_ntriples(by_override, sort=True) == \
            serialize_ntriples(by_config, sort=True)

    def test_social_seed_override(self):
        from repro.rdf import serialize_ntriples
        from repro.workloads import SocialConfig, generate_social

        config = SocialConfig()
        by_override = generate_social(config, seed=11)
        by_config = generate_social(SocialConfig(seed=11))
        assert serialize_ntriples(by_override, sort=True) == \
            serialize_ntriples(by_config, sort=True)
