"""Tests for blank-node isomorphism — including the paper's claim that
saturation is unique up to blank node renaming."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rdf import (BlankNode, Graph, Triple, blank_node_bijection,
                       canonical_signatures, isomorphic)
from repro.rdf.namespaces import RDF, RDFS
from repro.reasoning import saturate

from conftest import EX

P, Q = EX.p, EX.q


def relabel(graph: Graph, mapping) -> Graph:
    result = Graph()
    for t in graph:
        s = mapping.get(t.s, t.s) if isinstance(t.s, BlankNode) else t.s
        o = mapping.get(t.o, t.o) if isinstance(t.o, BlankNode) else t.o
        result.add(Triple(s, t.p, o))
    return result


class TestIsomorphic:
    def test_equal_ground_graphs(self, paper_graph):
        assert isomorphic(paper_graph, paper_graph.copy())

    def test_different_ground_graphs(self, paper_graph):
        other = paper_graph.copy()
        other.add(Triple(EX.extra, P, EX.o))
        assert not isomorphic(paper_graph, other)

    def test_renamed_blanks_are_isomorphic(self):
        g = Graph([
            Triple(BlankNode("a"), P, BlankNode("b")),
            Triple(BlankNode("b"), Q, EX.o),
        ])
        renamed = relabel(g, {BlankNode("a"): BlankNode("x"),
                              BlankNode("b"): BlankNode("y")})
        assert isomorphic(g, renamed)
        assert g != renamed  # label-sensitive equality differs

    def test_structure_difference_detected(self):
        g1 = Graph([Triple(BlankNode("a"), P, BlankNode("b")),
                    Triple(BlankNode("b"), P, EX.o)])
        g2 = Graph([Triple(BlankNode("a"), P, BlankNode("b")),
                    Triple(BlankNode("a"), P, EX.o)])
        assert not isomorphic(g1, g2)

    def test_size_mismatch(self):
        g1 = Graph([Triple(BlankNode("a"), P, EX.o)])
        g2 = Graph([Triple(BlankNode("a"), P, EX.o),
                    Triple(BlankNode("a"), Q, EX.o)])
        assert not isomorphic(g1, g2)

    def test_blank_count_must_match(self):
        g1 = Graph([Triple(BlankNode("a"), P, BlankNode("a"))])
        g2 = Graph([Triple(BlankNode("a"), P, BlankNode("b"))])
        assert not isomorphic(g1, g2)

    def test_self_loop_vs_edge(self):
        loop = Graph([Triple(BlankNode("a"), P, BlankNode("a")),
                      Triple(BlankNode("b"), P, BlankNode("b"))])
        edge = Graph([Triple(BlankNode("a"), P, BlankNode("b")),
                      Triple(BlankNode("b"), P, BlankNode("a"))])
        assert not isomorphic(loop, edge)

    def test_automorphic_nodes_need_backtracking(self):
        # two interchangeable nodes plus one distinguished one
        g1 = Graph([Triple(BlankNode("a"), P, EX.o),
                    Triple(BlankNode("b"), P, EX.o),
                    Triple(BlankNode("c"), Q, EX.o)])
        g2 = Graph([Triple(BlankNode("x"), P, EX.o),
                    Triple(BlankNode("y"), P, EX.o),
                    Triple(BlankNode("z"), Q, EX.o)])
        mapping = blank_node_bijection(g1, g2)
        assert mapping is not None
        assert mapping[BlankNode("c")] == BlankNode("z")

    def test_cycle_of_blanks(self):
        def ring(labels):
            g = Graph()
            for i, label in enumerate(labels):
                nxt = labels[(i + 1) % len(labels)]
                g.add(Triple(BlankNode(label), P, BlankNode(nxt)))
            return g

        assert isomorphic(ring(["a", "b", "c"]), ring(["x", "y", "z"]))

    def test_bijection_is_bijective(self):
        g1 = Graph([Triple(BlankNode("a"), P, BlankNode("b"))])
        g2 = Graph([Triple(BlankNode("x"), P, BlankNode("y"))])
        mapping = blank_node_bijection(g1, g2)
        assert mapping == {BlankNode("a"): BlankNode("x"),
                           BlankNode("b"): BlankNode("y")}


class TestSignatures:
    def test_distinguishable_nodes_get_distinct_signatures(self):
        g = Graph([Triple(BlankNode("a"), P, EX.o),
                   Triple(BlankNode("b"), Q, EX.o)])
        signatures = canonical_signatures(g)
        assert signatures[BlankNode("a")] != signatures[BlankNode("b")]

    def test_symmetric_nodes_share_signatures(self):
        g = Graph([Triple(BlankNode("a"), P, EX.o),
                   Triple(BlankNode("b"), P, EX.o)])
        signatures = canonical_signatures(g)
        assert signatures[BlankNode("a")] == signatures[BlankNode("b")]

    def test_refinement_separates_by_neighbourhood(self):
        # a -> b -> ground; c -> d -> ground2: b and d differ via depth-2
        g = Graph([
            Triple(BlankNode("a"), P, BlankNode("b")),
            Triple(BlankNode("b"), P, EX.one),
            Triple(BlankNode("c"), P, BlankNode("d")),
            Triple(BlankNode("d"), P, EX.two),
        ])
        signatures = canonical_signatures(g)
        assert signatures[BlankNode("a")] != signatures[BlankNode("c")]


class TestLeanness:
    def test_ground_graph_is_lean(self, paper_graph):
        from repro.rdf import is_lean
        assert is_lean(paper_graph)

    def test_redundant_blank_is_not_lean(self):
        from repro.rdf import is_lean
        g = Graph([Triple(BlankNode("b"), P, EX.o), Triple(EX.s, P, EX.o)])
        assert not is_lean(g)

    def test_informative_blank_is_lean(self):
        from repro.rdf import is_lean
        g = Graph([Triple(BlankNode("b"), P, EX.other),
                   Triple(EX.s, P, EX.o)])
        assert is_lean(g)

    def test_blank_pair_subsumed_by_ground_edge(self):
        from repro.rdf import is_lean
        g = Graph([Triple(BlankNode("a"), P, BlankNode("b")),
                   Triple(EX.s, P, EX.o)])
        assert not is_lean(g)

    def test_single_blank_triple_is_lean(self):
        from repro.rdf import is_lean
        assert is_lean(Graph([Triple(BlankNode("b"), P, EX.o)]))

    def test_blank_mapping_to_blank(self):
        from repro.rdf import is_lean
        # _:a p o and _:b p o, _:b q x: _:a can map onto _:b -> non-lean
        g = Graph([Triple(BlankNode("a"), P, EX.o),
                   Triple(BlankNode("b"), P, EX.o),
                   Triple(BlankNode("b"), Q, EX.x)])
        assert not is_lean(g)

    def test_empty_graph_is_lean(self):
        from repro.rdf import is_lean
        assert is_lean(Graph())


class TestSaturationUniqueness:
    """Section II-A: 'The saturation of an RDF graph is unique (up to
    blank node renaming)'."""

    def test_saturations_with_blanks_are_isomorphic(self):
        g = Graph()
        g.add(Triple(BlankNode("r"), RDF.type, EX.Cat))
        g.add(Triple(EX.Cat, RDFS.subClassOf, EX.Mammal))
        g.add(Triple(BlankNode("r"), P, BlankNode("s")))
        g.add(Triple(P, RDFS.domain, EX.Agent))
        relabeled = relabel(g, {BlankNode("r"): BlankNode("u"),
                                BlankNode("s"): BlankNode("v")})
        assert isomorphic(saturate(g).graph, saturate(relabeled).graph)

    def test_engine_choice_does_not_change_saturation(self):
        g = Graph()
        g.add(Triple(BlankNode("r"), RDF.type, EX.Cat))
        g.add(Triple(EX.Cat, RDFS.subClassOf, EX.Mammal))
        a = saturate(g, engine="schema-aware").graph
        b = saturate(g, engine="seminaive").graph
        assert isomorphic(a, b)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10_000), st.permutations(list(range(5))))
    def test_property_relabeling_preserves_isomorphism(self, seed, perm):
        from random import Random
        rng = Random(seed)
        labels = [f"b{i}" for i in range(5)]
        g = Graph()
        for __ in range(10):
            s = BlankNode(rng.choice(labels))
            o = (BlankNode(rng.choice(labels)) if rng.random() < 0.5
                 else EX.term(f"g{rng.randint(0, 2)}"))
            g.add(Triple(s, rng.choice([P, Q]), o))
        mapping = {BlankNode(labels[i]): BlankNode(f"z{perm[i]}")
                   for i in range(5)}
        assert isomorphic(g, relabel(g, mapping))
