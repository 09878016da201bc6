"""Tests for graph saturation: fixpoint semantics, the two engines,
and the entailment/saturation connection of Section II-A."""

import pytest

from repro.rdf import Graph, Triple
from repro.rdf.namespaces import OWL, RDF, RDFS
from repro.reasoning import (RDFS_FULL, RDFS_PLUS, RHO_DF, entails,
                             has_meta_schema, is_saturated, saturate,
                             saturation_of)

from conftest import EX, random_rdfs_graph


class TestBasicSaturation:
    def test_tom_the_cat_is_a_mammal(self, paper_graph):
        """Section I's example: Tom is a cat, any cat is a mammal
        ⟹ Tom is a mammal."""
        saturated = saturation_of(paper_graph)
        assert Triple(EX.Tom, RDF.type, EX.Mammal) in saturated

    def test_anne_is_a_person(self, paper_graph):
        """Section II-A's example: domain typing of hasFriend."""
        saturated = saturation_of(paper_graph)
        assert Triple(EX.Anne, RDF.type, EX.Person) in saturated
        assert Triple(EX.Marie, RDF.type, EX.Person) in saturated

    def test_explicit_triples_preserved(self, paper_graph):
        saturated = saturation_of(paper_graph)
        for triple in paper_graph:
            assert triple in saturated

    def test_input_not_mutated_by_default(self, paper_graph):
        size = len(paper_graph)
        saturate(paper_graph)
        assert len(paper_graph) == size

    def test_in_place_mutates(self, paper_graph):
        result = saturate(paper_graph, in_place=True)
        assert result.graph is paper_graph
        assert len(paper_graph) == result.saturated_size

    def test_result_counters(self, paper_graph):
        result = saturate(paper_graph)
        assert result.base_size == 5
        assert result.inferred == len(result.graph) - 5
        assert result.blowup > 1.0
        assert result.rounds >= 1
        assert "saturation" in result.summary()

    def test_empty_graph(self):
        result = saturate(Graph())
        assert len(result.graph) == 0
        assert result.blowup == 1.0


class TestFixpointProperties:
    def test_saturation_is_idempotent(self, paper_graph):
        once = saturation_of(paper_graph)
        twice = saturation_of(once)
        assert once == twice

    def test_is_saturated_detects_fixpoint(self, paper_graph):
        assert not is_saturated(paper_graph)
        assert is_saturated(saturation_of(paper_graph))

    def test_saturation_is_monotone(self, paper_graph):
        smaller = saturation_of(paper_graph)
        bigger_input = paper_graph.copy()
        bigger_input.add(Triple(EX.Mammal, RDFS.subClassOf, EX.Animal))
        bigger = saturation_of(bigger_input)
        assert set(smaller) <= set(bigger)

    def test_entails_iff_in_saturation(self, paper_graph):
        """G ⊢RDF s p o  iff  s p o ∈ G∞ (Section II-A)."""
        saturated = saturation_of(paper_graph)
        assert entails(paper_graph, Triple(EX.Tom, RDF.type, EX.Mammal))
        assert not entails(paper_graph, Triple(EX.Tom, RDF.type, EX.Person))
        for triple in saturated:
            assert entails(paper_graph, triple)

    @pytest.mark.parametrize("seed", range(8))
    def test_engines_agree_on_random_graphs(self, seed):
        graph = random_rdfs_graph(seed, size=40)
        fast = saturate(graph, engine="schema-aware").graph
        generic = saturate(graph, engine="seminaive").graph
        assert fast == generic

    @pytest.mark.parametrize("seed", range(4))
    def test_random_saturations_are_fixpoints(self, seed):
        graph = random_rdfs_graph(seed + 100, size=35)
        assert is_saturated(saturation_of(graph))


class TestEngineSelection:
    def test_auto_picks_schema_aware_for_rhodf(self, paper_graph):
        assert saturate(paper_graph, RHO_DF).engine == "schema-aware"

    def test_auto_picks_seminaive_for_full(self, paper_graph):
        assert saturate(paper_graph, RDFS_FULL).engine == "seminaive"

    def test_schema_aware_rejects_other_rulesets(self, paper_graph):
        for ruleset in (RDFS_FULL, RDFS_PLUS):
            with pytest.raises(ValueError):
                saturate(paper_graph, ruleset, engine="schema-aware")

    def test_schema_aware_rejects_meta_schema(self):
        g = Graph()
        g.add(Triple(EX.typeLike, RDFS.subPropertyOf, RDF.type))
        with pytest.raises(ValueError):
            saturate(g, engine="schema-aware")

    def test_schema_aware_handles_cyclic_hierarchies(self):
        g = Graph()
        g.add(Triple(EX.A, RDFS.subClassOf, EX.B))
        g.add(Triple(EX.B, RDFS.subClassOf, EX.A))
        g.add(Triple(EX.x, RDF.type, EX.A))
        result = saturate(g, engine="schema-aware")
        assert Triple(EX.x, RDF.type, EX.B) in result.graph
        assert Triple(EX.A, RDFS.subClassOf, EX.A) in result.graph
        assert result.graph == saturate(g, engine="seminaive").graph

    def test_unknown_engine_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            saturate(paper_graph, engine="quantum")

    def test_meta_schema_detection(self):
        g = Graph()
        g.add(Triple(RDFS.subClassOf, RDFS.domain, RDFS.Class))
        assert has_meta_schema(g)
        clean = Graph()
        clean.add(Triple(EX.A, RDFS.subClassOf, EX.B))
        assert not has_meta_schema(clean)

    def test_meta_schema_routes_to_seminaive(self):
        g = Graph()
        g.add(Triple(EX.typeLike, RDFS.subPropertyOf, RDF.type))
        g.add(Triple(EX.a, EX.typeLike, EX.C))
        result = saturate(g)
        assert result.engine == "seminaive"
        assert Triple(EX.a, RDF.type, EX.C) in result.graph

    def test_schema_aware_refuses_meta_schema(self):
        g = Graph()
        g.add(Triple(EX.typeLike, RDFS.subPropertyOf, RDF.type))
        with pytest.raises(ValueError):
            saturate(g, engine="schema-aware")

    def test_max_rounds_caps_seminaive(self):
        g = Graph()
        for i in range(6):
            g.add(Triple(EX.term(f"L{i}"), RDFS.subClassOf, EX.term(f"L{i+1}")))
        frozen = saturate(g, engine="seminaive", max_rounds=0)
        assert frozen.graph == g  # zero rounds: nothing derived
        capped = saturate(g, engine="seminaive", max_rounds=1)
        full = saturate(g, engine="seminaive")
        # one round derives something but never more than the fixpoint
        assert len(g) < len(capped.graph) <= len(full.graph)


class TestRichRulesets:
    def test_full_rdfs_types_resources(self, paper_graph):
        saturated = saturation_of(paper_graph, RDFS_FULL)
        assert Triple(EX.Tom, RDF.type, RDFS.Resource) in saturated
        assert Triple(EX.hasFriend, RDF.type, RDF.Property) in saturated

    def test_full_rdfs_larger_than_rhodf(self, paper_graph):
        assert len(saturation_of(paper_graph, RDFS_FULL)) > \
            len(saturation_of(paper_graph, RHO_DF))

    def test_rdfs_plus_transitive_chain(self):
        g = Graph()
        g.add(Triple(EX.partOf, RDF.type, OWL.TransitiveProperty))
        for i in range(5):
            g.add(Triple(EX.term(f"n{i}"), EX.partOf, EX.term(f"n{i+1}")))
        saturated = saturation_of(g, RDFS_PLUS)
        assert Triple(EX.n0, EX.partOf, EX.n5) in saturated

    def test_rdfs_plus_sameas_propagates(self):
        g = Graph()
        g.add(Triple(EX.a, OWL.sameAs, EX.b))
        g.add(Triple(EX.a, EX.p, EX.o))
        saturated = saturation_of(g, RDFS_PLUS)
        assert Triple(EX.b, EX.p, EX.o) in saturated
        assert Triple(EX.b, OWL.sameAs, EX.a) in saturated

    def test_rdfs_plus_inverse_and_hierarchy_interact(self):
        g = Graph()
        g.add(Triple(EX.hasChild, OWL.inverseOf, EX.hasParent))
        g.add(Triple(EX.hasParent, RDFS.subPropertyOf, EX.relatedTo))
        g.add(Triple(EX.a, EX.hasChild, EX.b))
        saturated = saturation_of(g, RDFS_PLUS)
        assert Triple(EX.b, EX.hasParent, EX.a) in saturated
        assert Triple(EX.b, EX.relatedTo, EX.a) in saturated


class TestLUBMSaturation:
    def test_most_specific_types_expand(self, lubm_small):
        saturated = saturation_of(lubm_small)
        from repro.workloads.lubm import UNIV
        full_professors = set(lubm_small.subjects(RDF.type, UNIV.FullProfessor))
        assert full_professors
        for person in full_professors:
            assert Triple(person, RDF.type, UNIV.Professor) in saturated
            assert Triple(person, RDF.type, UNIV.Faculty) in saturated
            assert Triple(person, RDF.type, UNIV.Employee) in saturated
            assert Triple(person, RDF.type, UNIV.Person) in saturated

    def test_headof_implies_memberof(self, lubm_small):
        from repro.workloads.lubm import UNIV
        saturated = saturation_of(lubm_small)
        for triple in lubm_small.triples(None, UNIV.headOf, None):
            assert Triple(triple.s, UNIV.worksFor, triple.o) in saturated
            assert Triple(triple.s, UNIV.memberOf, triple.o) in saturated

    def test_blowup_in_plausible_range(self, lubm_small):
        result = saturate(lubm_small)
        assert 1.3 < result.blowup < 3.0
