"""Unit tests for the Schema model, closures and diagnostics."""

import pytest

from repro.rdf import Triple
from repro.rdf.namespaces import RDF, RDFS
from repro.schema import (Schema, hierarchy_depth, is_schema_triple,
                          strongly_connected_components, validate_schema)

from conftest import EX


@pytest.fixture
def schema():
    """C1 ⊑ C2 ⊑ C3; p1 ⊑ p2; dom(p2)=C2; rng(p2)=C3."""
    s = Schema()
    s.add(Triple(EX.C1, RDFS.subClassOf, EX.C2))
    s.add(Triple(EX.C2, RDFS.subClassOf, EX.C3))
    s.add(Triple(EX.p1, RDFS.subPropertyOf, EX.p2))
    s.add(Triple(EX.p2, RDFS.domain, EX.C2))
    s.add(Triple(EX.p2, RDFS.range, EX.C3))
    return s


class TestBasics:
    def test_is_schema_triple(self):
        assert is_schema_triple(Triple(EX.a, RDFS.subClassOf, EX.b))
        assert is_schema_triple(Triple(EX.p, RDFS.domain, EX.c))
        assert not is_schema_triple(Triple(EX.a, RDF.type, EX.b))
        assert not is_schema_triple(Triple(EX.a, EX.p, EX.b))

    def test_from_graph_extracts_only_schema(self, paper_graph):
        schema = Schema.from_graph(paper_graph)
        assert len(schema) == 3  # subClassOf + domain + range
        assert Triple(EX.Cat, RDFS.subClassOf, EX.Mammal) in schema

    def test_add_rejects_instance_triple(self):
        with pytest.raises(ValueError):
            Schema().add(Triple(EX.a, RDF.type, EX.b))

    def test_add_duplicate_returns_false(self, schema):
        assert not schema.add(Triple(EX.C1, RDFS.subClassOf, EX.C2))

    def test_remove(self, schema):
        assert schema.remove(Triple(EX.C1, RDFS.subClassOf, EX.C2))
        assert EX.C2 not in schema.superclasses(EX.C1)

    def test_remove_absent_returns_false(self, schema):
        assert not schema.remove(Triple(EX.C3, RDFS.subClassOf, EX.C1))

    def test_len_counts_constraints(self, schema):
        assert len(schema) == 5

    def test_contains(self, schema):
        assert Triple(EX.C1, RDFS.subClassOf, EX.C2) in schema
        assert Triple(EX.C2, RDFS.subClassOf, EX.C1) not in schema
        assert Triple(EX.a, EX.p, EX.b) not in schema

    def test_copy_independent(self, schema):
        clone = schema.copy()
        clone.add(Triple(EX.C3, RDFS.subClassOf, EX.C4))
        assert EX.C4 not in schema.superclasses(EX.C3)

    def test_triples_roundtrip(self, schema):
        rebuilt = Schema.from_triples(schema.triples())
        assert set(rebuilt.triples()) == set(schema.triples())


class TestClosures:
    def test_superclasses_transitive(self, schema):
        assert schema.superclasses(EX.C1) == {EX.C2, EX.C3}

    def test_superclasses_reflexive_option(self, schema):
        assert EX.C1 in schema.superclasses(EX.C1, reflexive=True)
        assert EX.C1 not in schema.superclasses(EX.C1)

    def test_subclasses_inverse(self, schema):
        assert schema.subclasses(EX.C3) == {EX.C1, EX.C2}

    def test_superproperties(self, schema):
        assert schema.superproperties(EX.p1) == {EX.p2}
        assert schema.subproperties(EX.p2) == {EX.p1}

    def test_unknown_term_has_empty_closures(self, schema):
        assert schema.superclasses(EX.Unknown) == frozenset()
        assert schema.subclasses(EX.Unknown) == frozenset()

    def test_cycle_includes_self(self):
        s = Schema()
        s.add(Triple(EX.A, RDFS.subClassOf, EX.B))
        s.add(Triple(EX.B, RDFS.subClassOf, EX.A))
        assert s.superclasses(EX.A) == {EX.A, EX.B}

    def test_cache_invalidated_on_add(self, schema):
        assert schema.superclasses(EX.C1) == {EX.C2, EX.C3}
        schema.add(Triple(EX.C3, RDFS.subClassOf, EX.C4))
        assert schema.superclasses(EX.C1) == {EX.C2, EX.C3, EX.C4}

    def test_cache_invalidated_on_remove(self, schema):
        assert EX.C3 in schema.superclasses(EX.C1)
        schema.remove(Triple(EX.C2, RDFS.subClassOf, EX.C3))
        assert schema.superclasses(EX.C1) == {EX.C2}


class TestEffectiveDomainsRanges:
    def test_effective_domains_include_superproperty_domains(self, schema):
        # p1 ⊑ p2, dom(p2)=C2, C2 ⊑ C3 ⟹ dom*(p1) = {C2, C3}
        assert schema.effective_domains(EX.p1) == {EX.C2, EX.C3}

    def test_effective_ranges(self, schema):
        assert schema.effective_ranges(EX.p1) == {EX.C3}
        assert schema.effective_ranges(EX.p2) == {EX.C3}

    def test_declared_domains_are_direct_only(self, schema):
        assert schema.domains(EX.p1) == frozenset()
        assert schema.domains(EX.p2) == {EX.C2}

    def test_properties_with_domain_inverse_of_effective(self, schema):
        # every property whose effective domain reaches C3
        assert schema.properties_with_domain(EX.C3) == {EX.p1, EX.p2}
        # C1 is below the declared domain: nothing reaches it
        assert schema.properties_with_domain(EX.C1) == frozenset()

    def test_properties_with_range(self, schema):
        assert schema.properties_with_range(EX.C3) == {EX.p1, EX.p2}
        assert schema.properties_with_range(EX.C2) == frozenset()

    def test_inverse_maps_agree_with_forward_maps(self, lubm_small):
        schema = Schema.from_graph(lubm_small)
        for cls in schema.classes():
            for prop in schema.properties_with_domain(cls):
                assert cls in schema.effective_domains(prop)
        for prop in schema.properties():
            for cls in schema.effective_domains(prop):
                assert prop in schema.properties_with_domain(cls)


class TestEnumeration:
    def test_classes(self, schema):
        assert schema.classes() == {EX.C1, EX.C2, EX.C3}

    def test_properties(self, schema):
        assert schema.properties() == {EX.p1, EX.p2}

    def test_closure_triples_contains_transitive_edges(self, schema):
        closure = set(schema.closure_triples())
        assert Triple(EX.C1, RDFS.subClassOf, EX.C3) in closure

    def test_closure_triples_reflexive_only_under_cycles(self, schema):
        closure = set(schema.closure_triples())
        assert Triple(EX.C1, RDFS.subClassOf, EX.C1) not in closure
        schema.add(Triple(EX.C3, RDFS.subClassOf, EX.C1))  # close a cycle
        closure = set(schema.closure_triples())
        assert Triple(EX.C1, RDFS.subClassOf, EX.C1) in closure

    def test_is_empty(self):
        assert Schema().is_empty()


class TestDiagnostics:
    def test_validate_clean_schema(self, schema):
        report = validate_schema(schema)
        assert not report.has_cycles
        assert report.class_count == 3
        assert report.property_count == 2
        assert report.class_depth == 2
        assert report.property_depth == 1

    def test_cycle_detection(self):
        s = Schema()
        s.add(Triple(EX.A, RDFS.subClassOf, EX.B))
        s.add(Triple(EX.B, RDFS.subClassOf, EX.A))
        report = validate_schema(s)
        assert report.class_cycles == [frozenset({EX.A, EX.B})]

    def test_self_loop_detected(self):
        s = Schema()
        s.add(Triple(EX.A, RDFS.subClassOf, EX.A))
        report = validate_schema(s)
        assert report.class_cycles == [frozenset({EX.A})]

    def test_dual_use_terms(self):
        s = Schema()
        s.add(Triple(EX.X, RDFS.subClassOf, EX.C))
        s.add(Triple(EX.X, RDFS.subPropertyOf, EX.p))
        assert EX.X in validate_schema(s).dual_use_terms

    def test_hierarchy_depth_with_cycle_does_not_hang(self):
        adjacency = {EX.A: {EX.B}, EX.B: {EX.A, EX.C}}
        assert hierarchy_depth(adjacency) >= 1

    def test_scc_on_long_chain_no_recursion_error(self):
        # deep chains must not blow the recursion limit (iterative Tarjan)
        chain = {EX.term(f"N{i}"): {EX.term(f"N{i + 1}")} for i in range(3000)}
        assert strongly_connected_components(chain) == []

    def test_property_cycle_detection(self):
        s = Schema()
        s.add(Triple(EX.p, RDFS.subPropertyOf, EX.q))
        s.add(Triple(EX.q, RDFS.subPropertyOf, EX.p))
        report = validate_schema(s)
        assert report.property_cycles == [frozenset({EX.p, EX.q})]
        assert report.has_cycles
        assert "subproperty cycles: 1" in report.summary()

    def test_disjoint_cycles_reported_separately(self):
        s = Schema()
        for a, b in [(EX.A, EX.B), (EX.B, EX.A), (EX.C, EX.D), (EX.D, EX.C)]:
            s.add(Triple(a, RDFS.subClassOf, b))
        report = validate_schema(s)
        assert sorted(report.class_cycles, key=sorted) == [
            frozenset({EX.A, EX.B}), frozenset({EX.C, EX.D})]

    def test_cycle_summary_mentions_count(self):
        s = Schema()
        s.add(Triple(EX.A, RDFS.subClassOf, EX.B))
        s.add(Triple(EX.B, RDFS.subClassOf, EX.A))
        assert "subclass cycles: 1" in validate_schema(s).summary()

    def test_dual_use_via_domain_constraint(self):
        # X is a property (it has a domain) and also a class (something
        # is declared a subclass of it)
        s = Schema()
        s.add(Triple(EX.X, RDFS.domain, EX.C))
        s.add(Triple(EX.D, RDFS.subClassOf, EX.X))
        report = validate_schema(s)
        assert EX.X in report.dual_use_terms
        assert "both class and property" in report.summary()

    def test_no_dual_use_in_clean_schema(self, schema):
        assert validate_schema(schema).dual_use_terms == frozenset()

    def test_summary_mentions_counts(self, schema):
        text = validate_schema(schema).summary()
        assert "classes: 3" in text
        assert "properties: 2" in text

    def test_lubm_schema_is_clean(self, lubm_small):
        report = validate_schema(Schema.from_graph(lubm_small))
        assert not report.has_cycles
        assert report.class_depth >= 3  # FullProfessor -> ... -> Person
