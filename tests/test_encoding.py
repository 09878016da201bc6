"""Unit tests for the semantic interval encoding layer.

Covers the pieces :mod:`repro.reasoning.encoding` is built from —
run coalescing, DFS interval assignment (trees, diamonds, cycle
residue), the dictionary remap bijection, the encoded graph view's
parity/caching/incremental-maintenance behavior, the fragmentation
report behind ``repro lint``'s SC110, and the schema-generation memo
that caches reformulation's ``atom_alternatives``.
"""

from repro.obs import measurement_window
from repro.rdf import Graph, Triple, TriplePattern as TP
from repro.rdf.namespaces import RDF, RDFS
from repro.rdf.terms import Variable as V
from repro.reasoning.encoding import (EncodedGraphView, IntervalAssignment,
                                      NodeFragmentation, SchemaEncoding,
                                      TermRemap, coalesce_ids, encoded_view,
                                      fragmentation_report,
                                      refresh_view_after_insert)
from repro.reasoning.reformulation import atom_alternatives, expand_bindings
from repro.schema import Schema
from repro.sparql.ast import BGPQuery

from conftest import EX


def schema_of(*triples: Triple) -> Schema:
    graph = Graph()
    graph.update(triples)
    return Schema.from_graph(graph)


def sub(a, b) -> Triple:
    return Triple(a, RDFS.subClassOf, b)


class TestCoalesceIds:
    def test_empty(self):
        assert coalesce_ids([]) == ()

    def test_single(self):
        assert coalesce_ids([7]) == ((7, 8),)

    def test_contiguous(self):
        assert coalesce_ids([3, 4, 5]) == ((3, 6),)

    def test_gaps(self):
        assert coalesce_ids([3, 4, 5, 9]) == ((3, 6), (9, 10))

    def test_fully_scattered(self):
        assert coalesce_ids([1, 3, 5]) == ((1, 2), (3, 4), (5, 6))


class TestIntervalAssignment:
    def test_tree_closures_are_single_runs(self):
        # A over B over {D, E}, A over C: every closure one interval
        schema = schema_of(sub(EX.B, EX.A), sub(EX.C, EX.A),
                           sub(EX.D, EX.B), sub(EX.E, EX.B))
        assignment = IntervalAssignment.build(
            schema.classes(), schema, RDFS.subClassOf)
        assert set(assignment.order) == schema.classes()
        assert not assignment.multi_parent
        for node in schema.classes():
            members, runs = assignment.fragmentation(
                node, schema.subclasses(node, reflexive=True))
            assert runs == 1, node

    def test_diamond_records_multi_parent(self):
        schema = schema_of(sub(EX.B, EX.A), sub(EX.C, EX.A),
                           sub(EX.D, EX.B), sub(EX.D, EX.C))
        assignment = IntervalAssignment.build(
            schema.classes(), schema, RDFS.subClassOf)
        assert assignment.multi_parent == {EX.D}
        # D keeps exactly one position
        assert len(assignment.order) == len(set(assignment.order)) == 4

    def test_multiple_inheritance_fragments(self):
        # C's closure {C, D, E} is split by F sitting inside B's run
        schema = schema_of(sub(EX.B, EX.A), sub(EX.C, EX.A),
                           sub(EX.D, EX.B), sub(EX.D, EX.C),
                           sub(EX.E, EX.B), sub(EX.E, EX.C),
                           sub(EX.F, EX.B))
        assignment = IntervalAssignment.build(
            schema.classes(), schema, RDFS.subClassOf)
        members, runs = assignment.fragmentation(
            EX.C, schema.subclasses(EX.C, reflexive=True))
        assert members == 3 and runs > 1

    def test_cycle_residue_still_numbered(self):
        # B and C subclass each other with no root above them
        schema = schema_of(sub(EX.B, EX.C), sub(EX.C, EX.B))
        assignment = IntervalAssignment.build(
            schema.classes(), schema, RDFS.subClassOf)
        assert set(assignment.order) == {EX.B, EX.C}

    def test_deterministic_order(self):
        triples = (sub(EX.B, EX.A), sub(EX.C, EX.A), sub(EX.D, EX.B))
        one = IntervalAssignment.build(
            schema_of(*triples).classes(), schema_of(*triples),
            RDFS.subClassOf)
        two = IntervalAssignment.build(
            schema_of(*reversed(triples)).classes(),
            schema_of(*reversed(triples)), RDFS.subClassOf)
        assert one.order == two.order


class TestTermRemap:
    def _graph(self):
        graph = Graph()
        graph.update([
            Triple(EX.i1, EX.p, EX.i2),  # interns instances first
            sub(EX.B, EX.A), sub(EX.C, EX.A),
            Triple(EX.i1, RDF.type, EX.B),
        ])
        return graph

    def test_bijection(self):
        graph = self._graph()
        encoding = SchemaEncoding.build(Schema.from_graph(graph))
        remap = TermRemap.build(encoding, graph.dictionary)
        size = len(graph.dictionary)
        assert len(remap) == size
        assert sorted(remap.old_to_new) == list(range(size))
        assert sorted(remap.new_to_old) == list(range(size))
        for old in range(size):
            assert remap.new_to_old[remap.old_to_new[old]] == old

    def test_hierarchy_terms_lead_in_preorder(self):
        graph = self._graph()
        encoding = SchemaEncoding.build(Schema.from_graph(graph))
        remap = TermRemap.build(encoding, graph.dictionary)
        lookup = graph.dictionary.lookup
        new_ids = [remap.old_to_new[lookup(term)]
                   for term in encoding.classes.order]
        assert new_ids == list(range(len(new_ids)))

    def test_extend_identity(self):
        graph = self._graph()
        encoding = SchemaEncoding.build(Schema.from_graph(graph))
        remap = TermRemap.build(encoding, graph.dictionary)
        size = len(remap)
        remap.extend_identity(size + 3)
        assert len(remap) == size + 3
        for new in range(size, size + 3):
            assert remap.old_to_new[new] == new == remap.new_to_old[new]


class TestEncodedGraphView:
    def _graph(self, backend="columnar"):
        graph = Graph(backend=backend)
        graph.update([
            sub(EX.B, EX.A), sub(EX.C, EX.A),
            Triple(EX.i1, RDF.type, EX.B),
            Triple(EX.i2, RDF.type, EX.C),
            Triple(EX.i1, EX.p, EX.i2),
        ])
        return graph

    def test_triple_parity(self):
        graph = self._graph()
        view = EncodedGraphView.build(graph)
        assert len(view) == len(graph)
        decode = view.dictionary.decode
        decoded = {Triple(decode(s), decode(p), decode(o))
                   for s, p, o in view.index}
        assert decoded == set(graph)

    def test_count_parity(self):
        graph = self._graph()
        view = EncodedGraphView.build(graph)
        assert view.count(None, RDF.type, EX.B) == 1
        assert view.count(EX.i1, None, None) == 2
        assert view.count(None, None, None) == len(graph)
        assert view.count(None, RDF.type, EX.nowhere) == 0

    def test_view_is_cached_per_version(self):
        graph = self._graph()
        assert encoded_view(graph) is encoded_view(graph)

    def test_mutation_invalidates(self):
        graph = self._graph()
        before = encoded_view(graph)
        graph.add(sub(EX.D, EX.A))
        after = encoded_view(graph)
        assert after is not before
        assert after.count(None, RDFS.subClassOf, EX.A) == 3

    def test_refresh_after_instance_insert(self):
        graph = self._graph()
        view = encoded_view(graph)
        batch = [Triple(EX.i3, RDF.type, EX.B)]
        graph.update(batch)
        assert refresh_view_after_insert(graph, batch)
        # same object, republished at the new version, new triple seen
        assert encoded_view(graph) is view
        assert view.count(EX.i3, RDF.type, EX.B) == 1

    def test_refresh_declines_schema_batches(self):
        graph = self._graph()
        encoded_view(graph)
        batch = [sub(EX.D, EX.B)]
        graph.update(batch)
        assert not refresh_view_after_insert(graph, batch)

    def test_refresh_without_view_is_noop(self):
        graph = self._graph()
        assert not refresh_view_after_insert(
            graph, [Triple(EX.i9, RDF.type, EX.B)])

    def test_hash_source_also_encodes(self):
        view = EncodedGraphView.build(self._graph(backend="hash"))
        assert view.backend == "columnar"
        assert view.count(None, RDF.type, EX.B) == 1


class TestFragmentationReport:
    def test_tree_reports_nothing(self):
        schema = schema_of(sub(EX.B, EX.A), sub(EX.C, EX.A),
                           sub(EX.D, EX.B))
        assert fragmentation_report(schema) == []

    def test_fragmenting_schema_reported(self):
        schema = schema_of(sub(EX.B, EX.A), sub(EX.C, EX.A),
                           sub(EX.D, EX.B), sub(EX.D, EX.C),
                           sub(EX.E, EX.B), sub(EX.E, EX.C),
                           sub(EX.F, EX.B))
        report = fragmentation_report(schema)
        assert [entry.term for entry in report] == [EX.C]
        entry = report[0]
        assert isinstance(entry, NodeFragmentation)
        assert entry.kind == "class"
        assert entry.member_count == 3 and entry.run_count == 2
        assert entry.degenerate  # 2 runs > 3 // 2

    def test_degenerate_threshold(self):
        assert NodeFragmentation("class", EX.A, 8, 2).degenerate is False
        assert NodeFragmentation("class", EX.A, 8, 5).degenerate is True
        assert NodeFragmentation("class", EX.A, 1, 1).degenerate is False

    def test_property_hierarchy_covered(self):
        graph = Graph()
        graph.update([
            Triple(EX.q1, RDFS.subPropertyOf, EX.p),
            Triple(EX.q2, RDFS.subPropertyOf, EX.p),
            Triple(EX.r, RDFS.subPropertyOf, EX.q1),
            Triple(EX.r, RDFS.subPropertyOf, EX.q2),
            Triple(EX.s, RDFS.subPropertyOf, EX.q1),
            Triple(EX.s, RDFS.subPropertyOf, EX.q2),
            Triple(EX.t, RDFS.subPropertyOf, EX.q1),
        ])
        report = fragmentation_report(Schema.from_graph(graph))
        assert any(entry.kind == "property" for entry in report)


class TestSchemaMemo:
    def test_atom_alternatives_cached_until_schema_change(self):
        schema = schema_of(sub(EX.B, EX.A))
        atom = TP(V("x"), RDF.type, EX.A)
        with measurement_window() as (registry, __):
            first = atom_alternatives(atom, schema)
            second = atom_alternatives(atom, schema)
            assert first == second
            assert registry.counter(
                "reformulation.rewrite_cache_hits").value == 1
        generation = schema.generation
        schema.add(sub(EX.C, EX.A))
        assert schema.generation > generation
        assert len(atom_alternatives(atom, schema)) == len(first) + 1

    def test_expand_bindings_cached(self):
        schema = schema_of(sub(EX.B, EX.A))
        query = BGPQuery([TP(V("x"), V("p"), V("y"))])
        with measurement_window() as (registry, __):
            first = expand_bindings(query, schema)
            second = expand_bindings(query, schema)
            assert first == second
            assert registry.counter(
                "reformulation.rewrite_cache_hits").value >= 1

    def test_cached_lists_are_fresh_copies(self):
        schema = schema_of(sub(EX.B, EX.A))
        atom = TP(V("x"), RDF.type, EX.A)
        first = atom_alternatives(atom, schema)
        first.append("sentinel")
        assert "sentinel" not in atom_alternatives(atom, schema)


class TestObsCounters:
    def test_range_and_member_scan_counters(self):
        graph = Graph(backend="columnar")
        graph.update([
            sub(EX.B, EX.A), sub(EX.C, EX.A),
            Triple(EX.i1, RDF.type, EX.B),
            Triple(EX.i2, RDF.type, EX.C),
        ])
        from repro.reasoning import reformulate
        from repro.sparql.evaluator import evaluate_reformulation

        query = BGPQuery([TP(V("x"), RDF.type, EX.A)],
                         distinguished=(V("x"),))
        closed = graph.copy()
        closed.update(Schema.from_graph(graph).closure_triples())
        ref = reformulate(query, Schema.from_graph(graph))
        with measurement_window() as (registry, __):
            got = evaluate_reformulation(closed, ref, strategy="encoded")
            assert len(got) == 2
            assert registry.counter("encoding.range_scans").value > 0

        hash_closed = closed.to_backend("hash")
        with measurement_window() as (registry, __):
            got = evaluate_reformulation(hash_closed, ref, strategy="encoded")
            assert len(got) == 2
            assert registry.counter("encoding.hash_fallbacks").value == 1
            assert registry.counter("encoding.member_scans").value > 0
