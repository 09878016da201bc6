"""Unit tests for the N-Triples and Turtle parsers/serializers."""

import pytest

from repro.rdf import (Graph, Triple, graph_from_ntriples, graph_from_turtle,
                       parse_ntriples, parse_ntriples_line, serialize_ntriples,
                       serialize_turtle)
from repro.rdf.namespaces import RDF, RDFS, XSD
from repro.rdf.ntriples import NTriplesError
from repro.rdf.terms import BlankNode, Literal, URI
from repro.rdf.turtle import TurtleError

from conftest import EX


class TestNTriplesParsing:
    def test_simple_triple(self):
        t = parse_ntriples_line("<http://a> <http://p> <http://b> .")
        assert t == Triple(URI("http://a"), URI("http://p"), URI("http://b"))

    def test_blank_nodes(self):
        t = parse_ntriples_line("_:b1 <http://p> _:b2 .")
        assert t == Triple(BlankNode("b1"), URI("http://p"), BlankNode("b2"))

    def test_plain_literal(self):
        t = parse_ntriples_line('<http://a> <http://p> "hello" .')
        assert t.o == Literal("hello")

    def test_language_literal(self):
        t = parse_ntriples_line('<http://a> <http://p> "bonjour"@fr .')
        assert t.o == Literal("bonjour", language="fr")

    def test_typed_literal(self):
        line = ('<http://a> <http://p> '
                '"5"^^<http://www.w3.org/2001/XMLSchema#integer> .')
        assert parse_ntriples_line(line).o == Literal("5", datatype=XSD.integer)

    def test_escapes_decoded(self):
        t = parse_ntriples_line('<http://a> <http://p> "line\\nbreak\\t\\"q\\"" .')
        assert t.o == Literal('line\nbreak\t"q"')

    def test_unicode_escapes(self):
        t = parse_ntriples_line('<http://a> <http://p> "\\u00e9" .')
        assert t.o == Literal("é")

    def test_trailing_comment_allowed(self):
        t = parse_ntriples_line("<http://a> <http://p> <http://b> . # note")
        assert t.p == URI("http://p")

    def test_malformed_raises_with_line_number(self):
        with pytest.raises(NTriplesError) as info:
            parse_ntriples_line("<http://a> <http://p> .", line_number=7)
        assert "line 7" in str(info.value)

    def test_document_skips_blanks_and_comments(self):
        doc = """
        # a comment

        <http://a> <http://p> <http://b> .
        <http://a> <http://p> "x" .
        """
        assert len(list(parse_ntriples(doc))) == 2

    def test_document_error_reports_line(self):
        doc = "<http://a> <http://p> <http://b> .\ngarbage here\n"
        with pytest.raises(NTriplesError) as info:
            list(parse_ntriples(doc))
        assert "line 2" in str(info.value)


class TestNTriplesRoundtrip:
    def test_roundtrip_preserves_graph(self, paper_graph):
        text = serialize_ntriples(paper_graph, sort=True)
        assert graph_from_ntriples(text) == paper_graph

    def test_sorted_output_is_canonical(self, paper_graph):
        text1 = serialize_ntriples(paper_graph, sort=True)
        shuffled = Graph()
        for t in reversed(sorted(paper_graph)):
            shuffled.add(t)
        text2 = serialize_ntriples(shuffled, sort=True)
        assert text1 == text2

    def test_roundtrip_special_characters(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, Literal('multi\nline "and quotes"\t\\')))
        assert graph_from_ntriples(serialize_ntriples(g)) == g


class TestTurtleParsing:
    def test_prefix_and_a_keyword(self):
        g = graph_from_turtle("""
        @prefix ex: <http://example.org/> .
        ex:Tom a ex:Cat .
        """)
        assert Triple(EX.Tom, RDF.type, EX.Cat) in g

    def test_sparql_style_prefix(self):
        g = graph_from_turtle("""
        PREFIX ex: <http://example.org/>
        ex:Tom a ex:Cat .
        """)
        assert len(g) == 1

    def test_predicate_and_object_lists(self):
        g = graph_from_turtle("""
        @prefix ex: <http://example.org/> .
        ex:a ex:p ex:b , ex:c ; ex:q ex:d .
        """)
        assert len(g) == 3
        assert Triple(EX.a, EX.p, EX.c) in g
        assert Triple(EX.a, EX.q, EX.d) in g

    def test_numeric_abbreviations(self):
        g = graph_from_turtle("""
        @prefix ex: <http://example.org/> .
        ex:a ex:age 42 ; ex:height 1.75 .
        """)
        assert Triple(EX.a, EX.age, Literal("42", datatype=XSD.integer)) in g
        assert Triple(EX.a, EX.height,
                      Literal("1.75", datatype=XSD.decimal)) in g

    def test_boolean_abbreviation(self):
        g = graph_from_turtle("""
        @prefix ex: <http://example.org/> .
        ex:a ex:flag true .
        """)
        assert Triple(EX.a, EX.flag, Literal("true", datatype=XSD.boolean)) in g

    def test_typed_literal_with_curie_datatype(self):
        g = graph_from_turtle("""
        @prefix ex: <http://example.org/> .
        ex:a ex:p "5"^^xsd:integer .
        """)
        assert Triple(EX.a, EX.p, Literal("5", datatype=XSD.integer)) in g

    def test_blank_node_labels(self):
        g = graph_from_turtle("""
        @prefix ex: <http://example.org/> .
        _:x ex:p _:y .
        """)
        assert Triple(BlankNode("x"), EX.p, BlankNode("y")) in g

    def test_rdfs_vocab_available_by_default(self):
        g = graph_from_turtle("""
        @prefix ex: <http://example.org/> .
        ex:Cat rdfs:subClassOf ex:Mammal .
        """)
        assert Triple(EX.Cat, RDFS.subClassOf, EX.Mammal) in g

    def test_comments_ignored(self):
        g = graph_from_turtle("""
        @prefix ex: <http://example.org/> . # prefix
        ex:a ex:p ex:b . # triple
        """)
        assert len(g) == 1

    def test_unknown_prefix_raises(self):
        with pytest.raises((TurtleError, KeyError)):
            graph_from_turtle("nope:a nope:p nope:b .")

    def test_literal_in_subject_raises(self):
        with pytest.raises(TurtleError):
            graph_from_turtle('"lit" <http://p> <http://o> .')

    def test_a_only_in_property_position(self):
        with pytest.raises(TurtleError):
            graph_from_turtle("@prefix ex: <http://example.org/> . a ex:p ex:b .")

    def test_garbage_raises(self):
        with pytest.raises(TurtleError):
            graph_from_turtle("@prefix ex: <http://example.org/> . ex:a ~~ ex:b .")


class TestTurtleRoundtrip:
    def test_roundtrip(self, paper_graph):
        text = serialize_turtle(paper_graph)
        assert graph_from_turtle(text) == paper_graph

    def test_serialized_uses_a_for_type(self, paper_graph):
        assert " a " in serialize_turtle(paper_graph)

    def test_rdf_type_as_object_not_abbreviated(self):
        g = Graph()
        g.add(Triple(EX.p, EX.about, RDF.type))
        text = serialize_turtle(g)
        assert graph_from_turtle(text) == g

    def test_lubm_roundtrip(self, lubm_small):
        text = serialize_turtle(lubm_small)
        assert graph_from_turtle(text) == lubm_small
