"""Robustness tests for the parsers: unicode, escapes, odd-but-legal
inputs, and hostile garbage.  A parser used to ingest third-party
endpoint dumps (Section I) must fail loudly on bad input and never
mis-parse good input."""

import pytest

from repro.rdf import (Graph, Literal, Triple, URI, graph_from_ntriples,
                       graph_from_turtle, serialize_ntriples,
                       serialize_turtle)
from repro.rdf.namespaces import XSD
from repro.rdf.ntriples import NTriplesError, parse_ntriples_line
from repro.rdf.turtle import TurtleError
from repro.sparql import parse_query

from conftest import EX


class TestUnicode:
    def test_unicode_literal_roundtrip(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, Literal("héllo wörld — ünïcode ✓ 日本語")))
        assert graph_from_ntriples(serialize_ntriples(g)) == g
        assert graph_from_turtle(serialize_turtle(g)) == g

    def test_unicode_escape_forms(self):
        line = '<http://a> <http://p> "caf\\u00e9 \\U0001F600" .'
        t = parse_ntriples_line(line)
        assert t.o == Literal("café 😀")

    def test_unicode_in_uri(self):
        g = Graph()
        g.add(Triple(URI("http://example.org/café"), EX.p, EX.o))
        assert graph_from_ntriples(serialize_ntriples(g)) == g


class TestEscapeEdgeCases:
    def test_all_simple_escapes(self):
        lexical = 'tab\there\nnewline\rreturn "quote" back\\slash'
        g = Graph([Triple(EX.a, EX.p, Literal(lexical))])
        assert graph_from_ntriples(serialize_ntriples(g)) == g

    def test_dangling_escape_rejected(self):
        with pytest.raises(NTriplesError):
            parse_ntriples_line('<http://a> <http://p> "bad\\" .')

    def test_unknown_escape_rejected(self):
        with pytest.raises(NTriplesError):
            parse_ntriples_line('<http://a> <http://p> "bad\\x41" .')

    def test_quote_inside_literal_in_turtle(self):
        g = graph_from_turtle(
            '@prefix ex: <http://example.org/> .\n'
            'ex:a ex:p "say \\"hi\\"" .')
        assert Triple(EX.a, EX.p, Literal('say "hi"')) in g


class TestOddButLegal:
    def test_empty_literal(self):
        g = Graph([Triple(EX.a, EX.p, Literal(""))])
        assert graph_from_ntriples(serialize_ntriples(g)) == g

    def test_literal_that_looks_like_a_uri(self):
        g = Graph([Triple(EX.a, EX.p, Literal("<http://not-a-uri>"))])
        assert graph_from_ntriples(serialize_ntriples(g)) == g

    def test_literal_that_looks_like_turtle_syntax(self):
        g = Graph([Triple(EX.a, EX.p, Literal("ex:b ; ex:c , . a"))])
        assert graph_from_turtle(serialize_turtle(g)) == g

    def test_numeric_looking_plain_literal_distinct_from_typed(self):
        plain = Literal("42")
        typed = Literal("42", datatype=XSD.integer)
        g = Graph([Triple(EX.a, EX.p, plain), Triple(EX.a, EX.p, typed)])
        assert len(g) == 2
        assert graph_from_ntriples(serialize_ntriples(g)) == g

    def test_same_subject_many_predicates_turtle(self):
        parts = " ; ".join(f"ex:p{i} ex:o{i}" for i in range(30))
        g = graph_from_turtle(
            f"@prefix ex: <http://example.org/> .\nex:s {parts} .")
        assert len(g) == 30

    def test_long_object_list(self):
        objects = " , ".join(f"ex:o{i}" for i in range(40))
        g = graph_from_turtle(
            f"@prefix ex: <http://example.org/> .\nex:s ex:p {objects} .")
        assert len(g) == 40

    def test_language_tag_with_subtag(self):
        t = parse_ntriples_line('<http://a> <http://p> "colour"@en-GB .')
        assert t.o == Literal("colour", language="en-gb")

    def test_crlf_line_endings(self):
        text = ("<http://a> <http://p> <http://b> .\r\n"
                "<http://a> <http://p> <http://c> .\r\n")
        assert len(graph_from_ntriples(text)) == 2


class TestHostileInput:
    @pytest.mark.parametrize("bad", [
        "<http://a> <http://p> .",                  # missing object
        "<http://a> <http://p> <http://b>",          # missing dot
        "http://a <http://p> <http://b> .",          # unbracketed uri
        '<http://a> "p" <http://b> .',               # literal property
        '"lit" <http://p> <http://b> .',             # literal subject
        "<http://a> <http://p> <http://b> <http://c> .",  # quad
    ])
    def test_ntriples_garbage_rejected(self, bad):
        with pytest.raises(NTriplesError):
            parse_ntriples_line(bad)

    @pytest.mark.parametrize("bad", [
        "ex:a ex:p ex:b",               # unbound prefix, missing dot too
        "@prefix ex <http://x/> .",     # missing colon
        "@prefix ex: <http://x/> . ex:a ex:p .",   # incomplete triple
        "@prefix ex: <http://x/> . ex:a 42 ex:b .",  # numeric property
    ])
    def test_turtle_garbage_rejected(self, bad):
        with pytest.raises((TurtleError, KeyError)):
            graph_from_turtle(bad)

    def test_sparql_injectionish_literal_is_data(self):
        """A literal containing '} UNION' must stay one literal."""
        q = parse_query(
            'PREFIX ex: <http://example.org/> '
            'SELECT ?x WHERE { ?x ex:p "} SELECT ?y WHERE {" }')
        assert len(q.patterns) == 1
        assert q.patterns[0].o == Literal("} SELECT ?y WHERE {")

    def test_deeply_nested_not_applicable_but_long_input_ok(self):
        triples = "\n".join(
            f"<http://s{i}> <http://p> <http://o{i}> ." for i in range(5000))
        assert len(graph_from_ntriples(triples)) == 5000


class TestNTriplesDiagnostics:
    def test_error_reports_line_number_and_content(self):
        text = ("<http://a> <http://p> <http://b> .\n"
                "\n"
                "# a comment\n"
                "<http://a> <http://p> garbage .\n")
        with pytest.raises(NTriplesError) as err:
            graph_from_ntriples(text)
        assert err.value.line_number == 4
        assert "line 4" in str(err.value)
        assert "garbage" in str(err.value)

    def test_error_attributes_survive(self):
        with pytest.raises(NTriplesError) as err:
            graph_from_ntriples("<http://a> <http://p> .\n")
        assert err.value.line_number == 1
        assert err.value.line == "<http://a> <http://p> ."

    def test_trailing_comment_after_triple(self):
        g = graph_from_ntriples(
            "<http://a> <http://p> <http://b> . # trailing comment\n")
        assert len(g) == 1

    def test_blank_node_labels(self):
        from repro.rdf import BlankNode

        t = parse_ntriples_line("_:b1 <http://p> _:b2.x .")
        assert t.s == BlankNode("b1")
        assert t.o == BlankNode("b2.x")

    def test_blank_node_label_may_start_with_digit(self):
        t = parse_ntriples_line("_:0against <http://p> <http://o> .")
        assert t.s.label == "0against"

    def test_unicode_escape_in_uri(self):
        t = parse_ntriples_line("<http://x/caf\\u00e9> <http://p> <http://o> .")
        assert t.s == URI("http://x/café")

    def test_blank_and_comment_only_document(self):
        assert len(graph_from_ntriples("\n\n# nothing here\n  \n")) == 0

    @pytest.mark.parametrize("bad", [
        '<http://a> <http://p> "unterminated .',
        '<http://a> <http://p> "lit"@ .',        # empty language tag
        '<http://a> <http://p> "lit"^^ .',       # missing datatype uri
        "_:b:ad <http://p> <http://o> .",        # colon in blank label
    ])
    def test_more_garbage_rejected(self, bad):
        with pytest.raises(NTriplesError):
            parse_ntriples_line(bad)


class TestTurtleDiagnostics:
    def test_error_reports_offset(self):
        with pytest.raises(TurtleError) as err:
            graph_from_turtle("@prefix ex: <http://x/> .\nex:a ex:p ??? .")
        assert "offset" in str(err.value)

    def test_comments_between_statements(self):
        g = graph_from_turtle(
            "# leading comment\n"
            "@prefix ex: <http://x/> . # after directive\n"
            "ex:a ex:p ex:b . # after triple\n"
            "# trailing comment")
        assert len(g) == 1

    def test_sparql_style_prefix(self):
        g = graph_from_turtle(
            "PREFIX ex: <http://example.org/>\nex:a ex:p ex:b .")
        assert Triple(EX.a, EX.p, EX.b) in g

    def test_sparql_style_prefix_case_insensitive(self):
        g = graph_from_turtle(
            "prefix ex: <http://example.org/>\nex:a ex:p ex:b .")
        assert Triple(EX.a, EX.p, EX.b) in g

    def test_unicode_escape_in_literal(self):
        g = graph_from_turtle(
            '@prefix ex: <http://example.org/> .\nex:a ex:p "caf\\u00e9" .')
        assert Triple(EX.a, EX.p, Literal("café")) in g

    def test_blank_nodes(self):
        from repro.rdf import BlankNode

        g = graph_from_turtle(
            "@prefix ex: <http://example.org/> .\n_:x ex:p _:y .")
        assert Triple(BlankNode("x"), EX.p, BlankNode("y")) in g

    @pytest.mark.parametrize("bad", [
        '@prefix ex: <http://x/> . ex:a ex:p "unterminated .',
        "@prefix ex: <http://x/> . ex:a ex:p ex:b ,, ex:c .",
        "@prefix ex: <http://x/> . ex:a ex:p ex:b ; ; .",
    ])
    def test_more_turtle_garbage_rejected(self, bad):
        with pytest.raises(TurtleError):
            graph_from_turtle(bad)
