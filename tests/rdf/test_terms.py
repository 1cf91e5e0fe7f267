"""Unit tests for the RDF term model."""

import pytest

from repro.rdf import BNode, Literal, URI
from repro.rdf.terms import XSD_BOOLEAN, XSD_DOUBLE, XSD_INTEGER, XSD_STRING


class TestURI:
    def test_construction_and_value(self):
        uri = URI("http://example.org/Person")
        assert uri.value == "http://example.org/Person"
        assert str(uri) == "http://example.org/Person"

    def test_equality_and_hash(self):
        assert URI("http://a") == URI("http://a")
        assert URI("http://a") != URI("http://b")
        assert hash(URI("http://a")) == hash(URI("http://a"))
        assert len({URI("http://a"), URI("http://a")}) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            URI("")

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            URI(42)  # type: ignore[arg-type]

    @pytest.mark.parametrize("bad", ["http://a b", "http://a<b", "http://a\nb"])
    def test_rejects_invalid_characters(self, bad):
        with pytest.raises(ValueError):
            URI(bad)

    def test_forbidden_set_is_exactly_the_listed_characters(self):
        """The accepted set, character by character: ``<>"{}|^```, and
        everything from NUL to the space, at any position; nothing else
        below U+3000 (the backslash and DEL included)."""
        forbidden = set('<>"{}|^`') | {chr(code) for code in range(0x21)}
        for code in range(0x3000):
            char = chr(code)
            for value in (char, "http://a/" + char, char + "b", f"a{char}b"):
                if char in forbidden:
                    with pytest.raises(ValueError):
                        URI(value)
                else:
                    assert URI(value).value == value

    def test_immutable(self):
        uri = URI("http://a")
        with pytest.raises(AttributeError):
            uri.value = "http://b"  # type: ignore[misc]

    def test_n3(self):
        assert URI("http://a").n3() == "<http://a>"

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("http://dbpedia.org/ontology/Person", "Person"),
            ("http://www.w3.org/2002/07/owl#Thing", "Thing"),
            ("urn:isbn:123", "123"),
        ],
    )
    def test_local_name(self, value, expected):
        assert URI(value).local_name == expected

    def test_namespace(self):
        assert URI("http://x.org/ns#A").namespace == "http://x.org/ns#"
        assert URI("http://x.org/ns/A").namespace == "http://x.org/ns/"

    def test_ordering_before_literals(self):
        assert URI("http://z") < Literal("a")


class TestBNode:
    def test_explicit_id(self):
        node = BNode("b1")
        assert node.id == "b1"
        assert node.n3() == "_:b1"

    def test_fresh_ids_are_unique(self):
        assert BNode().id != BNode().id

    def test_equality(self):
        assert BNode("x") == BNode("x")
        assert BNode("x") != BNode("y")

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            BNode("")

    def test_orders_between_uris_and_literals(self):
        assert URI("http://a") < BNode("a") < Literal("a")


class TestLiteral:
    def test_plain_string(self):
        lit = Literal("hello")
        assert lit.lexical == "hello"
        assert lit.datatype is None
        assert lit.language is None

    def test_language_tag_lowercased(self):
        lit = Literal("Hallo", language="DE")
        assert lit.language == "de"
        assert lit.n3() == '"Hallo"@de'

    def test_rejects_bad_language(self):
        with pytest.raises(ValueError):
            Literal("x", language="not a tag!")

    def test_rejects_language_plus_datatype(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=XSD_STRING, language="en")

    def test_from_int(self):
        lit = Literal(42)
        assert lit.lexical == "42"
        assert lit.datatype == XSD_INTEGER
        assert lit.is_numeric
        assert lit.to_python() == 42

    def test_from_float(self):
        lit = Literal(2.5)
        assert lit.datatype == XSD_DOUBLE
        assert lit.to_python() == 2.5

    def test_from_bool(self):
        assert Literal(True).lexical == "true"
        assert Literal(False).datatype == XSD_BOOLEAN
        assert Literal(True).to_python() is True

    def test_rejects_unsupported_type(self):
        with pytest.raises(TypeError):
            Literal([1, 2])  # type: ignore[arg-type]

    def test_n3_escaping(self):
        lit = Literal('say "hi"\nplease\t!')
        assert lit.n3() == '"say \\"hi\\"\\nplease\\t!"'

    def test_n3_with_datatype(self):
        assert Literal("5", datatype=XSD_INTEGER).n3().endswith("#integer>")

    def test_xsd_string_datatype_suppressed_in_n3(self):
        assert Literal("a", datatype=XSD_STRING).n3() == '"a"'

    def test_equality_is_exact(self):
        assert Literal("5", datatype=XSD_INTEGER) != Literal("5")
        assert Literal("a", language="en") != Literal("a")
        assert Literal("a") == Literal("a")

    def test_datatype_uri_accepted(self):
        from repro.rdf import URI as UriTerm

        lit = Literal("5", datatype=UriTerm(XSD_INTEGER))
        assert lit.datatype == XSD_INTEGER

    def test_to_python_bad_lexical_falls_back(self):
        assert Literal("abc", datatype=XSD_INTEGER).to_python() == "abc"
