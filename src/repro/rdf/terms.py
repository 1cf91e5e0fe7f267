"""RDF term model: URIs, literals, and blank nodes.

The paper's formal model (Section 2) assumes infinite collections **U** of
URIs and **L** of literals; an RDF triple is an element of
``U x U x (U ∪ L)``.  We additionally support blank nodes, which occur in
real Linked Data even though the formal model elides them.

Terms are immutable, hashable, and totally ordered (URIs < BNodes <
Literals, then lexicographically) so that charts, query results, and
serialisations are deterministic.
"""

from __future__ import annotations

import re
import threading
from typing import Union

__all__ = [
    "Term",
    "URI",
    "BNode",
    "Literal",
    "Subject",
    "Predicate",
    "RDFObject",
    "XSD_STRING",
    "XSD_INTEGER",
    "XSD_DECIMAL",
    "XSD_DOUBLE",
    "XSD_BOOLEAN",
    "LANG_STRING",
]

_XSD = "http://www.w3.org/2001/XMLSchema#"
_RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

# Sort keys used to order term kinds deterministically.
_KIND_URI = 0
_KIND_BNODE = 1
_KIND_LITERAL = 2


class Term:
    """Abstract base class for RDF terms."""

    __slots__ = ()

    #: Kind tag used for cross-type ordering; set by subclasses.
    _kind: int = -1

    def sort_key(self) -> tuple:
        """Return a tuple usable to totally order heterogeneous terms."""
        raise NotImplementedError

    def n3(self) -> str:
        """Return the N-Triples / Turtle serialisation of this term."""
        raise NotImplementedError

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() >= other.sort_key()


#: Finds a character no URI may hold: ``<>"{}|^``, the backtick, and
#: anything at or below the space.
_URI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`]').search


class URI(Term):
    """A Unique Resource Identifier (an element of **U**)."""

    __slots__ = ("value", "_hash", "_sort_key")
    _kind = _KIND_URI

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise TypeError(f"URI value must be str, got {type(value).__name__}")
        if not value:
            raise ValueError("URI value must be non-empty")
        if _URI_FORBIDDEN(value):
            raise ValueError(f"invalid characters in URI: {value!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((_KIND_URI, value)))
        object.__setattr__(self, "_sort_key", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("URI is immutable")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, URI):
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"URI({self.value!r})"

    def __str__(self) -> str:
        return self.value

    def n3(self) -> str:
        return f"<{self.value}>"

    def sort_key(self) -> tuple:
        key = self._sort_key
        if key is None:
            key = (_KIND_URI, self.value)
            object.__setattr__(self, "_sort_key", key)
        return key

    @property
    def local_name(self) -> str:
        """The fragment or last path segment, e.g. ``Person`` for
        ``http://dbpedia.org/ontology/Person``."""
        value = self.value
        for sep in ("#", "/", ":"):
            idx = value.rfind(sep)
            if 0 <= idx < len(value) - 1:
                return value[idx + 1 :]
        return value

    @property
    def namespace(self) -> str:
        """Everything up to and including the last ``#`` or ``/``."""
        value = self.value
        for sep in ("#", "/"):
            idx = value.rfind(sep)
            if idx >= 0:
                return value[: idx + 1]
        return value


_bnode_lock = threading.Lock()
_bnode_counter = 0


def _next_bnode_id() -> str:
    global _bnode_counter
    with _bnode_lock:
        _bnode_counter += 1
        return f"b{_bnode_counter}"


class BNode(Term):
    """A blank node with a local identifier."""

    __slots__ = ("id", "_hash", "_sort_key")
    _kind = _KIND_BNODE

    def __init__(self, id: str | None = None):
        if id is None:
            id = _next_bnode_id()
        if not isinstance(id, str) or not id:
            raise ValueError("BNode id must be a non-empty string")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "_hash", hash((_KIND_BNODE, id)))
        object.__setattr__(self, "_sort_key", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BNode is immutable")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BNode):
            return self.id == other.id
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BNode({self.id!r})"

    def __str__(self) -> str:
        return f"_:{self.id}"

    def n3(self) -> str:
        return f"_:{self.id}"

    def sort_key(self) -> tuple:
        key = self._sort_key
        if key is None:
            key = (_KIND_BNODE, self.id)
            object.__setattr__(self, "_sort_key", key)
        return key


XSD_STRING = f"{_XSD}string"
XSD_INTEGER = f"{_XSD}integer"
XSD_DECIMAL = f"{_XSD}decimal"
XSD_DOUBLE = f"{_XSD}double"
XSD_BOOLEAN = f"{_XSD}boolean"
LANG_STRING = f"{_RDF}langString"

_NUMERIC_DATATYPES = frozenset(
    {
        XSD_INTEGER,
        XSD_DECIMAL,
        XSD_DOUBLE,
        f"{_XSD}float",
        f"{_XSD}long",
        f"{_XSD}int",
        f"{_XSD}short",
        f"{_XSD}byte",
        f"{_XSD}nonNegativeInteger",
        f"{_XSD}positiveInteger",
        f"{_XSD}negativeInteger",
        f"{_XSD}nonPositiveInteger",
        f"{_XSD}unsignedLong",
        f"{_XSD}unsignedInt",
        f"{_XSD}unsignedShort",
        f"{_XSD}unsignedByte",
    }
)

_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def _escape_literal(text: str) -> str:
    out = []
    for ch in text:
        out.append(_ESCAPES.get(ch, ch))
    return "".join(out)


class Literal(Term):
    """An RDF literal (an element of **L**): lexical form plus an optional
    datatype URI or language tag.

    Construction from Python values is supported: ``Literal(5)`` yields an
    ``xsd:integer``, ``Literal(2.5)`` an ``xsd:double``, ``Literal(True)``
    an ``xsd:boolean``.
    """

    __slots__ = ("lexical", "datatype", "language", "_hash", "_sort_key")
    _kind = _KIND_LITERAL

    def __init__(
        self,
        value: Union[str, int, float, bool],
        datatype: str | URI | None = None,
        language: str | None = None,
    ):
        if language is not None and datatype is not None:
            raise ValueError("a literal cannot have both a language and a datatype")
        if isinstance(datatype, URI):
            datatype = datatype.value
        if isinstance(value, bool):
            lexical = "true" if value else "false"
            datatype = datatype or XSD_BOOLEAN
        elif isinstance(value, int):
            lexical = str(value)
            datatype = datatype or XSD_INTEGER
        elif isinstance(value, float):
            lexical = repr(value)
            datatype = datatype or XSD_DOUBLE
        elif isinstance(value, str):
            lexical = value
        else:
            raise TypeError(
                f"unsupported literal value type: {type(value).__name__}"
            )
        if language is not None:
            if not language or not all(
                part.isalnum() for part in language.split("-")
            ):
                raise ValueError(f"invalid language tag: {language!r}")
            language = language.lower()
            datatype = None
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)
        object.__setattr__(
            self, "_hash", hash((_KIND_LITERAL, lexical, datatype, language))
        )
        object.__setattr__(self, "_sort_key", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Literal is immutable")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Literal):
            return (
                self.lexical == other.lexical
                and self.datatype == other.datatype
                and self.language == other.language
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.language:
            return f"Literal({self.lexical!r}, language={self.language!r})"
        if self.datatype:
            return f"Literal({self.lexical!r}, datatype={self.datatype!r})"
        return f"Literal({self.lexical!r})"

    def __str__(self) -> str:
        return self.lexical

    def n3(self) -> str:
        body = f'"{_escape_literal(self.lexical)}"'
        if self.language:
            return f"{body}@{self.language}"
        if self.datatype and self.datatype != XSD_STRING:
            return f"{body}^^<{self.datatype}>"
        return body

    def sort_key(self) -> tuple:
        key = self._sort_key
        if key is None:
            key = (
                _KIND_LITERAL,
                self.lexical,
                self.datatype or "",
                self.language or "",
            )
            object.__setattr__(self, "_sort_key", key)
        return key

    @property
    def is_numeric(self) -> bool:
        """Whether this literal has a numeric XSD datatype."""
        return self.datatype in _NUMERIC_DATATYPES

    def to_python(self) -> Union[str, int, float, bool]:
        """Convert to the closest Python value; falls back to the lexical
        form when the datatype is unknown or the lexical form is invalid."""
        if self.datatype == XSD_BOOLEAN:
            if self.lexical in ("true", "1"):
                return True
            if self.lexical in ("false", "0"):
                return False
            return self.lexical
        if self.datatype in _NUMERIC_DATATYPES:
            try:
                if self.datatype == XSD_INTEGER or (
                    self.datatype
                    and "int" in self.datatype.lower()
                    or self.datatype
                    and self.datatype.endswith(("long", "short", "byte"))
                ):
                    return int(self.lexical)
                return float(self.lexical)
            except ValueError:
                return self.lexical
        return self.lexical


#: Type aliases for triple positions.
Subject = Union[URI, BNode]
Predicate = URI
RDFObject = Union[URI, BNode, Literal]
