"""Query result containers and the SPARQL 1.1 JSON results format.

The simulated Virtuoso endpoint speaks this JSON dialect over its
simulated HTTP interface (the paper uses "AJAX communication with the
Virtuoso server via its HTTP/JSON SPARQL interface", Section 4), so the
encode/decode here is the wire format of :mod:`repro.endpoint.wire`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..rdf.graph import Graph
from ..rdf.terms import BNode, Literal, Term, URI
from .ast import TriplePatternNode, Var

__all__ = [
    "SelectResult",
    "AskResult",
    "GraphResult",
    "construct_graph",
    "results_to_json",
    "results_from_json",
    "results_to_blob",
    "results_from_blob",
    "term_to_json",
    "term_from_json",
]


class SelectResult:
    """The solution sequence of a SELECT query.

    Iterable over bindings (dicts of variable name -> term).  ``vars``
    preserves the projection order.
    """

    def __init__(
        self,
        variables: Sequence[str],
        rows: List[Dict[str, Term]],
        stats: Optional[object] = None,
    ):
        self.vars = list(variables)
        self.rows = rows
        self.stats = stats

    def __iter__(self) -> Iterator[Dict[str, Term]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SelectResult):
            return NotImplemented
        return self.vars == other.vars and self.rows == other.rows

    def __repr__(self) -> str:
        return f"<SelectResult {len(self.rows)} rows over {self.vars}>"

    def column(self, name: str) -> List[Optional[Term]]:
        """All values of one variable, None where unbound."""
        return [row.get(name) for row in self.rows]

    def scalar(self) -> Optional[Term]:
        """The single value of a one-row, one-variable result."""
        if len(self.rows) != 1 or len(self.vars) != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, have {len(self.rows)} rows "
                f"x {len(self.vars)} vars"
            )
        return self.rows[0].get(self.vars[0])

    def to_table(self, max_rows: int = 50) -> str:
        """A plain-text table rendering (for examples and debugging)."""
        headers = [f"?{name}" for name in self.vars]
        body: List[List[str]] = []
        for row in self.rows[:max_rows]:
            body.append(
                [
                    _short(row.get(name))
                    for name in self.vars
                ]
            )
        widths = [len(header) for header in headers]
        for line in body:
            for index, cell in enumerate(line):
                widths[index] = max(widths[index], len(cell))
        out = [
            " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
            "-+-".join("-" * width for width in widths),
        ]
        for line in body:
            out.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
        if len(self.rows) > max_rows:
            out.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(out)


class GraphResult:
    """The graph produced by a CONSTRUCT query."""

    def __init__(self, graph, stats: Optional[object] = None):
        self.graph = graph
        self.stats = stats

    def __len__(self) -> int:
        return len(self.graph)

    def __iter__(self):
        return iter(self.graph)

    def __bool__(self) -> bool:
        return bool(self.graph)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphResult):
            return NotImplemented
        return set(self.graph) == set(other.graph)

    def __repr__(self) -> str:
        return f"<GraphResult with {len(self.graph)} triples>"

    def to_ntriples(self) -> str:
        """Serialise the constructed graph to N-Triples."""
        from ..rdf.ntriples import serialize_ntriples

        return serialize_ntriples(self.graph, sort=True)


def construct_graph(
    template: Sequence[TriplePatternNode], solutions: Sequence[Dict[str, Term]]
) -> Graph:
    """Instantiate a CONSTRUCT template once per solution.

    Template triples with an unbound variable, a literal subject or a
    non-URI predicate are skipped, per the spec.
    """
    constructed = Graph()
    for serial, binding in enumerate(solutions, start=1):
        # Blank nodes in the template are freshened per solution.
        fresh: Dict[str, BNode] = {}
        for pattern in template:
            terms = []
            for term in pattern:
                if isinstance(term, Var):
                    term = binding.get(term.name)
                    if term is None:
                        break
                elif isinstance(term, BNode):
                    term = fresh.setdefault(
                        term.id, BNode(f"c{serial}_{term.id}")
                    )
                terms.append(term)
            else:
                subject, predicate, object = terms
                if isinstance(subject, (URI, BNode)) and isinstance(predicate, URI):
                    constructed.add(subject, predicate, object)
    return constructed


class AskResult:
    """The boolean result of an ASK query."""

    def __init__(self, value: bool, stats: Optional[object] = None):
        self.value = bool(value)
        self.stats = stats

    def __bool__(self) -> bool:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AskResult):
            return self.value == other.value
        if isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<AskResult {self.value}>"


def _short(term: Optional[Term]) -> str:
    if term is None:
        return ""
    if isinstance(term, URI):
        return term.local_name or term.value
    if isinstance(term, Literal):
        return term.lexical
    return str(term)


# ----------------------------------------------------------------------
# SPARQL 1.1 Query Results JSON Format
# ----------------------------------------------------------------------


def _term_to_json(term: Term) -> Dict[str, Any]:
    if isinstance(term, URI):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BNode):
        return {"type": "bnode", "value": term.id}
    assert isinstance(term, Literal)
    out: Dict[str, Any] = {"type": "literal", "value": term.lexical}
    if term.language:
        out["xml:lang"] = term.language
    elif term.datatype:
        out["datatype"] = term.datatype
    return out


def _term_from_json(blob: Dict[str, Any]) -> Term:
    kind = blob.get("type")
    value = blob.get("value", "")
    if kind == "uri":
        return URI(value)
    if kind == "bnode":
        return BNode(value)
    if kind in ("literal", "typed-literal"):
        language = blob.get("xml:lang")
        datatype = blob.get("datatype")
        if language:
            return Literal(value, language=language)
        if datatype:
            return Literal(value, datatype=datatype)
        return Literal(value)
    raise ValueError(f"unknown JSON term type: {kind!r}")


def term_to_json(term: Term) -> Dict[str, Any]:
    """Public JSON encoding of one RDF term (SPARQL-JSON term schema).

    Shared by the results wire format and the executor's continuation
    tokens (:mod:`repro.sparql.physical` serialises operator state —
    bindings, build tables, heaps — through this encoding).
    """
    return _term_to_json(term)


def term_from_json(blob: Dict[str, Any]) -> Term:
    """Inverse of :func:`term_to_json`."""
    return _term_from_json(blob)


def results_to_blob(result) -> Dict[str, Any]:
    """A SelectResult/AskResult as the SPARQL-JSON document, unserialised
    (the wire adds its paging keys to it before the one ``dumps``)."""
    if isinstance(result, AskResult):
        return {"head": {}, "boolean": result.value}
    assert isinstance(result, SelectResult)
    bindings = [
        {
            name: _term_to_json(term)
            for name, term in row.items()
            if term is not None
        }
        for row in result.rows
    ]
    return {"head": {"vars": result.vars}, "results": {"bindings": bindings}}


def results_from_blob(blob: Dict[str, Any]):
    """Inverse of :func:`results_to_blob`."""
    if "boolean" in blob:
        return AskResult(bool(blob["boolean"]))
    variables = blob.get("head", {}).get("vars", [])
    rows = [
        {name: _term_from_json(value) for name, value in binding.items()}
        for binding in blob.get("results", {}).get("bindings", [])
    ]
    return SelectResult(variables, rows)


def results_to_json(result) -> str:
    """Serialise a SelectResult/AskResult to SPARQL-JSON text."""
    return json.dumps(results_to_blob(result))


def results_from_json(text: str):
    """Parse SPARQL-JSON text back into a SelectResult or AskResult."""
    return results_from_blob(json.loads(text))
