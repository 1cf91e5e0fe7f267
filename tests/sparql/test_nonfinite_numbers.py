"""``INF`` / ``-INF`` / ``NaN`` are ordinary xsd:double values.

They used to leave the engine as a bare ``OverflowError`` /
``ValueError`` (``int(inf)`` inside ``_numeric_literal``): a crashed
``LocalEndpoint.query`` and a 500 on the wire.  Every place a computed
number becomes a literal is driven here — the aggregation's ID-space
kernel, its generic fold, a projected expression, the rounding
builtins — and the results cross the wire and come back.
"""

import json

import pytest

from repro.endpoint import (
    LocalEndpoint,
    RemoteEndpoint,
    SimClock,
    SimulatedVirtuosoServer,
)
from repro.endpoint.wire import encode_request
from repro.rdf import Graph, Literal, URI
from repro.sparql.physical import AggregationOp
from repro.sparql.planner import build_physical_plan
from repro.sparql.results import term_from_json

EX = "http://ex.org/"
XSD_DOUBLE = "http://www.w3.org/2001/XMLSchema#double"
VALUE = URI(EX + "value")


def double(lexical: str) -> Literal:
    return Literal(lexical, datatype=XSD_DOUBLE)


@pytest.fixture(scope="module")
def graph() -> Graph:
    graph = Graph()
    graph.add(URI(EX + "up"), VALUE, double("INF"))
    graph.add(URI(EX + "up"), VALUE, double("1.5"))
    graph.add(URI(EX + "down"), VALUE, double("-INF"))
    graph.add(URI(EX + "lost"), VALUE, double("NaN"))
    graph.add(URI(EX + "lost"), VALUE, double("2.0"))
    graph.add(URI(EX + "plain"), VALUE, double("2.0"))
    return graph


EXPECTED = {
    EX + "up": double("INF"),
    EX + "down": double("-INF"),
    EX + "lost": double("NaN"),
}

KERNEL = f"SELECT ?s (SUM(?o) AS ?t) WHERE {{ ?s <{VALUE.value}> ?o }} GROUP BY ?s"
GENERIC = f"SELECT ?s (SUM(?o + 0) AS ?t) WHERE {{ ?s <{VALUE.value}> ?o }} GROUP BY ?s"
AVERAGE = f"SELECT ?s (AVG(?o) AS ?t) WHERE {{ ?s <{VALUE.value}> ?o }} GROUP BY ?s"
PROJECTED = (
    f"SELECT ?s (?o * 2 AS ?t) WHERE {{ ?s <{VALUE.value}> ?o "
    f"FILTER(?o != 1.5 && ?o != 2.0) }}"
)
ROUNDED = (
    f"SELECT ?s (CEIL(?o) AS ?t) (FLOOR(?o) AS ?f) (ROUND(?o) AS ?r) "
    f"WHERE {{ ?s <{VALUE.value}> ?o FILTER(?o != 1.5 && ?o != 2.0) }}"
)


def by_subject(rows, column="t"):
    return {row["s"].value: row[column] for row in rows if row["s"].value in EXPECTED}


def test_the_two_sums_take_the_two_folds(graph):
    def folds(text):
        return [
            op._id_fold is not None
            for op in build_physical_plan(graph, text).root.walk()
            if isinstance(op, AggregationOp)
        ]

    assert folds(KERNEL) == [True] and folds(GENERIC) == [False]


@pytest.mark.parametrize("text", [KERNEL, GENERIC, AVERAGE, PROJECTED])
def test_nonfinite_results_are_xsd_doubles(graph, text):
    rows = LocalEndpoint(graph).query(text).result.rows
    assert by_subject(rows) == EXPECTED


def test_rounding_builtins_keep_nonfinite_values(graph):
    rows = LocalEndpoint(graph).query(ROUNDED).result.rows
    for column in "tfr":
        assert by_subject(rows, column) == EXPECTED


@pytest.mark.parametrize("text", [KERNEL, GENERIC, PROJECTED])
def test_nonfinite_results_cross_the_wire(graph, text):
    server = SimulatedVirtuosoServer(graph, clock=SimClock())
    response = server.handle(encode_request(server.url, text))
    assert response.status == 200
    bindings = json.loads(response.body)["results"]["bindings"]
    decoded = [
        {name: term_from_json(blob) for name, blob in row.items()}
        for row in bindings
    ]
    assert by_subject(decoded) == EXPECTED
    assert by_subject(RemoteEndpoint(server).query(text).result.rows) == EXPECTED
