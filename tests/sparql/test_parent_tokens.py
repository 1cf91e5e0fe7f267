"""Continuation tokens minted by the parent commit still resume.

``fixtures/parent_tokens.json`` holds two tokens the row-at-a-time
engine of PR 11 minted over :func:`fixture_graph` (see
``fixtures/capture_parent_tokens.py``), with the rows that engine had
served before each and went on to serve after it.  The block-at-a-time
engine must resume both to exactly the remaining rows.  ``TOKEN_VERSION``
is 3 now — a finished sort's rows ride behind the state tree as
segments — and a version 2 token is read as the token with no segments,
which is what lets a worker fleet mid-deploy take the old processes'
tokens.
"""

import base64
import json
import os

import pytest

from repro.rdf import Graph, Literal, URI
from repro.rdf.snapshot import open_snapshot, write_snapshot
from repro.sparql.executor import (
    TOKEN_VERSION,
    decode_continuation,
    encode_continuation,
    restore_plan,
    run_quantum,
)
from repro.sparql.planner import build_physical_plan
from repro.sparql.results import term_to_json

EX = "http://ex.org/"
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "parent_tokens.json")

#: The paper's property-expansion chart shape (Section 4, Fig. 4).
CHART_QUERY = (
    "SELECT ?p (COUNT(?p) AS ?count) (SUM(?sp) AS ?triples) WHERE {\n"
    "  { SELECT ?s ?p (COUNT(*) AS ?sp) WHERE {\n"
    f"      ?s <{EX}type> <{EX}Thing> .\n"
    "      ?s ?p ?o .\n"
    "    } GROUP BY ?s ?p }\n"
    "}\nGROUP BY ?p\nORDER BY DESC(?count)"
)


def fixture_graph(directory):
    """120 typed items, 1-4 edges each over 9 predicates, one score —
    served from a snapshot, the store a worker fleet shares: its base
    IDs are stable across processes and runtime-interned aggregate
    values cross as term literals, so a token is portable at all."""
    graph = Graph()
    for i in range(120):
        item = URI(f"{EX}item{i:03d}")
        graph.add(item, URI(EX + "type"), URI(EX + "Thing"))
        for j in range(1 + i % 4):
            graph.add(
                item,
                URI(f"{EX}p{(i * 7 + j) % 9}"),
                URI(f"{EX}item{(i * 3 + j) % 120:03d}"),
            )
        graph.add(item, URI(EX + "score"), Literal(i % 11))
    path = os.path.join(str(directory), "fixture.snap")
    write_snapshot(graph, path)
    return open_snapshot(path)


def rows_json(rows):
    return [
        {name: term_to_json(value) for name, value in row.items()}
        for row in rows
    ]


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_fixture_matches_this_checkout(recorded, tmp_path):
    assert TOKEN_VERSION == 3
    for which in ("mid_emit", "mid_build"):  # ...and 2 is readable
        assert decode_continuation(recorded[which]["token"])["v"] == 2
    assert recorded["query"] == CHART_QUERY
    assert recorded["triples"] == len(fixture_graph(tmp_path))
    assert recorded["mid_emit"]["reason"] == "row_budget"
    assert recorded["mid_build"]["reason"] == "deadline"


@pytest.mark.parametrize("which", ["mid_emit", "mid_build"])
def test_parent_token_resumes_to_exactly_the_remaining_rows(
    recorded, which, tmp_path
):
    graph = fixture_graph(tmp_path)
    case = recorded[which]
    blob = decode_continuation(case["token"])
    plan = restore_plan(
        build_physical_plan(graph, CHART_QUERY).factory, graph, blob
    )
    page = run_quantum(plan)
    assert page.complete
    assert rows_json(page.rows) == case["remaining"]
    # ...and the parent's served prefix + that remainder is the answer.
    whole = run_quantum(build_physical_plan(graph, CHART_QUERY))
    assert case["served"] + case["remaining"] == rows_json(whole.rows)


def test_mid_build_token_was_minted_inside_the_inner_aggregation(recorded):
    state = decode_continuation(recorded["mid_build"]["token"])["state"]
    node = state
    aggregations = []
    while isinstance(node, dict):
        if node.get("op") == "Aggregation":
            aggregations.append(node)
        node = node.get("child")
    outer, inner = aggregations
    assert outer["phase"] == "build" and not outer["groups"]
    assert inner["phase"] == "build" and inner["groups"]


def _without_idle_offsets(state):
    """An exhausted scan's leftover ``offset`` is dropped on load (both
    engines; it is only read next to a ``current`` outer row)."""
    if isinstance(state, dict):
        return {
            key: _without_idle_offsets(value)
            for key, value in state.items()
            if not (key == "offset" and state.get("current") is None)
        }
    if isinstance(state, list):
        return [_without_idle_offsets(value) for value in state]
    return state


def _with_runs_expanded(state):
    """The state tree as version 2 wrote it: each finished sort's run
    reference replaced by the rows it stands for, decoded from the
    segments beside the tree."""
    segments = state.pop("$segments")

    def expand(node):
        if isinstance(node, dict) and "$run" in node:
            first, count = node["$run"]
            rows = [
                row
                for segment in segments[first:first + count]
                for row in json.loads(base64.urlsafe_b64decode(segment))
            ]
            return rows[node["skip"]:]
        if isinstance(node, dict):
            return {key: expand(value) for key, value in node.items()}
        return node

    return expand(state)


@pytest.mark.parametrize("which", ["mid_emit", "mid_build"])
def test_resaving_a_parent_token_reproduces_it(recorded, which, tmp_path):
    """Load → save is the identity on a parent token: same state shape,
    once the finished sort's segments are read back into the tree (a
    sort still building has none, and its tree is the parent's as is)."""
    graph = fixture_graph(tmp_path)
    blob = decode_continuation(recorded[which]["token"])
    plan = restore_plan(
        build_physical_plan(graph, CHART_QUERY).factory, graph, blob
    )
    resaved = decode_continuation(encode_continuation(plan, graph, CHART_QUERY))
    assert (len(resaved["state"]["$segments"]) > 0) == (which == "mid_emit")
    assert resaved["v"] == TOKEN_VERSION and resaved["graph"] == blob["graph"]
    assert resaved["query"] == blob["query"]
    assert _without_idle_offsets(
        _with_runs_expanded(resaved["state"])
    ) == _without_idle_offsets(_with_runs_expanded(blob["state"]))
