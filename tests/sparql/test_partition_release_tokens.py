"""What partition release does to continuation tokens.

The blocking engine suspended mid-build carried every group it had
opened (``fixtures/parent_tokens.json``'s ``mid_build`` token: 96 inner
groups three steps into the scan).  The order-aware loop hands a group
on when its subject ends, so the same suspension carries the groups of
the subject being read plus at most one block of finished ones — and
the saved ``emitted`` is a plain count, not the length of a list to
rebuild.
"""

import json

from repro.sparql.executor import (
    decode_continuation,
    encode_continuation,
    restore_plan,
    run_quantum,
)
from repro.sparql.physical import BLOCK, AggregationOp
from repro.sparql.planner import build_physical_plan

from .test_parent_tokens import CHART_QUERY, FIXTURE, fixture_graph, rows_json


def _aggregation_states(token):
    """Saved states of the chart's aggregations, outermost first."""
    node = decode_continuation(token)["state"]
    states = []
    while isinstance(node, dict):
        if node.get("op") == "Aggregation":
            states.append(node)
        node = node.get("child")
    return states


def test_a_mid_build_token_holds_one_partition_not_every_group(tmp_path):
    with open(FIXTURE) as handle:
        recorded = json.load(handle)
    _, parent_inner = _aggregation_states(recorded["mid_build"]["token"])
    parent_bytes = len(json.dumps(parent_inner["groups"]))

    graph = fixture_graph(tmp_path)
    plan = build_physical_plan(graph, CHART_QUERY)
    factory = plan.factory
    rows, mid_build = [], []
    for _ in range(10_000):
        page = run_quantum(plan, quantum_ms=1e-9)  # one root step a page
        rows.extend(page.rows)
        if page.complete:
            break
        token = encode_continuation(plan, graph, CHART_QUERY)
        _, inner = _aggregation_states(token)
        if inner["phase"] == "build":
            mid_build.append((token, inner))
        plan = restore_plan(factory, graph, decode_continuation(token))
    assert len(mid_build) >= 3, "the inner build must span several suspensions"

    # 1-4 edges + type + score: a subject opens at most 6 groups.
    assert max(len(inner["groups"]) for _, inner in mid_build) <= 6 + BLOCK
    largest = max(len(json.dumps(inner["groups"])) for _, inner in mid_build)
    assert largest * 10 <= parent_bytes
    assert max(len(token) for token, _ in mid_build) < len(
        recorded["mid_build"]["token"]
    )
    # ...and the answer is the one the parent engine served.
    case = recorded["mid_build"]
    assert rows_json(rows) == case["served"] + case["remaining"]


def test_loading_allocates_nothing_proportional_to_emitted(tmp_path):
    graph = fixture_graph(tmp_path)
    plan = build_physical_plan(graph, CHART_QUERY)
    run_quantum(plan, page_size=3)
    token = encode_continuation(plan, graph, CHART_QUERY)
    blob = decode_continuation(token)
    _, inner = _aggregation_states(token)
    assert inner["done"] and inner["emitted"] > 100

    def inflate(node):
        while isinstance(node, dict):
            if node.get("op") == "Aggregation":
                node["emitted"] = 10**15  # a list that long cannot exist
            node = node.get("child")

    inflate(blob["state"])
    restored = restore_plan(plan.factory, graph, blob)
    assert [
        op._emitted for op in restored.root.walk() if isinstance(op, AggregationOp)
    ] == [10**15, 10**15]
    assert run_quantum(restored).complete
