"""Property tests for preemptable property paths (PR 8): paging a path
query through continuation tokens — suspending at random page sizes and
serialising the token at every boundary — must reproduce the one-shot
answer exactly (rows, order, and work counters); and because traversal
state is explicit and emission is in canonical sorted-ID order, a token
saved against one mmap of a snapshot must resume *byte-identically*
against another mmap of the same snapshot (the PR 7 worker fleet), and
against a completely fresh process."""

import json
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, URI
from repro.rdf.snapshot import SnapshotGraph, build_snapshot_bytes
from repro.sparql.executor import (
    decode_continuation,
    encode_continuation,
    restore_plan,
    run_quantum,
    run_to_completion,
)
from repro.sparql.planner import build_physical_plan

from .paging import page_sizes, run_paged, schedules, stats_tuple

_TERMS = [URI(f"http://ex.org/t{i}") for i in range(5)]
_P = "<http://ex.org/p>"
_Q = "<http://ex.org/q>"

#: Path shapes covering every lowered primitive: closures from each
#: endpoint shape, inverse, sequence, alternative, and a join with a
#: flat pattern (path scan mid-pipeline).
_PATH_QUERIES = [
    f"SELECT ?a ?b WHERE {{ ?a {_P}* ?b }}",
    f"SELECT ?a ?b WHERE {{ ?a {_P}+ ?b }}",
    f"SELECT ?a ?b WHERE {{ ?a {_P}? ?b }}",
    f"SELECT ?b WHERE {{ <http://ex.org/t0> {_P}* ?b }}",
    f"SELECT ?a WHERE {{ ?a {_P}+ <http://ex.org/t1> }}",
    f"SELECT ?a ?b WHERE {{ ?a ^{_P} ?b }}",
    f"SELECT ?a ?b WHERE {{ ?a {_P}/{_Q} ?b }}",
    f"SELECT ?a ?b WHERE {{ ?a ({_P}|{_Q})+ ?b }}",
    f"SELECT ?a ?b WHERE {{ ?a {_P}/{_Q}* ?b }}",
    f"SELECT ?a ?b WHERE {{ ?a (^{_P}|{_Q})* ?b }}",
    f"SELECT ?a ?b ?c WHERE {{ ?a {_P}* ?b . ?b {_Q} ?c . }}",
    f"SELECT ?a ?b WHERE {{ ?a {_P}* ?b }} ORDER BY ?a LIMIT 9",
]


@st.composite
def path_graphs(draw) -> Graph:
    """Small dense graphs: cycles and diamonds happen constantly."""
    graph = Graph()
    preds = [URI("http://ex.org/p"), URI("http://ex.org/q")]
    count = draw(st.integers(1, 20))
    with graph.bulk():
        for _ in range(count):
            graph.add(
                draw(st.sampled_from(_TERMS)),
                draw(st.sampled_from(preds)),
                draw(st.sampled_from(_TERMS)),
            )
    return graph


def _canonical(rows):
    return [
        tuple(sorted((name, value.n3()) for name, value in row.items()))
        for row in rows
    ]


@given(path_graphs(), st.sampled_from(_PATH_QUERIES), page_sizes(6))
@settings(max_examples=80, deadline=None)
def test_paged_path_query_equals_one_shot(graph, query, page_size):
    expected_plan = build_physical_plan(graph, query)
    expected = run_to_completion(expected_plan)

    factory = build_physical_plan(graph, query).factory
    plan = factory.instantiate(graph)
    rows = []
    scans = 0
    bindings = 0
    for _ in range(10_000):
        page = run_quantum(plan, page_size=page_size)
        rows.extend(page.rows)
        scans += page.stats.pattern_scans
        bindings += page.stats.intermediate_bindings
        assert len(page.rows) <= page_size
        if page.complete:
            break
        token = encode_continuation(plan, graph, query)
        plan = restore_plan(factory, graph, decode_continuation(token))
    else:  # pragma: no cover
        raise AssertionError("paged execution did not terminate")

    assert _canonical(rows) == _canonical(expected.rows)  # order too
    assert scans == expected_plan.stats.pattern_scans
    assert bindings == expected_plan.stats.intermediate_bindings


@st.composite
def wide_path_graphs(draw) -> Graph:
    """Sixteen nodes, a few dozen edges: closures of a few hundred
    pairs, so a traversal crosses block boundaries."""
    import random

    rng = random.Random(draw(st.integers(0, 2**32)))
    nodes = [URI(f"http://ex.org/t{i}") for i in range(16)]
    preds = [URI("http://ex.org/p"), URI("http://ex.org/q")]
    graph = Graph()
    with graph.bulk():
        for _ in range(rng.randint(20, 48)):
            graph.add(rng.choice(nodes), rng.choice(preds), rng.choice(nodes))
    return graph


@given(wide_path_graphs(), st.sampled_from(_PATH_QUERIES), schedules())
@settings(max_examples=40, deadline=None)
def test_block_boundary_suspensions_of_path_queries(graph, query, schedule):
    """Row budgets of BLOCK-1 / BLOCK / BLOCK+1 and one-step deadlines
    (a PathScan suspended mid-frontier with part of a block emitted)."""
    expected_plan = build_physical_plan(graph, query)
    expected = run_to_completion(expected_plan)

    factory = build_physical_plan(graph, query).factory
    rows, stats, _ = run_paged(factory, graph, query, schedule)

    assert _canonical(rows) == _canonical(expected.rows)  # order too
    assert stats_tuple(stats) == stats_tuple(expected_plan.stats)


@given(path_graphs(), st.sampled_from(_PATH_QUERIES), page_sizes(5))
@settings(max_examples=25, deadline=None)
def test_path_tokens_transfer_between_snapshot_mmaps(graph, query, page_size):
    """Alternate every page between two independent opens of the same
    snapshot — the worker-fleet shape — and check rows, order, and that
    the token each side would save at the same suspension point is
    byte-identical."""
    data = build_snapshot_bytes(graph)
    workers = [
        SnapshotGraph.from_bytes(data, verify=False),
        SnapshotGraph.from_bytes(data, verify=False),
    ]
    expected = run_to_completion(build_physical_plan(workers[0], query))

    factories = [build_physical_plan(w, query).factory for w in workers]
    active = 0
    plan = factories[0].instantiate(workers[0])
    rows = []
    for _ in range(10_000):
        page = run_quantum(plan, page_size=page_size)
        rows.extend(page.rows)
        if page.complete:
            break
        token = encode_continuation(plan, workers[active], query)
        # The other worker must re-mint the identical token after a
        # state-preserving load (byte-portability acceptance check).
        other = 1 - active
        mirrored = restore_plan(
            factories[other], workers[other], decode_continuation(token)
        )
        assert encode_continuation(mirrored, workers[other], query) == token
        active = other
        plan = mirrored
    else:  # pragma: no cover
        raise AssertionError("paged execution did not terminate")

    assert _canonical(rows) == _canonical(expected.rows)


_SUBPROCESS_SCRIPT = """
import json, sys
from repro.rdf import Graph, URI
from repro.sparql.executor import decode_continuation, restore_plan, run_quantum
from repro.sparql.planner import build_physical_plan

spec = json.loads(sys.stdin.read())
graph = Graph()
with graph.bulk():
    for s, p, o in spec["triples"]:
        graph.add(URI(s), URI(p), URI(o))
plan = restore_plan(
    build_physical_plan(graph, spec["query"]).factory,
    graph,
    decode_continuation(spec["token"]),
)
rows = []
for _ in range(10_000):
    page = run_quantum(plan, page_size=spec["page_size"])
    rows.extend(page.rows)
    if page.complete:
        break
print(json.dumps([
    sorted((name, value.n3()) for name, value in row.items()) for row in rows
]))
"""


def test_path_token_replayed_in_fresh_process_yields_identical_rows():
    """Regression for the pre-PR 8 hazard: `path_hop` iterated unordered
    sets, so a token resumed under a different PYTHONHASHSEED could
    replay the remaining traversal in a different order.  The same graph
    + query + token must now finish identically in a fresh interpreter."""
    triples = []
    for a, b in [("A", "B"), ("B", "C"), ("C", "A"), ("C", "D"), ("B", "E")]:
        triples.append(
            (f"http://ex.org/{a}", "http://ex.org/p", f"http://ex.org/{b}")
        )
    graph = Graph()
    with graph.bulk():
        for s, p, o in triples:
            graph.add(URI(s), URI(p), URI(o))
    query = "SELECT ?a ?b WHERE { ?a <http://ex.org/p>* ?b }"
    page_size = 3

    plan = build_physical_plan(graph, query)
    first = run_quantum(plan, page_size=page_size)
    assert not first.complete
    token = encode_continuation(plan, graph, query)

    # Reference: finish in this process.
    rest = []
    factory = build_physical_plan(graph, query).factory
    resumed = restore_plan(factory, graph, decode_continuation(token))
    for _ in range(10_000):
        page = run_quantum(resumed, page_size=page_size)
        rest.extend(page.rows)
        if page.complete:
            break

    # Replay: finish in a fresh interpreter (fresh hash seed).
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)  # randomized per process
    spec = json.dumps(
        {
            "triples": triples,
            "query": query,
            "token": token,
            "page_size": page_size,
        }
    )
    result = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        input=spec,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    replayed = json.loads(result.stdout)
    expected = [
        sorted((name, value.n3()) for name, value in row.items())
        for row in rest
    ]
    assert [[tuple(item) for item in row] for row in replayed] == [
        [tuple(item) for item in row] for row in expected
    ]
