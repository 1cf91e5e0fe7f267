"""Snapshot (mmap) execution ≡ in-memory encoded execution.

PR 6 puts a read-only, binary-searched :class:`SnapshotGraph` under the
physical operators.  These properties pin the storage-backend seam
down: on random graphs and random queries, executing over a snapshot
image must produce exactly the rows, the order, and the statistics of
the in-memory dictionary-encoded store — one-shot and when execution is
suspended at random points and resumed from serialised continuation
tokens minted against the snapshot.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import BNode, Graph, Literal, URI
from repro.rdf.snapshot import SnapshotGraph, build_snapshot_bytes
from repro.sparql.algebra import translate_query
from repro.sparql.evaluator import Evaluator
from repro.sparql.executor import (
    decode_continuation,
    encode_continuation,
    restore_plan,
    run_quantum,
    run_to_completion,
)
from repro.sparql.optimizer import optimize
from repro.sparql.parser import parse_query
from repro.sparql.planner import PhysicalPlanFactory

from .paging import page_sizes, run_paged, schedules, wide_graphs

EX = "http://ex.org/"

_SUBJECTS = [URI(EX + f"s{i}") for i in range(4)] + [BNode("b0"), BNode("b1")]
_PREDS = [URI(EX + f"p{i}") for i in range(3)]
_OBJECTS = (
    _SUBJECTS[:3]
    + [URI(EX + "o0")]
    + [Literal(i) for i in range(3)]
    + [Literal("tag", language="en"), Literal("plain")]
)
# Constants that may appear in query text (BNodes cannot).
_URI_SUBJECTS = [term for term in _SUBJECTS if isinstance(term, URI)]


@st.composite
def dense_graphs(draw) -> Graph:
    """Small graphs over a tiny vocabulary so joins actually match."""
    graph = Graph()
    for _ in range(draw(st.integers(1, 30))):
        graph.add(
            draw(st.sampled_from(_SUBJECTS)),
            draw(st.sampled_from(_PREDS)),
            draw(st.sampled_from(_OBJECTS)),
        )
    return graph


@st.composite
def queries(draw) -> str:
    count = draw(st.integers(1, 3))
    patterns = []
    names: list = []

    def var(name):
        if name not in names:
            names.append(name)
        return f"?{name}"

    for index in range(count):
        subject = (
            var(draw(st.sampled_from("ab")))
            if index == 0 or draw(st.booleans())
            else draw(st.sampled_from(_URI_SUBJECTS)).n3()
        )
        predicate = draw(st.sampled_from(_PREDS)).n3()
        object = (
            var(draw(st.sampled_from("bc")))
            if draw(st.booleans())
            else draw(st.sampled_from(_OBJECTS)).n3()
        )
        patterns.append(f"{subject} {predicate} {object} .")
    body = " ".join(patterns)
    if draw(st.booleans()):
        body += f" FILTER(?{names[0]} != <{EX}s0>)"
    form = draw(st.sampled_from(["plain", "plain", "distinct", "count"]))
    if form == "count":
        return (
            f"SELECT ?{names[0]} (COUNT(?{names[0]}) AS ?n) "
            f"WHERE {{ {body} }} GROUP BY ?{names[0]}"
        )
    head = "DISTINCT " if form == "distinct" else ""
    modifier = draw(
        st.sampled_from(
            [
                "",
                f" ORDER BY ?{names[0]}",
                " LIMIT 5",
                f" ORDER BY DESC(?{names[0]}) LIMIT 4",
            ]
        )
    )
    return (
        f"SELECT {head}{' '.join('?' + name for name in names)} "
        f"WHERE {{ {body} }}{modifier}"
    )


def _snapshot_of(graph) -> SnapshotGraph:
    return SnapshotGraph.from_bytes(build_snapshot_bytes(graph))


def _compile(store, text):
    query = parse_query(text)
    algebra, _ = optimize(translate_query(query), graph=store)
    return query, algebra


@given(dense_graphs(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_snapshot_scans_match_memory_scans(graph, seed):
    """Every ``triples_ids`` / ``count_ids`` shape enumerates the same
    rows in the same (sorted ID) order on both stores."""
    snap = _snapshot_of(graph)
    rows = list(graph.triples_ids())
    assert list(snap.triples_ids()) == rows
    # Probe every binding shape with IDs drawn from the graph (plus the
    # -1 unknown-constant sentinel, which must yield nothing).
    import random

    rng = random.Random(seed)
    sample = rows[rng.randrange(len(rows))]
    candidates = [sample[0], sample[1], sample[2], -1]
    for s in (None, rng.choice(candidates)):
        for p in (None, rng.choice(candidates)):
            for o in (None, rng.choice(candidates)):
                expected = list(graph.triples_ids(s, p, o))
                assert list(snap.triples_ids(s, p, o)) == expected
                assert snap.count_ids(s, p, o) == len(expected)


@given(dense_graphs())
@settings(max_examples=40, deadline=None)
def test_snapshot_statistics_match_memory_statistics(graph):
    """The stored statistics section reproduces the in-memory summary
    field for field (the version differs by design: snapshots are 0)."""
    snap = _snapshot_of(graph)
    expected = graph.statistics()
    actual = snap.statistics()
    assert actual.total_triples == expected.total_triples
    assert actual.predicate_triples == expected.predicate_triples
    assert actual.predicate_subjects == expected.predicate_subjects
    assert actual.predicate_objects == expected.predicate_objects
    assert actual.class_instances == expected.class_instances
    assert actual.distinct_subjects == expected.distinct_subjects
    assert actual.distinct_objects == expected.distinct_objects
    assert actual.version == 0


@given(dense_graphs(), queries())
@settings(max_examples=60, deadline=None)
def test_snapshot_execution_matches_memory_execution(graph, text):
    """One-shot: identical rows and order over the snapshot and over
    the in-memory store."""
    snap = _snapshot_of(graph)
    query, algebra = _compile(graph, text)
    expected = Evaluator(graph).run_translated(query, algebra)

    snap_query, snap_algebra = _compile(snap, text)
    plan = PhysicalPlanFactory(snap_query, snap_algebra).instantiate(snap)
    actual = run_to_completion(plan)

    assert actual.vars == expected.vars
    assert actual.rows == expected.rows  # values AND order


@given(dense_graphs(), queries(), page_sizes(5))
@settings(max_examples=40, deadline=None)
def test_suspended_snapshot_execution_matches_memory_execution(
    graph, text, page_size
):
    """Random suspension points: paging over the snapshot through
    serialised continuation tokens reproduces the in-memory answer."""
    snap = _snapshot_of(graph)
    query, algebra = _compile(graph, text)
    expected = Evaluator(graph).run_translated(query, algebra)

    snap_query, snap_algebra = _compile(snap, text)
    factory = PhysicalPlanFactory(snap_query, snap_algebra)
    plan = factory.instantiate(snap)
    rows = []
    for _ in range(10_000):
        page = run_quantum(plan, page_size=page_size)
        rows.extend(page.rows)
        if page.complete:
            break
        token = encode_continuation(plan, snap, text)
        plan = restore_plan(factory, snap, decode_continuation(token))
    else:  # pragma: no cover - guards against a non-terminating loop
        raise AssertionError("paged execution did not terminate")

    assert rows == expected.rows


@given(wide_graphs(_SUBJECTS, _PREDS, _OBJECTS), queries(), schedules())
@settings(max_examples=25, deadline=None)
def test_block_boundary_suspensions_over_snapshot_match_memory(
    graph, text, schedule
):
    """Graphs wide enough to cross block boundaries, suspended at
    BLOCK-1 / BLOCK / BLOCK+1 rows and after single block steps: the
    snapshot-paged rows, order and work counters are the in-memory
    one-shot run's."""
    snap = _snapshot_of(graph)
    query, algebra = _compile(graph, text)
    evaluator = Evaluator(graph)
    expected = evaluator.run_translated(query, algebra)

    snap_query, snap_algebra = _compile(snap, text)
    factory = PhysicalPlanFactory(snap_query, snap_algebra)
    rows, stats, _ = run_paged(factory, snap, text, schedule)

    assert rows == expected.rows
    assert stats == evaluator.stats


_CONSTRUCT_SHAPES = [
    "CONSTRUCT {{ ?o {p1} ?s }} WHERE {{ ?s {p0} ?o }}",
    # Literal objects become literal subjects: those triples are skipped.
    "CONSTRUCT {{ ?o {p0} _:link . _:link {p1} ?s }} WHERE {{ ?s {p0} ?o "
    "OPTIONAL {{ ?o {p1} ?v }} FILTER (!BOUND(?v)) }}",
    "CONSTRUCT {{ ?s {p2} ?v }} WHERE {{ ?s {p0} ?o . ?o {p1} ?v }} OFFSET 1 LIMIT 3",
]


@given(dense_graphs(), st.sampled_from(_CONSTRUCT_SHAPES))
@settings(max_examples=40, deadline=None)
def test_construct_over_snapshot_matches_memory(graph, shape):
    """CONSTRUCT runs its WHERE pattern in ID space like any query: the
    same solutions in the same order (so the same LIMIT cut and the same
    fresh blank-node labels) over either store."""
    text = shape.format(**{f"p{i}": pred.n3() for i, pred in enumerate(_PREDS)})
    snap = _snapshot_of(graph)
    expected = Evaluator(graph).run(parse_query(text))
    actual = Evaluator(snap).run(parse_query(text))
    assert actual == expected
