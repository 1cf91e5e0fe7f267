"""Order-aware aggregation ≡ blocking aggregation ≡ the naive oracle.

``AggregationOp`` releases a group as soon as the partition it belongs
to has ended, where ``child.clustered_on()`` says the input arrives
partition by partition.  Releasing early must change *when* a group
leaves and nothing else: these properties run every plan three ways —
as planned, with the order property withheld (every operator claims
nothing, so every aggregation blocks until its input ends), and on the
naive term-space evaluator — and require the same rows in the same
order with the same ``EvalStats``, one-shot and under every suspension
schedule of :mod:`.paging`, on the in-memory store and on a snapshot.
Tokens cross between the two kinds of plan as well: a fleet mid-deploy
hands blocking-engine tokens to order-aware workers.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, Literal, URI
from repro.rdf.snapshot import SnapshotGraph, build_snapshot_bytes
from repro.sparql.evaluator import EvalStats
from repro.sparql.executor import (
    decode_continuation,
    encode_continuation,
    restore_plan,
    run_quantum,
    run_to_completion,
)
from repro.sparql.physical import AggregationOp, PatternScanOp, PhysicalOperator
from repro.sparql.planner import PhysicalPlanFactory, build_physical_plan

from .naive_sparql import assert_matches_oracle
from .paging import run_paged, schedules, stats_tuple, wide_graphs
from .test_encoded_equivalence import (
    _AGGREGATE_SHAPES,
    _OBJECTS,
    _PREDS,
    _SUBJECTS,
    _compile,
    dense_graphs,
)

_MEMBER = f"?s {_PREDS[0].n3()} {_OBJECTS[0].n3()}"


def _chart(edge: str) -> str:
    """The paper's property-expansion chart (Fig. 4) over ``_MEMBER``."""
    return (
        "SELECT ?p (COUNT(?p) AS ?count) (SUM(?sp) AS ?triples) WHERE { "
        f"{{ SELECT ?s ?p (COUNT(*) AS ?sp) WHERE {{ {_MEMBER} . {edge} }} "
        "GROUP BY ?s ?p } } GROUP BY ?p ORDER BY DESC(?count)"
    )


FIG4_OUTGOING = _chart("?s ?p ?o")
FIG4_INCOMING = _chart("?o ?p ?s")
SHAPES = _AGGREGATE_SHAPES + [FIG4_OUTGOING, FIG4_INCOMING]


@st.composite
def knotted_graphs(draw) -> Graph:
    """Three nodes, every edge between them likely: each member has
    several incoming and outgoing edges per predicate, so a partition
    claimed too wide (``?s ?p`` where only ``?s`` holds) splits a group."""
    nodes = _SUBJECTS[:3]
    graph = Graph()
    for _ in range(draw(st.integers(4, 24))):
        graph.add(
            draw(st.sampled_from(nodes)),
            draw(st.sampled_from(_PREDS)),
            draw(st.sampled_from(nodes)),
        )
    return graph


@contextmanager
def order_withheld():
    """Plans built inside claim no order anywhere (an aggregation reads
    the property once, when it is constructed)."""
    derived = PatternScanOp.clustered_on
    PatternScanOp.clustered_on = PhysicalOperator.clustered_on
    try:
        yield
    finally:
        PatternScanOp.clustered_on = derived


def _aggregations(plan):
    return [op for op in plan.root.walk() if isinstance(op, AggregationOp)]


def _partitions(plan):
    """Per aggregation, outermost first: the released-per variables."""
    return [
        tuple(op._key_specs[at][1] for at in op._partition_at)
        for op in _aggregations(plan)
    ]


def test_the_shapes_cover_released_per_partition_and_released_at_end():
    graph = Graph([(_SUBJECTS[0], _PREDS[0], _OBJECTS[0])])
    partitions = [
        _partitions(PhysicalPlanFactory(*_compile(graph, text)).instantiate(graph))
        for text in SHAPES
    ]
    assert partitions[-2] == [(), ("s", "p")]  # Fig. 4 outgoing: outer, inner
    assert partitions[-1] == [(), ("s",)]  # incoming: ?o sorts before ?p
    flat = [partition for plan in partitions for partition in plan]
    assert flat.count(()) >= 8 and len(flat) - flat.count(()) >= 5
    with order_withheld():
        plan = PhysicalPlanFactory(*_compile(graph, FIG4_OUTGOING)).instantiate(graph)
        assert _partitions(plan) == [(), ()]


def _run_paged_swapping_engines(factory, store, text, schedule):
    """:func:`run_paged`, but every other token is restored into a plan
    with the order withheld: blocking-engine state resumes in the
    order-aware loop and the other way round."""
    plan = factory.instantiate(store)
    rows, stats = [], EvalStats()
    for turn in range(100_000):
        page = run_quantum(plan, **schedule[turn % len(schedule)])
        rows.extend(page.rows)
        stats.merge(page.stats)
        if page.complete:
            return rows, stats
        blob = decode_continuation(encode_continuation(plan, store, text))
        if turn % 2:
            plan = restore_plan(factory, store, blob)
        else:
            with order_withheld():
                plan = restore_plan(factory, store, blob)
    raise AssertionError("paged execution did not terminate")


def _check_three_ways(graph, text, schedule, snapshot):
    store = (
        SnapshotGraph.from_bytes(build_snapshot_bytes(graph)) if snapshot else graph
    )
    factory = PhysicalPlanFactory(*_compile(store, text))
    aware = factory.instantiate(store)
    expected = run_to_completion(aware)
    assert_matches_oracle(graph, text, expected.rows)
    work = stats_tuple(aware.stats)

    with order_withheld():
        blocking = factory.instantiate(store)
    assert run_to_completion(blocking).rows == expected.rows  # values AND order
    assert stats_tuple(blocking.stats) == work

    rows, stats, _ = run_paged(factory, store, text, schedule)
    assert rows == expected.rows
    assert stats_tuple(stats) == work

    rows, stats = _run_paged_swapping_engines(factory, store, text, schedule)
    assert rows == expected.rows
    assert stats_tuple(stats) == work


@given(
    st.one_of(dense_graphs(), wide_graphs(_SUBJECTS, _PREDS, _OBJECTS)),
    st.sampled_from(SHAPES),
    schedules(),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_order_aware_matches_blocking_and_oracle(graph, text, schedule, snapshot):
    _check_three_ways(graph, text, schedule, snapshot)


@given(
    knotted_graphs(),
    st.sampled_from([FIG4_OUTGOING, FIG4_INCOMING]),
    schedules(),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_the_chart_directions_release_exactly_what_they_may(
    graph, text, schedule, snapshot
):
    _check_three_ways(graph, text, schedule, snapshot)


# ----------------------------------------------------------------------
# Plans that must claim less than one might think
# ----------------------------------------------------------------------

EX = "http://ex.org/"
_TYPE, _CLS, _VIA = (URI(EX + name).n3() for name in ("type", "C", "via"))


def _claims_graph() -> Graph:
    """Members reach each other through ``via`` in an order that is not
    their ID order, so a wrongly claimed partition splits groups."""
    graph = Graph()
    for i in range(9):
        item = URI(f"{EX}s{i}")
        graph.add(item, URI(EX + "type"), URI(EX + "C"))
        graph.add(item, URI(EX + "via"), URI(f"{EX}s{(i * 5 + 1) % 9}"))
        graph.add(item, URI(EX + "via"), URI(f"{EX}s{(i * 2 + 3) % 9}"))
        graph.add(item, URI(f"{EX}p{i % 3}"), URI(f"{EX}s{(i + 4) % 9}"))
        graph.add(item, URI(EX + "score"), Literal(i % 4))
    return graph


_GROUPED = "SELECT ?s ?p (COUNT(*) AS ?n) WHERE {{ {} }} GROUP BY ?s ?p"
#: (why, query, what the aggregation may release per)
CLAIMS = [
    ("the chart: ?s then ?p lead the scan order", f"?s {_TYPE} {_CLS} . ?s ?p ?o", ("s", "p")),
    ("incoming: the OSP scan opens ?o before ?p", f"?s {_TYPE} {_CLS} . ?o ?p ?s", ("s",)),
    ("a first scan led by a variable that is no key", f"?s {_VIA} ?x . ?s ?p ?o", ()),
    ("...and led by a key: ?x repeats ?p inside one ?s", f"?s {_TYPE} {_CLS} . ?s {_VIA} ?x . ?s ?p ?o", ("s",)),
    ("a VALUES join (its rows come in text order)", f"VALUES ?s {{ <{EX}s4> <{EX}s1> <{EX}s4> }} ?s ?p ?o", ()),
    ("OPTIONAL", f"?s {_TYPE} {_CLS} OPTIONAL {{ ?s ?p ?o }}", ()),
    ("a path stage (BFS order, duplicates)", f"?y {_VIA}+ ?s . ?s ?p ?o", ()),
    ("UNION (each branch sorted, the whole not)", f"{{ ?s {_TYPE} {_CLS} . ?s ?p ?o }} UNION {{ ?s {_VIA} ?y . ?s ?p ?o }}", ()),
    ("a subquery projecting ?x away: duplicate ?s rows", f"{{ SELECT ?s WHERE {{ ?x {_VIA} ?s }} }} ?s ?p ?o", ()),
]


@pytest.mark.parametrize(
    "text, partition",
    [(_GROUPED.format(body), partition) for _, body, partition in CLAIMS],
    ids=[why for why, _, _ in CLAIMS],
)
def test_an_aggregation_releases_per_no_more_than_its_input_guarantees(
    text, partition
):
    graph = _claims_graph()
    plan = build_physical_plan(graph, text)
    (aggregation,) = _aggregations(plan)
    assert _partitions(plan) == [partition]
    released = " ".join(f"?{name}" for name in partition)
    assert aggregation.detail().endswith(
        f"released per {released}" if partition else "released at end"
    )
    rows = run_to_completion(plan).rows
    assert_matches_oracle(graph, text, rows)
    with order_withheld():
        blocking = build_physical_plan(graph, text)
    assert run_to_completion(blocking).rows == rows
    assert stats_tuple(blocking.stats) == stats_tuple(plan.stats)
