"""The block-at-a-time operator protocol: ``next(limit)`` returns at
most ``limit`` rows and does a bounded amount of work, whatever the
operator and wherever it is in its life cycle.

Bounded work per call is what makes the time quantum mean something:
the executor only looks at the clock between two root calls, so no call
may run on until it has ``limit`` rows if the rows are not coming (a
scan whose filters reject every candidate, a HAVING that rejects every
group, a build phase over a large input).
"""

import pytest

from repro.rdf import Graph, Literal, URI
from repro.sparql import physical
from repro.sparql.physical import (
    BLOCK,
    AggregationOp,
    HashJoinOp,
    LeftJoinOp,
    MinusOp,
    OrderByOp,
    PatternScanOp,
    PhysicalOperator,
    TopKOp,
)
from repro.sparql.planner import build_physical_plan

EX = "http://ex.org/"
ROWS = 5 * BLOCK + 3  # every input crosses several block boundaries


@pytest.fixture(scope="module")
def graph() -> Graph:
    g = Graph()
    with g.bulk():
        for i in range(ROWS):
            item = URI(f"{EX}item{i:04d}")
            g.add(item, URI(EX + "type"), URI(EX + "Item"))
            g.add(item, URI(EX + "rank"), Literal(i % 17))
            g.add(item, URI(EX + "next"), URI(f"{EX}item{(i + 1) % ROWS:04d}"))
            if i % 3 == 0:
                g.add(item, URI(EX + "tag"), Literal(f"tag{i % 5}"))
    return g


ITEMS = f"?s <{EX}type> <{EX}Item>"
RANKS = f"?s <{EX}rank> ?r"

#: Between them these plans mount every operator class of the package.
QUERIES = [
    f"SELECT ?s ?r WHERE {{ {ITEMS} . {RANKS} }}",
    f"SELECT DISTINCT ?r WHERE {{ {RANKS} }}",
    f"SELECT REDUCED ?r WHERE {{ {RANKS} }}",
    f"SELECT ?r (COUNT(*) AS ?n) WHERE {{ {RANKS} }} GROUP BY ?r",
    f"SELECT ?s ?r WHERE {{ {RANKS} }} ORDER BY DESC(?r) ?s",
    f"SELECT ?s ?r WHERE {{ {RANKS} }} ORDER BY ?r LIMIT {BLOCK + 9}",
    f"SELECT ?s WHERE {{ {ITEMS} }} OFFSET {BLOCK + 1} LIMIT {BLOCK + 2}",
    f"SELECT ?s ?t WHERE {{ {ITEMS} OPTIONAL {{ ?s <{EX}tag> ?t }} }}",
    f"SELECT ?s WHERE {{ {ITEMS} MINUS {{ ?s <{EX}tag> ?t }} }}",
    f"SELECT ?s WHERE {{ {{ {ITEMS} }} UNION {{ ?s <{EX}tag> ?t }} }}",
    f"SELECT ?s ?r ?t WHERE {{ {{ SELECT ?s ?r WHERE {{ {RANKS} }} }} "
    f"{{ SELECT ?s ?t WHERE {{ ?s <{EX}tag> ?t }} }} }}",
    f"SELECT ?s ?d WHERE {{ {RANKS} BIND(?r * 2 AS ?d) FILTER(?d > 7) }}",
    f"SELECT ?s ?t WHERE {{ {ITEMS} OPTIONAL {{ ?s <{EX}tag> ?t }} "
    f"FILTER(!BOUND(?t)) }}",
    f"SELECT ?s ?v WHERE {{ VALUES ?v {{ 1 2 3 }} ?s <{EX}rank> ?v }}",
    f"SELECT ?o WHERE {{ <{EX}item0000> <{EX}next>+ ?o }}",
    "SELECT (1 + 1 AS ?two) WHERE { }",
]

OPERATOR_CLASSES = {
    value
    for value in (getattr(physical, name) for name in physical.__all__)
    if isinstance(value, type)
    and issubclass(value, PhysicalOperator)
    and value is not PhysicalOperator
}


def _operators(graph, text):
    return list(build_physical_plan(graph, text).root.walk())


def test_the_queries_mount_every_operator_class(graph):
    mounted = {type(op) for text in QUERIES for op in _operators(graph, text)}
    assert mounted == OPERATOR_CLASSES


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("text", QUERIES)
def test_no_operator_returns_more_than_it_was_asked_for(graph, text, k):
    """Every operator of every plan, driven on its own with budget k
    (each subtree is itself a plan), start to finish."""
    for index, op in enumerate(_operators(graph, text)):
        # A fresh tree per operator: driving one drains its subtree.
        op = _operators(graph, text)[index]
        produced = 0
        for _ in range(100_000):
            if op.done:
                break
            rows = op.next(k)
            assert len(rows) <= k, type(op).__name__
            produced += len(rows)
        else:  # pragma: no cover
            raise AssertionError(f"{type(op).__name__} never finished")
        assert op.rows_produced == produced


class Counting(PhysicalOperator):
    """Stands in for a blocking operator's input and counts what that
    operator takes from it."""

    label = "Counting"

    def __init__(self, inner: PhysicalOperator):
        super().__init__(inner.runtime)
        self.inner = inner
        self.pulled = 0

    done = property(
        lambda self: self.inner.done, lambda self, value: None
    )

    def _next(self, limit):
        rows = self.inner.next(limit)
        self.pulled += len(rows)
        return rows


#: (query, blocking operator, the attribute holding its blocking input)
BLOCKING = [
    (QUERIES[3], AggregationOp, "child"),
    (QUERIES[4], OrderByOp, "child"),
    (QUERIES[5], TopKOp, "child"),
    (QUERIES[10], HashJoinOp, "right"),
    (QUERIES[7], LeftJoinOp, "right"),
    (QUERIES[8], MinusOp, "right"),
]


@pytest.mark.parametrize("k", [1, 7, BLOCK])
@pytest.mark.parametrize(
    "text, operator_class, side", BLOCKING, ids=lambda v: getattr(v, "__name__", None)
)
def test_a_build_step_absorbs_at_most_one_block(
    graph, text, operator_class, side, k
):
    (op,) = [
        op for op in _operators(graph, text) if isinstance(op, operator_class)
    ]
    stub = Counting(getattr(op, side))
    setattr(op, side, stub)
    for _ in range(100_000):
        if op.done:
            break
        before = stub.pulled
        rows = op.next(k)
        assert stub.pulled - before <= BLOCK
        assert len(rows) <= k
    else:  # pragma: no cover
        raise AssertionError("never finished")
    assert stub.pulled > BLOCK  # the input really was several blocks


class CountingStore:
    """Counts the candidates the scans draw from the index."""

    def __init__(self, graph):
        self._graph = graph
        self.examined = 0

    def __getattr__(self, name):
        return getattr(self._graph, name)

    def triples_ids(self, s=None, p=None, o=None):
        for triple in self._graph.triples_ids(s, p, o):
            self.examined += 1
            yield triple


@pytest.mark.parametrize("k", [1, 7, BLOCK])
def test_a_scan_whose_filters_reject_everything_still_returns(graph, k):
    plan = build_physical_plan(
        graph,
        f'SELECT ?s WHERE {{ ?s <{EX}rank> ?r FILTER(STR(?r) = "no") }}',
    )
    (scan,) = [op for op in plan.root.walk() if isinstance(op, PatternScanOp)]
    assert scan.post_filters, "the filter must sit inside the scan"
    store = plan.runtime.graph = CountingStore(graph)
    calls = 0
    while not scan.done:
        before = store.examined
        assert scan.next(k) == []  # limit unmet, and it came back anyway
        assert store.examined - before <= BLOCK
        calls += 1
    assert store.examined == ROWS
    assert calls >= ROWS // BLOCK


@pytest.mark.parametrize("k", [1, 7, BLOCK])
def test_an_aggregation_whose_having_rejects_everything_still_returns(graph, k):
    plan = build_physical_plan(
        graph,
        f"SELECT ?s (COUNT(*) AS ?n) WHERE {{ ?s <{EX}rank> ?r }} "
        f"GROUP BY ?s HAVING (COUNT(*) > 99)",
    )
    (agg,) = [op for op in plan.root.walk() if isinstance(op, AggregationOp)]
    while agg._phase == "build":
        assert agg.next(k) == []
    stats = plan.stats
    calls = 0
    while not agg.done:
        before = stats.groups
        assert agg.next(k) == []
        assert stats.groups - before <= BLOCK
        calls += 1
    assert stats.groups == ROWS
    assert calls >= ROWS // BLOCK


@pytest.mark.parametrize("k", [1, 7, BLOCK])
def test_an_ordered_aggregation_releases_groups_while_its_input_runs(graph, k):
    """Absorbing and releasing are one loop: a call pulls at most one
    block, and only once every complete group has left — so what is
    pending never exceeds one block's groups plus the open partition."""
    plan = build_physical_plan(
        graph,
        f"SELECT ?s (COUNT(*) AS ?n) WHERE {{ {ITEMS} . {RANKS} }} GROUP BY ?s",
    )
    (agg,) = [op for op in plan.root.walk() if isinstance(op, AggregationOp)]
    assert agg.detail() == "group by ?s, released per ?s"
    stub = agg.child = Counting(agg.child)
    pulled_at_first_row = None
    produced = 0
    while not agg.done:
        before = stub.pulled
        rows = agg.next(k)
        assert len(rows) <= k
        assert stub.pulled - before <= BLOCK
        assert len(agg._ready) + len(agg._groups) <= BLOCK + 1
        produced += len(rows)
        if rows and pulled_at_first_row is None:
            pulled_at_first_row = stub.pulled
    assert produced == ROWS == plan.stats.groups
    assert pulled_at_first_row <= BLOCK  # not after all ROWS members
