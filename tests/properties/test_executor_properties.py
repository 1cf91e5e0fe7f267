"""Property tests for the suspendable executor: paging a query through
continuation tokens — suspending at random page sizes, serialising the
token at every boundary — must reproduce the one-shot answer exactly
(rows, order, and work counters) on random graphs and random queries.
Row budgets include the block boundary (1, BLOCK-1, BLOCK, BLOCK+1) and,
on graphs wide enough to cross it, deadlines that suspend after every
single block step (mid-build, mid-outer-row)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, URI
from repro.sparql.ast import TriplePatternNode, Var
from repro.sparql.executor import (
    decode_continuation,
    encode_continuation,
    restore_plan,
    run_quantum,
    run_to_completion,
)
from repro.sparql.planner import build_physical_plan

from .paging import page_sizes, run_paged, schedules, stats_tuple, wide_graphs

_VARS = [Var("a"), Var("b"), Var("c")]
_TERMS = [URI(f"http://ex.org/t{i}") for i in range(4)]
_PREDS = [URI(f"http://ex.org/p{i}") for i in range(3)]

_MODIFIERS = ["", " ORDER BY ?a", " LIMIT 7", " ORDER BY DESC(?a) LIMIT 5"]


@st.composite
def dense_graphs(draw) -> Graph:
    """Small graphs over a tiny vocabulary so joins actually match."""
    graph = Graph()
    count = draw(st.integers(1, 25))
    for _ in range(count):
        graph.add(
            draw(st.sampled_from(_TERMS)),
            draw(st.sampled_from(_PREDS)),
            draw(st.sampled_from(_TERMS)),
        )
    return graph


@st.composite
def triple_patterns(draw) -> TriplePatternNode:
    def position(pool):
        if draw(st.booleans()):
            return draw(st.sampled_from(_VARS))
        return draw(st.sampled_from(pool))

    return TriplePatternNode(
        subject=position(_TERMS),
        predicate=position(_PREDS),
        object=position(_TERMS),
    )


def _pattern_text(pattern: TriplePatternNode) -> str:
    def show(term):
        return str(term) if isinstance(term, Var) else term.n3()

    return (
        f"{show(pattern.subject)} {show(pattern.predicate)} "
        f"{show(pattern.object)} ."
    )


@st.composite
def select_queries(draw) -> str:
    patterns = draw(st.lists(triple_patterns(), min_size=1, max_size=3))
    names = []
    for pattern in patterns:
        for term in pattern:
            if isinstance(term, Var) and term.name not in names:
                names.append(term.name)
    if not names:
        names = ["a"]
        patterns.append(
            TriplePatternNode(Var("a"), _PREDS[0], Var("a"))
        )
    modifier = draw(st.sampled_from(_MODIFIERS))
    if "?a" in modifier and "a" not in names:
        modifier = modifier.replace("?a", "?" + names[0])
    return (
        f"SELECT {' '.join('?' + n for n in names)} WHERE {{ "
        + " ".join(_pattern_text(p) for p in patterns)
        + " }"
        + modifier
    )


def _canonical(rows):
    return [
        tuple(sorted((name, value.n3()) for name, value in row.items()))
        for row in rows
    ]


@given(dense_graphs(), select_queries(), page_sizes(6))
@settings(max_examples=80, deadline=None)
def test_paged_run_equals_one_shot(graph, query, page_size):
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
        # Serialise the continuation at every suspension point and
        # restore into a brand-new operator tree, as a client would.
        token = encode_continuation(plan, graph, query)
        plan = restore_plan(factory, graph, decode_continuation(token))
    else:  # pragma: no cover - guards against a non-terminating loop
        raise AssertionError("paged execution did not terminate")

    assert _canonical(rows) == _canonical(expected.rows)  # order too
    assert scans == expected_plan.stats.pattern_scans
    assert bindings == expected_plan.stats.intermediate_bindings


@given(dense_graphs(), select_queries(), st.lists(page_sizes(9), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_varying_page_sizes_between_resumes(graph, query, sizes):
    """The page size may change between resumes (a client is free to
    ask for a different screenful each time)."""
    expected = run_to_completion(build_physical_plan(graph, query))

    factory = build_physical_plan(graph, query).factory
    plan = factory.instantiate(graph)
    rows = []
    step = 0
    for _ in range(10_000):
        page = run_quantum(plan, page_size=sizes[step % len(sizes)])
        step += 1
        rows.extend(page.rows)
        if page.complete:
            break
        token = encode_continuation(plan, graph, query)
        plan = restore_plan(factory, graph, decode_continuation(token))
    else:  # pragma: no cover
        raise AssertionError("paged execution did not terminate")

    assert _canonical(rows) == _canonical(expected.rows)


@given(wide_graphs(_TERMS, _PREDS, _TERMS), select_queries(), schedules())
@settings(max_examples=40, deadline=None)
def test_block_boundary_suspensions_equal_one_shot(graph, query, schedule):
    """Hundreds of rows, so row budgets of BLOCK-1 / BLOCK / BLOCK+1 cut
    real pages and one-step deadlines land inside scans (mid-outer-row)
    and sorts (mid-build): rows, order and work counters still match."""
    expected_plan = build_physical_plan(graph, query)
    expected = run_to_completion(expected_plan)

    factory = build_physical_plan(graph, query).factory
    rows, stats, _ = run_paged(factory, graph, query, schedule)

    assert _canonical(rows) == _canonical(expected.rows)  # order too
    assert stats_tuple(stats) == stats_tuple(expected_plan.stats)
