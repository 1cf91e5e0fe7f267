"""Encoded (ID-space) execution: right answers, however it is paged.

The physical operators run on dictionary-encoded integer bindings with
late materialization at the plan root, a block at a time.  These
properties pin that down on random graphs and random queries from two
sides:

* **physical ≡ naive oracle** — the one-shot answer has the rows (and,
  where ORDER BY fixes it, the order) of the deliberately naive
  term-space evaluator in :mod:`.naive_sparql`;
* **paged ≡ one-shot** — suspending at random points via
  ``run_quantum`` and restoring from a serialised continuation token
  reproduces exactly the one-shot rows, order and ``EvalStats``.

The aggregation operator has two folds — an ID-space kernel for the
chart shape (plain-variable keys; ``COUNT(*)`` / ``COUNT(?v)`` /
``SUM(?v)`` / ``AVG(?v)``) and the generic per-member fold for
everything else.  ``_AGGREGATE_SHAPES`` hits both, often in one query,
and the kernel is checked against the generic fold (forced) *and* the
oracle.  ``EXISTS_SHAPES`` run a physical sub-plan per outer row inside
one operator step; they get the same two-sided check."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, Literal, URI
from repro.sparql.algebra import translate_query
from repro.sparql.executor import (
    decode_continuation,
    encode_continuation,
    restore_plan,
    run_quantum,
    run_to_completion,
)
from repro.sparql.optimizer import optimize
from repro.sparql.parser import parse_query
from repro.sparql.physical import AggregationOp
from repro.sparql.planner import PhysicalPlanFactory

from .naive_sparql import assert_matches_oracle
from .paging import (
    EXISTS_SHAPES,
    page_sizes,
    run_paged,
    schedules,
    stats_tuple as _stats_tuple,
    wide_graphs,
)

EX = "http://ex.org/"

_SUBJECTS = [URI(EX + f"s{i}") for i in range(5)]
_PREDS = [URI(EX + f"p{i}") for i in range(3)]
_OBJECTS = _SUBJECTS[:3] + [URI(EX + "o0"), URI(EX + "o1")] + [
    Literal(i) for i in range(4)
]


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
            else draw(st.sampled_from(_SUBJECTS)).n3()
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


def _compile(graph, text):
    query = parse_query(text)
    algebra, _ = optimize(translate_query(query), graph=graph)
    return query, algebra


def _one_shot(graph, text):
    """The factory plus its one-shot run, oracle-checked."""
    factory = PhysicalPlanFactory(*_compile(graph, text))
    plan = factory.instantiate(graph)
    expected = run_to_completion(plan)
    assert_matches_oracle(graph, text, expected.rows)
    return factory, expected, plan.stats


@given(dense_graphs(), queries())
@settings(max_examples=80, deadline=None)
def test_encoded_execution_matches_term_execution(graph, text):
    """One-shot ID-space execution against the term-space oracle, and
    against itself unoptimized (same rows; the plan may differ)."""
    _, expected, _ = _one_shot(graph, text)
    query = parse_query(text)
    raw = PhysicalPlanFactory(query, translate_query(query)).instantiate(graph)
    assert_matches_oracle(graph, text, run_to_completion(raw).rows)
    assert raw.variables == expected.vars


@given(dense_graphs(), queries(), page_sizes(5))
@settings(max_examples=50, deadline=None)
def test_suspended_encoded_execution_matches_term_execution(
    graph, text, page_size
):
    """Random suspension points: paging the encoded plan through
    serialised continuation tokens reproduces the one-shot answer."""
    factory, expected, one_shot_stats = _one_shot(graph, text)
    plan = factory.instantiate(graph)
    rows = []
    bindings = 0
    scans = 0
    for _ in range(10_000):
        page = run_quantum(plan, page_size=page_size)
        rows.extend(page.rows)
        bindings += page.stats.intermediate_bindings
        scans += page.stats.pattern_scans
        if page.complete:
            break
        token = encode_continuation(plan, graph, text)
        plan = restore_plan(factory, graph, decode_continuation(token))
    else:  # pragma: no cover - guards against a non-terminating loop
        raise AssertionError("paged execution did not terminate")

    assert rows == expected.rows
    assert bindings == one_shot_stats.intermediate_bindings
    assert scans == one_shot_stats.pattern_scans


@given(wide_graphs(_SUBJECTS, _PREDS, _OBJECTS), queries(), schedules())
@settings(max_examples=30, deadline=None)
def test_block_boundary_suspensions_match_term_execution(graph, text, schedule):
    """Graphs wide enough to cross block boundaries, suspended at
    BLOCK-1 / BLOCK / BLOCK+1 rows and after single block steps
    (an aggregation with part of a block absorbed, a scan in the middle
    of an outer row's candidates)."""
    factory, expected, one_shot_stats = _one_shot(graph, text)
    rows, stats, _ = run_paged(factory, graph, text, schedule)

    assert rows == expected.rows
    assert _stats_tuple(stats) == _stats_tuple(one_shot_stats)


@given(
    st.one_of(dense_graphs(), wide_graphs(_SUBJECTS, _PREDS, _OBJECTS)),
    st.sampled_from(EXISTS_SHAPES),
    schedules(),
)
@settings(max_examples=40, deadline=None)
def test_exists_subplans_match_oracle_and_paging(graph, shape, schedule):
    """FILTER EXISTS / NOT EXISTS / EXISTS under OPTIONAL: the sub-plan
    runs whole inside one operator step, so its rows and its work are
    the same wherever the outer plan is suspended."""
    text = shape.format(p0=_P0, p1=_P1, p2=_P2)
    factory, expected, one_shot_stats = _one_shot(graph, text)
    rows, stats, _ = run_paged(factory, graph, text, schedule)

    assert rows == expected.rows
    assert _stats_tuple(stats) == _stats_tuple(one_shot_stats)


_P0, _P1, _P2 = (pred.n3() for pred in _PREDS)
#: ``?v`` is OPTIONAL (unbound for some members) and ranges over URIs
#: and integers (non-numeric for some members): SUM/AVG skip the first
#: and are poisoned by the second.
_MEMBERS = f"?s {_P0} ?o . OPTIONAL {{ ?s {_P1} ?v }}"
_AGGREGATE_SHAPES = [
    # ID-space fold, every aggregate it covers.
    f"SELECT ?s (COUNT(*) AS ?n) (COUNT(?v) AS ?c) (SUM(?v) AS ?t) "
    f"(AVG(?v) AS ?m) WHERE {{ {_MEMBERS} }} GROUP BY ?s",
    # ...keyed on the sometimes-unbound variable, aliased.
    f"SELECT ?k (COUNT(*) AS ?n) (SUM(?o) AS ?t) "
    f"WHERE {{ {_MEMBERS} }} GROUP BY (?v AS ?k)",
    # ...implicit single group.
    f"SELECT (COUNT(*) AS ?n) (SUM(?v) AS ?t) WHERE {{ {_MEMBERS} }}",
    # Generic streaming fold: one MIN sends the whole operator there.
    f"SELECT ?s (COUNT(*) AS ?n) (SUM(?v) AS ?t) (MIN(?v) AS ?lo) "
    f"(MAX(?o) AS ?hi) WHERE {{ {_MEMBERS} }} GROUP BY ?s",
    # ...an expression argument, an expression key.
    f"SELECT ?s (SUM(?v + 1) AS ?t) WHERE {{ {_MEMBERS} }} GROUP BY ?s",
    f"SELECT ?k (COUNT(*) AS ?n) (SUM(?v) AS ?t) "
    f"WHERE {{ {_MEMBERS} }} GROUP BY (STR(?s) AS ?k)",
    # Buffered groups: DISTINCT, HAVING.
    f"SELECT ?s (COUNT(DISTINCT ?v) AS ?d) (COUNT(*) AS ?n) "
    f"WHERE {{ {_MEMBERS} }} GROUP BY ?s",
    f"SELECT ?s (COUNT(*) AS ?n) WHERE {{ {_MEMBERS} }} "
    f"GROUP BY ?s HAVING (COUNT(*) > 2)",
    # The chart (Fig. 4): the outer fold reads the inner COUNT(*) back.
    "SELECT ?p (COUNT(?p) AS ?count) (SUM(?sp) AS ?triples) WHERE { "
    "{ SELECT ?s ?p (COUNT(*) AS ?sp) WHERE { ?s ?p ?o } GROUP BY ?s ?p } "
    "} GROUP BY ?p ORDER BY DESC(?count)",
    # Both folds in one query: generic / buffered outer over a kernel inner.
    "SELECT ?p (SUM(?sp) AS ?triples) (MIN(?sp) AS ?least) "
    "(COUNT(DISTINCT ?sp) AS ?kinds) WHERE { "
    "{ SELECT ?s ?p (COUNT(*) AS ?sp) (SUM(?o) AS ?t) WHERE { ?s ?p ?o } "
    "GROUP BY ?s ?p } } GROUP BY ?p ORDER BY ?p",
    # ...and the other way round: kernel outer over a generic inner.
    "SELECT ?s (COUNT(*) AS ?n) (SUM(?lo) AS ?t) (AVG(?lo) AS ?m) WHERE { "
    "{ SELECT ?s ?p (MIN(?o) AS ?lo) WHERE { ?s ?p ?o } GROUP BY ?s ?p } "
    "} GROUP BY ?s",
]


def _aggregations(plan):
    return [op for op in plan.root.walk() if isinstance(op, AggregationOp)]


def test_aggregate_shapes_cover_both_folds():
    graph = Graph([(_SUBJECTS[0], _PREDS[0], _OBJECTS[0])])
    kernel, generic, mixed = 0, 0, 0
    for text in _AGGREGATE_SHAPES:
        plan = PhysicalPlanFactory(*_compile(graph, text)).instantiate(graph)
        folds = {op._id_fold is not None for op in _aggregations(plan)}
        kernel += folds == {True}
        generic += folds == {False}
        mixed += folds == {True, False}
    assert kernel >= 3 and generic >= 3 and mixed >= 2


@given(
    st.one_of(dense_graphs(), wide_graphs(_SUBJECTS, _PREDS, _OBJECTS)),
    st.sampled_from(_AGGREGATE_SHAPES),
    schedules(),
)
@settings(max_examples=60, deadline=None)
def test_id_space_fold_matches_generic_fold_and_evaluator(graph, text, schedule):
    """fold ≡ fallback ≡ naive evaluator — one-shot and suspended
    mid-build."""
    factory, expected, kernel_stats = _one_shot(graph, text)

    fallback = factory.instantiate(graph)
    for op in _aggregations(fallback):
        op._id_fold = None  # force the generic per-member fold
    assert run_to_completion(fallback).rows == expected.rows  # values AND order
    assert _stats_tuple(fallback.stats) == _stats_tuple(kernel_stats)

    rows, stats, _ = run_paged(factory, graph, text, schedule)
    assert rows == expected.rows
    assert _stats_tuple(stats) == _stats_tuple(kernel_stats)
