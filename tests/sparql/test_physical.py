"""The physical operator tree: equivalence with the naive reference
evaluator (``tests/properties/naive_sparql.py``), the save/load
protocol, and bounded per-call progress."""

import pytest

from repro.rdf import Graph, Literal, URI
from repro.sparql.algebra import translate_query
from repro.sparql.executor import run_to_completion
from repro.sparql.optimizer import optimize
from repro.sparql.parser import parse_query
from repro.sparql.physical import PlanStateError
from repro.sparql.planner import PhysicalPlanFactory, build_physical_plan

from tests.properties.naive_sparql import NaiveEngine, assert_matches_oracle

EX = "http://ex.org/"


def _uri(name: str) -> URI:
    return URI(EX + name)


@pytest.fixture()
def graph() -> Graph:
    g = Graph()
    for i in range(12):
        person = _uri(f"person{i:02d}")
        g.add(person, _uri("type"), _uri("Person"))
        g.add(person, _uri("age"), Literal(20 + i))
        g.add(person, _uri("name"), Literal(f"name{i:02d}"))
        if i % 3 == 0:
            g.add(person, _uri("city"), _uri(f"city{i % 2}"))
        g.add(person, _uri("knows"), _uri(f"person{(i + 1) % 12:02d}"))
    for i in range(2):
        g.add(_uri(f"city{i}"), _uri("type"), _uri("City"))
    return g


QUERIES = [
    f"SELECT ?s ?a WHERE {{ ?s <{EX}type> <{EX}Person> . ?s <{EX}age> ?a }}",
    f"SELECT ?s ?c WHERE {{ ?s <{EX}age> ?a . OPTIONAL {{ ?s <{EX}city> ?c }} }}",
    f"SELECT DISTINCT ?c WHERE {{ ?s <{EX}city> ?c }}",
    f"SELECT ?s ?a WHERE {{ ?s <{EX}age> ?a }} ORDER BY DESC(?a) LIMIT 4",
    f"SELECT ?c (COUNT(?s) AS ?n) WHERE {{ ?s <{EX}city> ?c }} GROUP BY ?c",
    "SELECT ?s WHERE { { ?s <%stype> <%sPerson> } UNION { ?s <%stype> <%sCity> } } LIMIT 9"
    % (EX, EX, EX, EX),
    f"SELECT ?s WHERE {{ ?s <{EX}age> ?a . FILTER(?a > 25) }}",
    f"SELECT ?s WHERE {{ ?s <{EX}type> <{EX}Person> . "
    f"MINUS {{ ?s <{EX}city> ?c }} }}",
    f"SELECT (STR(?a) AS ?b) WHERE {{ ?s <{EX}age> ?a }} OFFSET 3 LIMIT 5",
    f"ASK {{ ?s <{EX}city> <{EX}city1> }}",
    f"SELECT ?o WHERE {{ <{EX}person00> <{EX}knows>+ ?o }} LIMIT 6",
    f"SELECT ?s ?v WHERE {{ VALUES ?v {{ 1 2 }} ?s <{EX}city> <{EX}city0> }}",
    f"SELECT ?s ?d WHERE {{ ?s <{EX}age> ?a . BIND(?a * 2 AS ?d) "
    f"FILTER(?d < 50) }} ORDER BY ?d",
]


def _compile(graph: Graph, text: str):
    query = parse_query(text)
    algebra, _ = optimize(translate_query(query), graph=graph)
    return query, algebra


def _one_shot(graph: Graph, query, algebra):
    plan = PhysicalPlanFactory(query, algebra).instantiate(graph)
    return run_to_completion(plan), plan.stats


def _stats_tuple(stats):
    return (
        stats.intermediate_bindings,
        stats.pattern_scans,
        stats.groups,
        stats.results,
    )


@pytest.mark.parametrize("text", QUERIES)
def test_physical_matches_evaluator(graph, text):
    """The engine's one-shot answer against the naive evaluator."""
    query, algebra = _compile(graph, text)
    actual, _ = _one_shot(graph, query, algebra)
    if text.startswith("ASK"):
        expected = NaiveEngine(graph).eval(translate_query(query).input)
        assert actual.value == bool(expected)
    else:
        assert_matches_oracle(graph, text, actual.rows)


@pytest.mark.parametrize("text", [q for q in QUERIES if not q.startswith("ASK")])
def test_save_load_at_every_row_boundary(graph, text):
    """Suspending+restoring after each row reproduces the exact run."""
    query, algebra = _compile(graph, text)
    expected, _ = _one_shot(graph, query, algebra)
    factory = PhysicalPlanFactory(query, algebra)

    plan = factory.instantiate(graph)
    rows = []
    while not plan.root.done:
        block = plan.root.next(1)
        if not block:
            continue
        rows += block
        state = plan.save()
        plan = factory.instantiate(graph)
        plan.load(state)
    assert rows == expected.rows


def test_save_state_is_json_serialisable(graph):
    import json

    query, algebra = _compile(graph, QUERIES[4])
    plan = PhysicalPlanFactory(query, algebra).instantiate(graph)
    for _ in range(5):
        plan.root.next(1)
    state = plan.save()
    restored = json.loads(json.dumps(state))
    clone = PhysicalPlanFactory(query, algebra).instantiate(graph)
    clone.load(restored)


def test_load_rejects_mismatched_plan_shape(graph):
    q1, a1 = _compile(graph, QUERIES[0])
    q2, a2 = _compile(graph, QUERIES[4])
    state = PhysicalPlanFactory(q1, a1).instantiate(graph).save()
    other = PhysicalPlanFactory(q2, a2).instantiate(graph)
    with pytest.raises(PlanStateError):
        other.load(state)


def test_construct_runs_on_the_physical_plan(graph):
    """CONSTRUCT is its WHERE pattern as a plan plus the template: the
    plan is not pageable, and completion boxes a graph."""
    plan = build_physical_plan(
        graph,
        f"CONSTRUCT {{ ?c <{EX}hosts> ?s }} WHERE {{ ?s <{EX}city> ?c }} LIMIT 3",
    )
    assert not plan.factory.pageable
    result = run_to_completion(plan)
    assert len(result.graph) == 3
    assert all(t.predicate == _uri("hosts") for t in result.graph)
    assert any(op.label == "Slice" for op in plan.root.walk())


def test_exists_subpattern_compiles_once_per_execution(graph):
    """FILTER EXISTS runs a physical sub-plan per outer row — compiled
    once per execution, counted into the parent's stats."""
    text = (
        f"SELECT ?s WHERE {{ ?s <{EX}type> <{EX}Person> "
        f"FILTER EXISTS {{ ?s <{EX}city> ?c }} }}"
    )
    plan = build_physical_plan(graph, text)
    result = run_to_completion(plan)
    assert len(result.rows) == 4
    assert len(plan.runtime._exists_plans) == 1
    without = build_physical_plan(
        graph, f"SELECT ?s WHERE {{ ?s <{EX}type> <{EX}Person> }}"
    )
    run_to_completion(without)
    # one sub-plan scan per outer row on top of the outer query's own
    assert plan.stats.pattern_scans == without.stats.pattern_scans + 12
    assert_matches_oracle(graph, text, result.rows)


def test_pipeline_breaker_reports_bounded_progress(graph):
    """ORDER BY buffers in bounded batches: next(limit) yields an empty
    block (progress, no row) before the first row — the hook
    time-slicing relies on."""
    plan = build_physical_plan(
        graph, f"SELECT ?s WHERE {{ ?s ?p ?o }} ORDER BY ?s"
    )
    none_steps = 0
    first_row = []
    while not first_row and not plan.root.done:
        first_row = plan.root.next(1)
        if not first_row:
            none_steps += 1
    assert first_row
    assert none_steps > 0


def test_operator_counters_and_walk(graph):
    plan = build_physical_plan(
        graph,
        f"SELECT ?s ?a WHERE {{ ?s <{EX}type> <{EX}Person> . "
        f"?s <{EX}age> ?a }} ORDER BY ?a LIMIT 3",
    )
    run_to_completion(plan)
    operators = list(plan.root.walk())
    assert len(operators) >= 3
    assert plan.root.rows_produced == 3
    for op in operators:
        assert op.calls > 0
        assert op.wall_s >= 0.0
        assert isinstance(op.detail(), str)


def test_resume_does_not_double_bill_scans(graph):
    """A restored scan skips already-delivered candidates without
    re-charging pattern_scans for the replayed scan start."""
    text = f"SELECT ?s ?a WHERE {{ ?s <{EX}age> ?a }}"
    query, algebra = _compile(graph, text)
    factory = PhysicalPlanFactory(query, algebra)

    one_shot = factory.instantiate(graph)
    run_to_completion(one_shot)

    resumed = factory.instantiate(graph)
    total_rows = 0
    while not resumed.root.done:
        block = resumed.root.next(1)
        if block:
            total_rows += len(block)
            state = resumed.save()
            resumed_stats_carrier = factory.instantiate(graph)
            # Stats live on the runtime, not the token: carry them over
            # the way the executor's restore_plan does.
            resumed_stats_carrier.runtime.stats.merge(resumed.stats)
            resumed_stats_carrier.load(state)
            resumed = resumed_stats_carrier
    assert total_rows == 12
    assert resumed.stats.pattern_scans == one_shot.stats.pattern_scans
    assert (
        resumed.stats.intermediate_bindings
        == one_shot.stats.intermediate_bindings
    )
