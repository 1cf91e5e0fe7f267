"""Regression tests: LIMIT bounds the work of join pipelines.

The hash joins build their (right) side eagerly but *stream* the probe
side, so a ``Slice`` above a join must stop pulling the probe subtree
after ``limit`` rows — the scan and binding counters stay bounded
instead of growing with the data.  Both entries to the engine are
covered: the optimized plan (``build_physical_plan``) and the uncached,
unoptimized one (``Evaluator.run``).
"""

import pytest

from repro.rdf import Graph, Literal, URI
from repro.sparql.evaluator import Evaluator
from repro.sparql.executor import run_to_completion
from repro.sparql.parser import parse_query
from repro.sparql.planner import build_physical_plan

EX = "http://ex.org/"
N = 400  # members on the streaming (probe) side
LIMIT = 3


@pytest.fixture(scope="module")
def graph() -> Graph:
    g = Graph()
    for i in range(N):
        subject = URI(f"{EX}s{i}")
        g.add(subject, URI(EX + "p1"), Literal(i))
        g.add(subject, URI(EX + "p2"), Literal(i % 7))
    return g


def _physical_stats(graph, text):
    plan = build_physical_plan(graph, text)
    result = run_to_completion(plan)
    return len(result.rows), plan.stats


def _evaluator_stats(graph, text):
    evaluator = Evaluator(graph)
    result = evaluator.run(parse_query(text))
    return len(result.rows), evaluator.stats


JOIN = f"SELECT ?s ?a WHERE {{ ?s <{EX}p1> ?a . ?s <{EX}p2> ?b }}"
OPTIONAL = f"SELECT ?s WHERE {{ ?s <{EX}p1> ?a . OPTIONAL {{ ?s <{EX}p2> ?b }} }}"


@pytest.mark.parametrize("runner", [_physical_stats, _evaluator_stats])
def test_limit_bounds_bgp_join_scans(graph, runner):
    """An index-nested BGP join starts one scan per probe row: LIMIT
    must cap that at O(limit), not O(N)."""
    full_rows, full = runner(graph, JOIN)
    limited_rows, limited = runner(graph, JOIN + f" LIMIT {LIMIT}")
    assert full_rows == N
    assert limited_rows == LIMIT
    assert full.pattern_scans >= N  # the unlimited run really is O(N)
    # 1 scan for the driving pattern + one per delivered probe row,
    # with a little slack for prefetch batching.
    assert limited.pattern_scans <= 1 + 2 * LIMIT
    assert limited.intermediate_bindings <= 2 * LIMIT


@pytest.mark.parametrize("runner", [_physical_stats, _evaluator_stats])
def test_limit_bounds_hash_join_probe_side(graph, runner):
    """A hash join drains its build side (O(N) is unavoidable there)
    but the probe side streams: total work under LIMIT stays near one
    build-side pass instead of two full passes."""
    full_rows, full = runner(graph, OPTIONAL)
    limited_rows, limited = runner(graph, OPTIONAL + f" LIMIT {LIMIT}")
    assert full_rows == N
    assert limited_rows == LIMIT
    assert full.intermediate_bindings >= 2 * N
    # build side (N) + bounded probe; far below the unlimited 3N.
    assert limited.intermediate_bindings <= N + 8 * LIMIT


def test_both_halves_agree_on_bounded_work(graph):
    """The optimizer must not cost a LIMIT query any work: the optimized
    plan does exactly what the raw translation does."""
    for text in (JOIN + f" LIMIT {LIMIT}", OPTIONAL + f" LIMIT {LIMIT}"):
        _, physical = _physical_stats(graph, text)
        _, evaluator = _evaluator_stats(graph, text)
        assert physical.pattern_scans == evaluator.pattern_scans
        assert (
            physical.intermediate_bindings == evaluator.intermediate_bindings
        )
