"""Ablation — graph hash indexes (SPO/POS/OSP) vs a linear scan.

DESIGN.md Section 5: every bound-position pattern should be answered
without a full scan; this bench quantifies what the indexes buy and what
the decomposer's precomputation buys over running the join each time.
"""

import pytest

from repro.core import Direction, MemberPattern, property_chart_query
from repro.datasets.dbpedia import OWL_THING
from repro.endpoint import LocalEndpoint, SimClock
from repro.perf import Decomposer, MaterializedViews
from repro.rdf import RDF, TriplePattern
from repro.rdf.graph import Graph


def _linear_scan(graph, subject=None, predicate=None, object=None):
    pattern = TriplePattern(subject, predicate, object)
    return [triple for triple in graph.triples() if pattern.matches(triple)]


@pytest.fixture(scope="module")
def type_pattern(dbpedia):
    return (None, RDF.term("type"), dbpedia.facts["philosopher"])


def test_indexed_pattern_lookup(benchmark, dbpedia_graph, type_pattern):
    result = benchmark(lambda: list(dbpedia_graph.triples(*type_pattern)))
    assert len(result) == 40


def test_linear_scan_baseline(benchmark, dbpedia_graph, type_pattern):
    result = benchmark.pedantic(
        _linear_scan,
        args=(dbpedia_graph,),
        kwargs=dict(
            predicate=type_pattern[1], object=type_pattern[2]
        ),
        rounds=5,
        iterations=1,
    )
    assert len(result) == 40


def test_indexed_count_constant_time(benchmark, dbpedia_graph, type_pattern):
    count = benchmark(
        lambda: dbpedia_graph.count(None, type_pattern[1], type_pattern[2])
    )
    assert count == 40


def test_decomposer_vs_join_execution(benchmark, dbpedia_graph, report):
    """Index lookup vs executing the nested aggregation, wall-clock."""
    import time

    query = property_chart_query(MemberPattern.of_type(OWL_THING))
    endpoint = LocalEndpoint(dbpedia_graph, clock=SimClock())
    decomposer = Decomposer(MaterializedViews(dbpedia_graph, track=False), clock=SimClock())

    start = time.perf_counter()
    endpoint.select(query)
    join_seconds = time.perf_counter() - start

    answer = benchmark(decomposer.try_answer, query)
    assert answer is not None

    start = time.perf_counter()
    decomposer.try_answer(query)
    index_seconds = time.perf_counter() - start
    report(
        "ablation_indexes",
        "Ablation - decomposer index vs join execution (wall-clock)",
        [
            ("join execution (s)", f"{join_seconds:.4f}"),
            ("index lookup (s)", f"{index_seconds:.4f}"),
            ("speedup", f"{join_seconds / max(index_seconds, 1e-9):.1f}x"),
        ],
    )
    assert index_seconds < join_seconds


def test_index_build_cost(benchmark, dbpedia_graph):
    """The offline price paid for the decomposer's speed."""
    indexes = benchmark.pedantic(
        MaterializedViews,
        args=(dbpedia_graph,),
        kwargs={"track": False},
        rounds=3,
        iterations=1,
    )
    assert indexes.instance_count(OWL_THING) > 0
