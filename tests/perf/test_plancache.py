"""Tests for the version-aware LRU plan cache and its endpoint wiring."""

import pytest

from repro.endpoint.clock import SimClock
from repro.endpoint.local import LocalEndpoint
from repro.obs.metrics import REGISTRY
from repro.perf.plancache import (
    _EVICTIONS_TOTAL,
    _HITS,
    _INVALIDATIONS_TOTAL,
    _MISSES,
    CachedPlan,
    PlanCache,
    build_plan,
)
from repro.rdf import Graph, Literal, URI
from repro.sparql import optimizer  # noqa: F401  (registers its run counter)
from repro.sparql.algebra import BGP, translate_query
from repro.sparql.parser import parse_query

EX = "http://example.org/"
QUERY = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"


@pytest.fixture
def graph():
    g = Graph()
    for i in range(5):
        g.add(URI(f"{EX}s{i}"), URI(f"{EX}p"), Literal(str(i)))
    return g


class TestPlanCache:
    def test_miss_then_hit(self, graph):
        cache = PlanCache()
        hits, misses = _HITS.value, _MISSES.value
        first = cache.get(QUERY, graph=graph)
        assert _MISSES.value == misses + 1 and _HITS.value == hits
        second = cache.get(QUERY, graph=graph)
        assert _HITS.value == hits + 1
        assert second is first
        assert len(cache) == 1

    def test_key_is_whitespace_normalised(self, graph):
        cache = PlanCache()
        first = cache.get(QUERY, graph=graph)
        second = cache.get(
            f"SELECT ?s ?o\nWHERE {{\n  ?s <{EX}p> ?o\n}}", graph=graph
        )
        assert second is first

    def test_version_invalidation_rederives_plan(self, graph):
        """Acceptance criterion: plans are re-derived after a graph update."""
        cache = PlanCache()
        first = cache.get(QUERY, graph=graph)
        assert first.stats_version == graph.version
        invalidations = _INVALIDATIONS_TOTAL.value
        graph.add(URI(f"{EX}s9"), URI(f"{EX}p"), Literal("9"))
        second = cache.get(QUERY, graph=graph)
        assert second is not first
        assert second.stats_version == graph.version
        assert _INVALIDATIONS_TOTAL.value == invalidations + 1

    def test_structural_plans_survive_updates(self, graph):
        cache = PlanCache()
        first = cache.get(QUERY, graph=None, optimize=False)
        assert first.stats_version is None
        graph.add(URI(f"{EX}s9"), URI(f"{EX}p"), Literal("9"))
        assert cache.get(QUERY, graph=graph, optimize=False) is first

    def test_lru_eviction_at_capacity(self, graph):
        cache = PlanCache(capacity=2)
        evictions = _EVICTIONS_TOTAL.value
        q1 = f"SELECT ?s WHERE {{ ?s <{EX}p1> ?o }}"
        q2 = f"SELECT ?s WHERE {{ ?s <{EX}p2> ?o }}"
        q3 = f"SELECT ?s WHERE {{ ?s <{EX}p3> ?o }}"
        cache.get(q1)
        cache.get(q2)
        cache.get(q1)  # refresh q1; q2 becomes the LRU entry
        cache.get(q3)
        assert len(cache) == 2
        assert _EVICTIONS_TOTAL.value == evictions + 1
        assert q1 in cache and q3 in cache and q2 not in cache

    def test_construct_where_pattern_is_planned(self):
        # A CONSTRUCT's plan is its WHERE pattern (the template is
        # applied to the solutions), compiled once like any other.
        cache = PlanCache()
        plan = cache.get(
            f"CONSTRUCT {{ ?s <{EX}q> ?o }} WHERE {{ ?s <{EX}p> ?o }}"
        )
        assert isinstance(plan.algebra, BGP)
        factory = plan.physical_factory()
        assert factory is plan.physical_factory()
        assert not factory.pageable

    def test_empty_cache_is_truthy(self):
        # Regression: LocalEndpoint once discarded a fresh cache because
        # an empty PlanCache was falsy through __len__.
        assert bool(PlanCache())
        assert len(PlanCache()) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_clear(self, graph):
        cache = PlanCache()
        cache.get(QUERY, graph=graph)
        cache.clear()
        assert len(cache) == 0


class TestBuildPlan:
    def test_optimized_plan_records_version(self, graph):
        optimizer_runs = REGISTRY.get("repro_optimizer_runs_total")
        runs = optimizer_runs.value
        plan = build_plan(QUERY, graph=graph)
        assert optimizer_runs.value == runs + 1
        assert plan.stats_version == graph.version
        assert plan.algebra is not None

    def test_unoptimized_plan_shares_raw(self):
        optimizer_runs = REGISTRY.get("repro_optimizer_runs_total")
        runs = optimizer_runs.value
        plan = build_plan(QUERY, optimize=False)
        assert optimizer_runs.value == runs
        assert plan.algebra == translate_query(parse_query(QUERY))
        assert plan.notes == ()
        assert plan.stats_version is None


class TestEndpointWiring:
    def test_default_endpoint_has_private_cache(self, graph):
        endpoint = LocalEndpoint(graph, clock=SimClock())
        assert isinstance(endpoint.plan_cache, PlanCache)
        hits = _HITS.value
        first = endpoint.query(QUERY)
        second = endpoint.query(QUERY)
        assert _HITS.value == hits + 1
        assert [dict(r) for r in second.result.rows] == [
            dict(r) for r in first.result.rows
        ]

    def test_plan_cache_false_disables_caching(self, graph):
        endpoint = LocalEndpoint(graph, clock=SimClock(), plan_cache=False)
        assert endpoint.plan_cache is None
        hits = _HITS.value
        endpoint.query(QUERY)
        endpoint.query(QUERY)
        assert _HITS.value == hits

    def test_shared_cache_instance(self, graph):
        shared = PlanCache()
        a = LocalEndpoint(graph, clock=SimClock(), plan_cache=shared)
        b = LocalEndpoint(graph, clock=SimClock(), plan_cache=shared)
        a.query(QUERY)
        hits = _HITS.value
        b.query(QUERY)
        assert _HITS.value == hits + 1

    def test_unoptimized_endpoint_matches_optimized(self, graph):
        plain = LocalEndpoint(
            graph, clock=SimClock(), optimize=False, plan_cache=False
        )
        tuned = LocalEndpoint(graph, clock=SimClock())
        query = (
            f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o FILTER(?o != \"1\") }} "
            "ORDER BY ?s ?o LIMIT 3"
        )
        before = plain.query(query).result.rows
        after = tuned.query(query).result.rows
        assert after == before

    def test_endpoint_replans_after_update(self, graph):
        endpoint = LocalEndpoint(graph, clock=SimClock())
        assert len(endpoint.query(QUERY).result.rows) == 5
        graph.add(URI(f"{EX}s9"), URI(f"{EX}p"), Literal("9"))
        assert len(endpoint.query(QUERY).result.rows) == 6
