"""Metrics emitted by the engine layers move when — and only when —
the corresponding code paths run."""

import pytest

from repro.core import Direction, MemberPattern, property_chart_query
from repro.endpoint import LocalEndpoint, SimClock
from repro.obs.metrics import REGISTRY
from repro.perf import (
    Decomposer,
    ElindaEndpoint,
    HeavyQueryStore,
    IncrementalConfig,
    IncrementalEvaluator,
    MaterializedViews,
)
from repro.rdf import DBO


def counter_value(name, **labels):
    metric = REGISTRY.get(name)
    assert metric is not None, name
    return metric.labels(**labels).value if labels else metric.value


@pytest.fixture()
def chart_query():
    return property_chart_query(
        MemberPattern.of_type(DBO.term("Philosopher")), Direction.OUTGOING
    )


class TestEvaluatorMetrics:
    def test_query_and_binding_counters_move(self, local_endpoint):
        queries = counter_value("repro_eval_queries_total")
        bindings = counter_value("repro_eval_bindings_total")
        local_endpoint.query("SELECT ?s ?o WHERE { ?s ?p ?o } LIMIT 10")
        assert counter_value("repro_eval_queries_total") == queries + 1
        assert counter_value("repro_eval_bindings_total") > bindings

    def test_paged_query_moves_the_engine_counters_once(self, dbpedia_graph):
        """Three pages are one query, and the same work as one shot —
        wherever the quanta run, the counters are flushed by the
        executor."""
        text = "SELECT ?s ?o WHERE { ?s ?p ?o } LIMIT 25"
        names = ("bindings", "pattern_scans", "results")

        def moved(run):
            before = [counter_value(f"repro_eval_{n}_total") for n in names]
            queries = counter_value("repro_eval_queries_total")
            run()
            assert counter_value("repro_eval_queries_total") == queries + 1
            return [
                counter_value(f"repro_eval_{n}_total") - was
                for n, was in zip(names, before)
            ]

        def paged():
            # A fresh endpoint per page: every resume decodes the token
            # and restores the plan, as a stateless server would.
            pages = 1
            response = LocalEndpoint(dbpedia_graph).query(text, page_size=10)
            while not response.complete:
                response = LocalEndpoint(dbpedia_graph).query(
                    page_size=10, continuation=response.continuation
                )
                pages += 1
            assert pages == 3

        one_shot = moved(lambda: LocalEndpoint(dbpedia_graph).query(text))
        assert one_shot[0] > 0 and one_shot[2] == 25
        assert moved(paged) == one_shot

    def test_one_shot_query_is_a_complete_physical_page(self, local_endpoint):
        """The structural guard that one-shot *is* the paged path: a
        request with no budget is served as one complete executor page."""
        complete = counter_value("repro_exec_pages_total", outcome="complete")
        suspended = counter_value("repro_exec_pages_total", outcome="suspended")
        local_endpoint.query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 3")
        assert (
            counter_value("repro_exec_pages_total", outcome="complete")
            == complete + 1
        )
        assert (
            counter_value("repro_exec_pages_total", outcome="suspended")
            == suspended
        )

    def test_trace_root_rows_are_the_result_rows(self, dbpedia_graph):
        endpoint = LocalEndpoint(dbpedia_graph, trace=True)
        response = endpoint.query(
            "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s "
            "ORDER BY DESC(?n) LIMIT 7"
        )
        by_operator = {summary.operator: summary for summary in response.trace}
        # optimized: ORDER BY + LIMIT fused into the root TopK
        assert by_operator["TopK"].rows == len(response.result.rows) == 7
        assert by_operator["Materialize"].rows == 7
        assert by_operator["Aggregation"].rows > 7
        assert by_operator["BGP"].rows == len(dbpedia_graph)
        assert all(summary.wall_ms >= 0 for summary in response.trace)

    def test_index_lookup_counter_classifies_branches(self, dbpedia_graph):
        spo = counter_value("repro_graph_index_lookups_total", index="spo")
        full = counter_value(
            "repro_graph_index_lookups_total", index="full_scan"
        )
        next(iter(dbpedia_graph.triples()), None)  # unconstrained scan
        subject = next(iter(dbpedia_graph.triples())).subject
        list(dbpedia_graph.triples(subject=subject))  # SPO branch
        assert (
            counter_value("repro_graph_index_lookups_total", index="spo")
            == spo + 1
        )
        assert (
            counter_value("repro_graph_index_lookups_total", index="full_scan")
            == full + 2
        )


class TestRouterToggles:
    def test_decomposer_counter_moves_only_when_enabled(
        self, dbpedia_graph, chart_query
    ):
        elinda = ElindaEndpoint(
            LocalEndpoint(dbpedia_graph, clock=SimClock()),
            decomposer=Decomposer(MaterializedViews(dbpedia_graph, track=False)),
            use_hvs=False,
        )
        rewritten = counter_value(
            "repro_decomposer_requests_total", outcome="rewritten"
        )
        elinda.query(chart_query)
        assert (
            counter_value("repro_decomposer_requests_total", outcome="rewritten")
            == rewritten + 1
        )
        elinda.use_decomposer = False
        elinda.query(chart_query)
        assert (
            counter_value("repro_decomposer_requests_total", outcome="rewritten")
            == rewritten + 1
        )

    def test_hvs_counters_move_only_when_enabled(
        self, dbpedia_graph, chart_query
    ):
        elinda = ElindaEndpoint(
            LocalEndpoint(dbpedia_graph, clock=SimClock()),
            hvs=HeavyQueryStore(threshold_ms=0.000001),
        )
        misses = counter_value("repro_hvs_lookups_total", outcome="miss")
        hits = counter_value("repro_hvs_lookups_total", outcome="hit")
        stores = counter_value("repro_hvs_stores_total")
        elinda.query(chart_query)  # miss + store
        elinda.query(chart_query)  # hit
        assert counter_value("repro_hvs_lookups_total", outcome="miss") == misses + 1
        assert counter_value("repro_hvs_lookups_total", outcome="hit") == hits + 1
        assert counter_value("repro_hvs_stores_total") == stores + 1
        elinda.use_hvs = False
        elinda.query(chart_query)
        assert counter_value("repro_hvs_lookups_total", outcome="hit") == hits + 1
        assert counter_value("repro_hvs_lookups_total", outcome="miss") == misses + 1

    def test_route_counter_attributes_each_answer(
        self, dbpedia_graph, chart_query
    ):
        elinda = ElindaEndpoint(
            LocalEndpoint(dbpedia_graph, clock=SimClock()),
            hvs=HeavyQueryStore(threshold_ms=0.000001),
            decomposer=Decomposer(MaterializedViews(dbpedia_graph, track=False)),
        )
        routes = {
            route: counter_value("repro_router_queries_total", route=route)
            for route in ("hvs", "decomposer", "backend")
        }
        elinda.query(chart_query)  # decomposer
        elinda.use_decomposer = False
        elinda.query(chart_query)  # backend (stored)
        elinda.query(chart_query)  # hvs
        for route in routes:
            assert (
                counter_value("repro_router_queries_total", route=route)
                == routes[route] + 1
            )


class TestEndpointMetrics:
    def test_observe_response_counts_once_per_query(self, dbpedia_graph):
        endpoint = LocalEndpoint(dbpedia_graph, clock=SimClock())
        queries = counter_value("repro_endpoint_queries_total", source="local")
        simulated = counter_value(
            "repro_endpoint_simulated_ms_total", source="local"
        )
        response = endpoint.query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1")
        assert (
            counter_value("repro_endpoint_queries_total", source="local")
            == queries + 1
        )
        assert counter_value(
            "repro_endpoint_simulated_ms_total", source="local"
        ) == pytest.approx(simulated + response.elapsed_ms)

    def test_router_does_not_double_count_backend_queries(
        self, dbpedia_graph
    ):
        elinda = ElindaEndpoint(LocalEndpoint(dbpedia_graph, clock=SimClock()))
        queries = counter_value("repro_endpoint_queries_total", source="local")
        elinda.query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1")
        # Logged by both the backend and the router, but counted once.
        assert (
            counter_value("repro_endpoint_queries_total", source="local")
            == queries + 1
        )
        assert len(elinda.query_log) == 1
        assert len(elinda.backend.query_log) == 1


class TestIncrementalMetrics:
    def test_window_counter_counts_each_window(self, dbpedia_graph, chart_query):
        windows = counter_value("repro_incremental_windows_total", mode="local")
        evaluator = IncrementalEvaluator(
            dbpedia_graph, IncrementalConfig(window_size=500, max_steps=3)
        )
        final = evaluator.run_to_completion(chart_query)
        assert counter_value(
            "repro_incremental_windows_total", mode="local"
        ) == windows + final.windows_consumed
