"""EXPLAIN / EXPLAIN ANALYZE: plans, spans, and row accounting."""

import json

import pytest

from repro.core import Direction, MemberPattern, property_chart_query
from repro.obs import explain
from repro.obs.metrics import REGISTRY
from repro.rdf import DBO
from repro.sparql import SparqlEvalError


class TestExplain:
    def test_plain_explain_does_not_execute(self, dbpedia_graph):
        before = REGISTRY.get("repro_eval_queries_total").value
        explained = explain(
            dbpedia_graph, "SELECT ?s WHERE { ?s ?p ?o } LIMIT 5"
        )
        assert not explained.analyzed
        assert explained.result is None
        assert all(
            plan.actual_rows is None for plan in explained.plan.walk()
        )
        assert REGISTRY.get("repro_eval_queries_total").value == before

    def test_estimates_present_on_every_node(self, dbpedia_graph):
        query = property_chart_query(
            MemberPattern.of_type(DBO.term("Person")), Direction.OUTGOING
        )
        explained = explain(dbpedia_graph, query)
        for plan in explained.plan.walk():
            assert plan.estimated_rows >= 0

    def test_construct_rejected(self, dbpedia_graph):
        with pytest.raises(SparqlEvalError):
            explain(dbpedia_graph, "CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }")


class TestExplainAnalyze:
    @pytest.fixture(scope="class")
    def analyzed(self, dbpedia_graph):
        query = property_chart_query(
            MemberPattern.of_type(DBO.term("Person")), Direction.OUTGOING
        )
        return query, explain(dbpedia_graph, query, analyze=True)

    def test_every_operator_measured(self, analyzed):
        _, explained = analyzed
        for plan in explained.plan.walk():
            assert plan.actual_rows is not None
            assert plan.wall_ms is not None
            assert plan.wall_ms >= plan.self_wall_ms >= 0
            assert plan.invocations >= 1

    def test_root_rows_match_select_result(self, analyzed, local_endpoint):
        query, explained = analyzed
        select_rows = len(local_endpoint.select(query).rows)
        assert explained.plan.actual_rows == select_rows
        assert explained.result_rows == select_rows

    def test_parent_rows_consistent_with_pipeline(self, analyzed):
        _, explained = analyzed
        # OrderBy passes every aggregated row through unchanged.
        order_by, aggregation = (
            explained.plan,
            explained.plan.children[0],
        )
        assert order_by.label == "OrderBy"
        assert aggregation.label == "Aggregation"
        assert order_by.actual_rows == aggregation.actual_rows

    def test_render_contains_estimates_and_actuals(self, analyzed):
        _, explained = analyzed
        text = explained.render()
        assert text.startswith("EXPLAIN ANALYZE")
        assert "est_rows=" in text
        assert "wall=" in text
        assert f"result rows: {explained.result_rows}" in text

    def test_json_plan_round_trips(self, analyzed):
        _, explained = analyzed
        document = json.loads(explained.to_json())
        assert document["analyzed"] is True
        assert document["result_rows"] == explained.result_rows
        assert document["plan"]["operator"] == "OrderBy"
        assert document["plan"]["actual_rows"] == explained.plan.actual_rows

    def test_span_json_lines_schema(self, analyzed):
        _, explained = analyzed
        spans = [
            json.loads(line)
            for line in explained.to_json_lines().splitlines()
        ]
        assert spans
        required = {
            "span_id",
            "parent_id",
            "operator",
            "detail",
            "rows",
            "wall_ms",
            "self_wall_ms",
            "invocations",
            "finished",
        }
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            assert required <= set(span)
            if span["parent_id"] is not None:
                assert span["parent_id"] in by_id

    def test_limit_leaves_upstream_unfinished(self, dbpedia_graph):
        explained = explain(
            dbpedia_graph,
            "SELECT ?s WHERE { ?s ?p ?o } LIMIT 3",
            analyze=True,
        )
        spans = [
            json.loads(line)
            for line in explained.to_json_lines().splitlines()
        ]
        bgp = next(span for span in spans if span["operator"] == "BGP")
        assert bgp["finished"] is False
        assert bgp["rows"] == 3

    def test_spans_are_the_plan_tree(self, analyzed):
        """One measurement, three renderings: the JSON-line spans and
        the indented span tree are the executed plan nodes."""
        _, explained = analyzed
        executed = [
            plan for plan in explained.plan.walk() if plan.actual_rows is not None
        ]
        spans = [
            json.loads(line)
            for line in explained.to_json_lines().splitlines()
        ]
        assert [span["operator"] for span in spans] == [p.label for p in executed]
        assert [span["rows"] for span in spans] == [p.actual_rows for p in executed]
        assert spans[0]["parent_id"] is None
        assert len(explained.render_spans().splitlines()) == len(spans)

    def test_spans_need_analyze(self, dbpedia_graph):
        explained = explain(dbpedia_graph, "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1")
        with pytest.raises(SparqlEvalError):
            explained.to_json_lines()
