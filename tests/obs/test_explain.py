"""EXPLAIN / EXPLAIN ANALYZE: the physical plan, the optimizer's
estimates, spans, and row accounting."""

import json
import re

import pytest

from repro.core import Direction, MemberPattern, property_chart_query
from repro.endpoint import LocalEndpoint
from repro.explorer import QueryMonitor
from repro.obs import explain_physical
from repro.obs.metrics import REGISTRY
from repro.rdf import DBO, OWL
from repro.sparql import SparqlEvalError
from repro.sparql.algebra import BGP
from repro.sparql.optimizer import estimate, pattern_estimate
from repro.sparql.physical import MaterializeOp, SingletonOp
from repro.sparql.planner import build_physical_plan

#: Plans whose operators cover scans, joins, filters, paths, unions,
#: aggregation, top-k and slices.
ESTIMATED_IDS = ["person-chart", "thing-ingoing-chart", "top-k", "path", "union"]
ESTIMATED_QUERIES = [
    property_chart_query(
        MemberPattern.of_type(DBO.term("Person")), Direction.OUTGOING
    ),
    property_chart_query(MemberPattern.of_type(OWL.term("Thing")), Direction.INCOMING),
    "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 5",
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
    "SELECT ?c ?d WHERE { ?c rdfs:subClassOf* ?d } LIMIT 20",
    "PREFIX dbo: <http://dbpedia.org/ontology/>\n"
    "SELECT ?s ?n WHERE { { ?s a dbo:Person } UNION { ?s a dbo:Place } "
    "OPTIONAL { ?s dbo:birthPlace ?n } FILTER(?s != ?n) }",
]

CHARTS = [
    (cls, direction)
    for cls in (OWL.term("Thing"), DBO.term("Person"))
    for direction in (Direction.OUTGOING, Direction.INCOMING)
]


def _chain_product(scan, stats) -> float:
    """The model's pattern estimates multiplied up a scan chain."""
    scans = []
    while not isinstance(scan, SingletonOp):
        scans.append(scan)
        scan = scan.child
    product, bound = 1.0, set()
    for stage in reversed(scans):
        product *= pattern_estimate(stage.pattern, bound, stats)
        bound |= stage.pattern.variables()
    return product


def _explained_with_operators(graph, query):
    """The EXPLAIN tree beside an identically compiled operator tree."""
    explained = explain_physical(graph, query)
    operators = list(build_physical_plan(graph, query).root.walk())
    nodes = list(explained.plan.walk())
    assert [op.label for op in operators] == [node.label for node in nodes]
    return zip(operators, nodes)


class TestExplain:
    def test_plain_explain_does_not_execute(self, dbpedia_graph):
        before = REGISTRY.get("repro_eval_queries_total").value
        explained = explain_physical(
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
        explained = explain_physical(dbpedia_graph, query)
        for plan in explained.plan.walk():
            assert plan.estimated_rows >= 0

    def test_construct_explained(self, dbpedia_graph):
        """A CONSTRUCT is explained as the plan of its WHERE clause."""
        explained = explain_physical(
            dbpedia_graph, "CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }"
        )
        assert [plan.label for plan in explained.plan.walk()] == [
            "Materialize",
            "PatternScan",
            "Singleton",
        ]

    @pytest.mark.parametrize("query", ESTIMATED_QUERIES, ids=ESTIMATED_IDS)
    def test_estimates_are_the_optimizer_model(self, dbpedia_graph, query):
        stats = dbpedia_graph.statistics()
        for op, node in _explained_with_operators(dbpedia_graph, query):
            if isinstance(op, SingletonOp) or op.algebra is None:
                continue
            if isinstance(op.algebra, BGP):
                assert node.estimated_rows == _chain_product(op, stats)
            else:
                assert node.estimated_rows == estimate(op.algebra, stats)

    @pytest.mark.parametrize("query", ESTIMATED_QUERIES, ids=ESTIMATED_IDS)
    def test_a_whole_chain_estimates_its_bgp(self, dbpedia_graph, query):
        """The outermost scan of an optimized chain carries the model's
        estimate of the whole BGP: its running product is the model's
        own product in the model's own order."""
        stats = dbpedia_graph.statistics()
        pairs = list(_explained_with_operators(dbpedia_graph, query))
        outer = {}
        for op, node in pairs:
            if isinstance(op.algebra, BGP):
                outer.setdefault(id(op.algebra), (op, node))
        assert outer
        for op, node in outer.values():
            assert node.estimated_rows == pytest.approx(
                estimate(op.algebra, stats)
            )

    def test_singleton_is_one_and_materialize_is_its_child(self, dbpedia_graph):
        query = ESTIMATED_QUERIES[0]
        for op, node in _explained_with_operators(dbpedia_graph, query):
            if isinstance(op, SingletonOp):
                assert node.estimated_rows == 1
            if isinstance(op, MaterializeOp):
                assert node.estimated_rows == node.children[0].estimated_rows

    def test_passes_name_top_k_fusion(self, dbpedia_graph):
        query = "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?s ?o LIMIT 7"
        explained = explain_physical(dbpedia_graph, query)
        assert "top_k_fusion" in [name for name, _ in explained.passes]
        assert any(plan.label == "TopK" for plan in explained.plan.walk())
        assert "[top_k_fusion]" in explained.render()
        document = json.loads(explained.to_json())
        assert "top_k_fusion" in [
            entry["pass"] for entry in document["optimizer_passes"]
        ]

    def test_unoptimized_plan_keeps_the_full_sort(self, dbpedia_graph):
        query = "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?s ?o LIMIT 7"
        raw = explain_physical(dbpedia_graph, query, optimize=False)
        labels = [plan.label for plan in raw.plan.walk()]
        assert "TopK" not in labels
        assert "OrderBy" in labels and "Slice" in labels
        assert raw.passes == []

    @pytest.mark.parametrize(
        "cls, direction", CHARTS, ids=lambda value: getattr(value, "value", value)
    )
    def test_chart_scans_and_inner_aggregation_within_3x(
        self, dbpedia_graph, cls, direction
    ):
        """The model the plans are ordered by tracks the rows that the
        scans and the per-member GROUP BY ?s ?p actually produce."""
        query = property_chart_query(MemberPattern.of_type(cls), direction)
        explained = explain_physical(dbpedia_graph, query, analyze=True)
        checked = [
            plan
            for plan in explained.plan.walk()
            if plan.label == "PatternScan"
            or plan.detail.startswith("group by ?s ?p")
        ]
        assert len(checked) == 3
        for plan in checked:
            ratio = max(plan.estimated_rows, plan.actual_rows) / max(
                1, min(plan.estimated_rows, plan.actual_rows)
            )
            assert ratio <= 3.0, (plan.label, plan.detail, ratio)


class TestExplainAnalyze:
    @pytest.fixture(scope="class")
    def analyzed(self, dbpedia_graph):
        query = property_chart_query(
            MemberPattern.of_type(DBO.term("Person")), Direction.OUTGOING
        )
        return query, explain_physical(dbpedia_graph, query, analyze=True)

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
        order_by = explained.plan.children[0]
        aggregation = order_by.children[0]
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
        assert document["plan"]["operator"] == "Materialize"
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
        explained = explain_physical(
            dbpedia_graph,
            "SELECT ?s WHERE { ?s ?p ?o } LIMIT 3",
            analyze=True,
        )
        spans = [
            json.loads(line)
            for line in explained.to_json_lines().splitlines()
        ]
        scan = next(span for span in spans if span["operator"] == "PatternScan")
        assert scan["finished"] is False
        assert scan["rows"] == 3

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
        explained = explain_physical(
            dbpedia_graph, "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"
        )
        with pytest.raises(SparqlEvalError):
            explained.to_json_lines()


def _clock_names(text):
    """The word naming each millisecond figure's clock: ``wall`` in
    ``wall=1.2ms``, ``self_wall`` in ``self_wall=0.3ms``, ``sim`` in
    ``total sim ms``; a bare ``12.5ms`` or ``12.5 ms`` names none."""
    named = re.findall(r"(\w+)=[\d.]+ms\b", text)
    named += re.findall(r"([A-Za-z_]+) ms\b", text)
    unnamed = re.findall(r"(?<![=\w.])[\d.]+ ?ms\b", text)
    return named, unnamed


def test_every_ms_figure_names_its_clock(philosophy_graph):
    """The monitor's latencies are simulated, EXPLAIN's are wall time,
    and each figure says which."""
    endpoint = LocalEndpoint(philosophy_graph, trace=True)
    endpoint.query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5")
    monitor = QueryMonitor(endpoint, heavy_threshold_ms=0.0001).render()
    explained = explain_physical(
        philosophy_graph, "SELECT ?s WHERE { ?s ?p ?o } LIMIT 5", analyze=True
    )
    for text in (monitor, explained.render(), explained.render_spans()):
        named, unnamed = _clock_names(text)
        assert named and not unnamed, text
        assert all(name in ("sim", "wall", "self_wall") for name in named), text
    assert "sim ms" in monitor and "wall ms" in monitor
