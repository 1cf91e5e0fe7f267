"""Property-based tests: the SPARQL path (engine) agrees with the
reference expansions on randomly generated ontologies, and incremental
evaluation converges to one-shot results."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Bar,
    BarType,
    ChartEngine,
    Direction,
    MemberPattern,
    property_expansion,
    root_bar,
    subclass_expansion,
)
from repro.endpoint import LocalEndpoint
from repro.perf import (
    HeavyQueryStore,
    IncrementalConfig,
    IncrementalEvaluator,
    MaterializedViews,
)
from repro.rdf import Graph
from repro.sparql import evaluate

from .test_expansion_properties import _CLASSES, _RDF_TYPE, ontology_graphs


def heights(chart):
    return {bar.label: bar.size for bar in chart}


class TestEngineAgreesOnRandomGraphs:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_subclass_charts(self, data):
        graph = data.draw(ontology_graphs())
        cls = data.draw(st.sampled_from(_CLASSES))
        engine = ChartEngine(LocalEndpoint(graph), cls)
        reference = subclass_expansion(graph, root_bar(graph, cls))
        assert heights(engine.initial_chart()) == heights(reference)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_charts(self, data):
        graph = data.draw(ontology_graphs())
        cls = data.draw(st.sampled_from(_CLASSES))
        direction = data.draw(
            st.sampled_from([Direction.OUTGOING, Direction.INCOMING])
        )
        engine = ChartEngine(LocalEndpoint(graph), cls)
        reference_bar = root_bar(graph, cls)
        engine_bar = Bar(
            label=cls,
            type=BarType.CLASS,
            count=reference_bar.size,
            pattern=MemberPattern.of_type(cls),
        )
        assert heights(engine.property_chart(engine_bar, direction)) == heights(
            property_expansion(graph, reference_bar, direction)
        )

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_decomposer_index_agrees(self, data):
        graph = data.draw(ontology_graphs())
        cls = data.draw(st.sampled_from(_CLASSES))
        direction = data.draw(
            st.sampled_from([Direction.OUTGOING, Direction.INCOMING])
        )
        indexes = MaterializedViews(graph, track=False)
        rows = indexes.property_expansion([cls], direction)
        reference = property_expansion(
            graph, root_bar(graph, cls), direction
        )
        if not list(graph.subjects(_RDF_TYPE, cls)):
            # Class without instances: index knows nothing about it.
            assert rows is None or rows == []
            return
        assert {row.prop: row.subject_count for row in rows} == {
            bar.label: bar.size for bar in reference
        }


class TestIncrementalConvergence:
    QUERY = (
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
        "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s rdf:type ?t } GROUP BY ?t"
    )

    @given(st.data(), st.integers(min_value=1, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_any_window_size_converges(self, data, window):
        graph = data.draw(ontology_graphs())
        if len(graph) == 0:
            return
        one_shot = evaluate(graph, self.QUERY)
        final = IncrementalEvaluator(
            graph, IncrementalConfig(window_size=window)
        ).run_to_completion(self.QUERY)
        def as_map(result):
            return {
                row["t"]: int(row["n"].lexical) for row in result.rows
            }
        assert as_map(final.result) == as_map(one_shot)
        assert final.complete


class TestHvsProperties:
    @given(
        st.lists(
            st.tuples(
                st.text(min_size=1, max_size=30),
                st.floats(min_value=0, max_value=10_000),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_only_heavy_queries_ever_cached(self, workload):
        from repro.sparql.results import AskResult

        hvs = HeavyQueryStore(threshold_ms=1000)
        for query, runtime in workload:
            hvs.record(query, AskResult(True), runtime, dataset_version=1)
        for entry in hvs.entries().values():
            assert entry.original_runtime_ms > 1000

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_version_changes_always_clear(self, versions):
        from repro.sparql.results import AskResult

        hvs = HeavyQueryStore()
        previous = None
        for version in versions:
            hvs.record(f"q{version}", AskResult(True), 5000, version)
            if previous is not None and previous != version:
                # After a version change only the new entry may live.
                assert len(hvs) == 1
            previous = version
