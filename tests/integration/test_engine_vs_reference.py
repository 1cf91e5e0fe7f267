"""Integration: the endpoint-backed engine agrees with the reference
in-memory expansions across the synthetic DBpedia dataset, and all three
store configurations return identical charts."""

import pytest

from repro.core import (
    ChartEngine,
    Direction,
    object_expansion,
    property_expansion,
    root_bar,
    subclass_expansion,
)
from repro.datasets.dbpedia import OWL_THING
from repro.endpoint import LocalEndpoint
from repro.perf import Decomposer, ElindaEndpoint, HeavyQueryStore, MaterializedViews
from repro.rdf import DBO


def heights(chart):
    return {bar.label: bar.size for bar in chart}


@pytest.fixture(scope="module")
def engine(dbpedia_graph):
    return ChartEngine(LocalEndpoint(dbpedia_graph), OWL_THING)


class TestEngineMatchesReference:
    def test_initial_chart(self, engine, dbpedia_graph):
        from repro.core import initial_chart

        assert heights(engine.initial_chart()) == heights(
            initial_chart(dbpedia_graph, OWL_THING)
        )

    @pytest.mark.parametrize(
        "class_name", ["Agent", "Person", "Philosopher", "Politician"]
    )
    def test_property_charts(self, engine, dbpedia_graph, class_name):
        cls = DBO.term(class_name)
        reference_bar = root_bar(dbpedia_graph, cls)
        for direction in (Direction.OUTGOING, Direction.INCOMING):
            reference = property_expansion(
                dbpedia_graph, reference_bar, direction
            )
            from repro.core import Bar, BarType, MemberPattern

            engine_bar = Bar(
                label=cls,
                type=BarType.CLASS,
                count=reference_bar.size,
                pattern=MemberPattern.of_type(cls),
            )
            via_engine = engine.property_chart(engine_bar, direction)
            assert heights(via_engine) == heights(reference)

    def test_subclass_chain_counts(self, engine, dbpedia_graph):
        path = [DBO.term("Agent"), DBO.term("Person"), DBO.term("Philosopher")]
        engine_chart = engine.initial_chart()
        reference_chart = subclass_expansion(
            dbpedia_graph, root_bar(dbpedia_graph, OWL_THING)
        )
        for cls in path:
            assert heights(engine_chart) == heights(reference_chart)
            engine_bar = engine_chart[cls]
            reference_bar = reference_chart[cls]
            engine_chart = engine.subclass_chart(engine_bar)
            reference_chart = subclass_expansion(dbpedia_graph, reference_bar)

    def test_object_chart(self, engine, dbpedia_graph):
        philosopher = root_bar(dbpedia_graph, DBO.term("Philosopher"))
        reference_prop = property_expansion(dbpedia_graph, philosopher)[
            DBO.term("influencedBy")
        ]
        reference = object_expansion(dbpedia_graph, reference_prop)
        from repro.core import Bar, BarType, MemberPattern

        engine_phil = Bar(
            label=DBO.term("Philosopher"),
            type=BarType.CLASS,
            count=philosopher.size,
            pattern=MemberPattern.of_type(DBO.term("Philosopher")),
        )
        engine_prop = engine.property_chart(engine_phil)[DBO.term("influencedBy")]
        assert heights(engine.object_chart(engine_prop)) == heights(reference)


class TestStoreConfigurationsAgree:
    """Fig. 4's three configurations must differ only in latency."""

    def test_identical_charts_across_configs(self, dbpedia_graph):
        backend = LocalEndpoint(dbpedia_graph)
        plain = ChartEngine(backend, OWL_THING)
        routed = ElindaEndpoint(
            LocalEndpoint(dbpedia_graph),
            hvs=HeavyQueryStore(threshold_ms=0.001),
            decomposer=Decomposer(MaterializedViews(dbpedia_graph, track=False)),
        )
        accelerated = ChartEngine(routed, OWL_THING)

        bar_plain = plain.root_bar()
        bar_fast = accelerated.root_bar()
        for direction in (Direction.OUTGOING, Direction.INCOMING):
            from_backend = plain.property_chart(bar_plain, direction)
            from_decomposer = accelerated.property_chart(bar_fast, direction)
            assert heights(from_backend) == heights(from_decomposer)
            # Route once through the backend with the decomposer off so
            # the (near-zero) threshold caches it, then read via HVS.
            routed.use_decomposer = False
            from_backend_routed = accelerated.property_chart(bar_fast, direction)
            from_hvs = accelerated.property_chart(bar_fast, direction)
            routed.use_decomposer = True
            assert heights(from_backend_routed) == heights(from_hvs)
            assert heights(from_decomposer) == heights(from_hvs)
            assert routed.query_log[-1].source == "hvs"
