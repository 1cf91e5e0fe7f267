"""Unit tests for the endpoint-backed chart engine.

The central invariant: every engine chart agrees (labels and heights)
with the reference expansion computed directly on the graph.
"""

import pytest

from repro.core import (
    BarType,
    ChartEngine,
    Direction,
    initial_chart,
    object_expansion,
    property_expansion,
    root_bar,
    subclass_expansion,
)
from repro.rdf import DBO, DBR, Literal, OWL

THING = OWL.term("Thing")
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"
XSD_DOUBLE = "http://www.w3.org/2001/XMLSchema#double"


@pytest.fixture()
def engine(philosophy_endpoint):
    return ChartEngine(philosophy_endpoint, THING)


def heights(chart):
    return {bar.label: bar.size for bar in chart}


class TestAgainstReference:
    def test_root_bar_count(self, engine, philosophy_graph):
        assert engine.root_bar().size == root_bar(philosophy_graph, THING).size

    def test_initial_chart(self, engine, philosophy_graph):
        assert heights(engine.initial_chart()) == heights(
            initial_chart(philosophy_graph, THING)
        )

    def test_subclass_chain(self, engine, philosophy_graph):
        chart = engine.initial_chart()
        agent = chart[DBO.term("Agent")]
        engine_person = engine.subclass_chart(agent)
        reference = subclass_expansion(
            philosophy_graph,
            subclass_expansion(
                philosophy_graph, root_bar(philosophy_graph, THING)
            )[DBO.term("Agent")],
        )
        assert heights(engine_person) == heights(reference)

    def test_property_chart_both_directions(self, engine, philosophy_graph):
        chart = engine.initial_chart()
        agent = chart[DBO.term("Agent")]
        person_chart = engine.subclass_chart(agent)
        person = person_chart[DBO.term("Person")]
        ref_person = subclass_expansion(
            philosophy_graph,
            subclass_expansion(
                philosophy_graph, root_bar(philosophy_graph, THING)
            )[DBO.term("Agent")],
        )[DBO.term("Person")]
        for direction in (Direction.OUTGOING, Direction.INCOMING):
            via_engine = engine.property_chart(person, direction)
            via_reference = property_expansion(
                philosophy_graph, ref_person, direction
            )
            assert heights(via_engine) == heights(via_reference)
            for bar in via_engine:
                ref_bar = via_reference[bar.label]
                assert bar.coverage == pytest.approx(ref_bar.coverage)

    def test_object_chart(self, engine, philosophy_graph):
        person = engine.subclass_chart(
            engine.initial_chart()[DBO.term("Agent")]
        )[DBO.term("Person")]
        influenced = engine.property_chart(person)[DBO.term("influencedBy")]
        via_engine = engine.object_chart(influenced)
        ref_person = root_bar(philosophy_graph, DBO.term("Person"))
        ref_influenced = property_expansion(philosophy_graph, ref_person)[
            DBO.term("influencedBy")
        ]
        via_reference = object_expansion(philosophy_graph, ref_influenced)
        assert heights(via_engine) == heights(via_reference)


class TestEngineMechanics:
    def test_bars_carry_patterns(self, engine):
        chart = engine.initial_chart()
        for bar in chart:
            assert bar.pattern is not None

    def test_materialise(self, engine):
        agent = engine.initial_chart()[DBO.term("Agent")]
        materialised = engine.materialise(agent)
        assert materialised.uris is not None
        assert len(materialised.uris) == agent.size
        assert DBR.term("Plato") in materialised.uris

    def test_materialise_with_limit(self, engine):
        agent = engine.initial_chart()[DBO.term("Agent")]
        limited = engine.materialise(agent, limit=2)
        assert len(limited.uris) == 2

    def test_materialise_idempotent_on_materialised(self, engine):
        agent = engine.initial_chart()[DBO.term("Agent")]
        materialised = engine.materialise(agent)
        assert engine.materialise(materialised) is materialised

    def test_refresh_count(self, engine):
        agent = engine.initial_chart()[DBO.term("Agent")]
        assert engine.refresh_count(agent).size == agent.size

    def test_sparql_for_is_executable(self, engine, philosophy_endpoint):
        agent = engine.initial_chart()[DBO.term("Agent")]
        query = engine.sparql_for(agent)
        result = philosophy_endpoint.select(query)
        assert len(result.rows) == agent.size

    def test_bar_from_explicit_uris(self, engine, philosophy_graph):
        from repro.core import Bar

        explicit = Bar(
            label=DBO.term("Philosopher"),
            type=BarType.CLASS,
            uris=frozenset({DBR.term("Plato"), DBR.term("Kant")}),
        )
        chart = engine.property_chart(explicit)
        assert chart[DBO.term("influencedBy")].size == 1  # only Kant

    def test_filtered_bar(self, engine):
        person = engine.subclass_chart(
            engine.initial_chart()[DBO.term("Agent")]
        )[DBO.term("Person")]
        vienna_style = engine.filtered_bar(
            person, {DBO.term("birthPlace"): DBR.term("Athens")}
        )
        assert vienna_style.size == 1  # only Plato born in Athens

    def test_filtered_bar_literal_value(self, engine):
        person = engine.subclass_chart(
            engine.initial_chart()[DBO.term("Agent")]
        )[DBO.term("Person")]
        filtered = engine.filtered_bar(
            person, {DBO.term("era"): Literal("Ancient philosophy")}
        )
        assert filtered.size == 1  # Plato

    def test_subclass_on_property_bar_rejected(self, engine):
        person = engine.subclass_chart(
            engine.initial_chart()[DBO.term("Agent")]
        )[DBO.term("Person")]
        prop = engine.property_chart(person)[DBO.term("birthPlace")]
        with pytest.raises(ValueError):
            engine.subclass_chart(prop)
        with pytest.raises(ValueError):
            engine.property_chart(prop)

    def test_object_on_class_bar_rejected(self, engine):
        agent = engine.initial_chart()[DBO.term("Agent")]
        with pytest.raises(ValueError):
            engine.object_chart(agent)


class TestAsInt:
    """Regressions for count coercion: backends may type counts as
    xsd:decimal/xsd:double; an integral float is still an exact count."""

    def test_plain_integer(self):
        from repro.core.model import count_value as _as_int

        assert _as_int(Literal("3", datatype=XSD_INTEGER)) == 3

    def test_integral_decimal_lexical(self):
        from repro.core.model import count_value as _as_int

        assert _as_int(Literal("3.0", datatype=XSD_DECIMAL)) == 3

    def test_integral_double_scientific(self):
        from repro.core.model import count_value as _as_int

        assert _as_int(Literal("3.0e0", datatype=XSD_DOUBLE)) == 3

    def test_non_integral_and_junk_fall_back_to_zero(self):
        from repro.core.model import count_value as _as_int

        assert _as_int(Literal("3.5", datatype=XSD_DECIMAL)) == 0
        assert _as_int(Literal("not a count")) == 0
        assert _as_int(None) == 0
        assert _as_int(DBO.term("Person")) == 0

    @pytest.mark.parametrize(
        "cell, expected",
        [
            (Literal("3", datatype=XSD_INTEGER), 3),
            (Literal("3.0", datatype=XSD_DECIMAL), 3),
            (Literal("3.0e0", datatype=XSD_DOUBLE), 3),
            (Literal("3.5", datatype=XSD_DECIMAL), 0),
            (Literal("NaN", datatype=XSD_DOUBLE), 0),
            (Literal("INF", datatype=XSD_DOUBLE), 0),
            (Literal("-INF", datatype=XSD_DOUBLE), 0),
            (Literal("abc"), 0),
            (DBO.term("Person"), 0),
            (None, 0),
        ],
    )
    def test_one_helper_never_raises(self, cell, expected):
        """The chart engine, the statistics service and the remote
        incremental merge all read counts through this one function; a
        remote backend's odd literal is an empty bar, not a traceback."""
        from repro.core.model import count_value

        assert count_value(cell) == expected

    def test_statistics_accept_an_integral_decimal_count(self):
        from repro.core.statistics import StatisticsService
        from repro.sparql.results import SelectResult

        class _SevenPointZero:
            dataset_version = 0

            def select(self, query_text):
                return SelectResult(
                    ["count"], [{"count": Literal("7.0", datatype=XSD_DECIMAL)}]
                )

        service = StatisticsService(_SevenPointZero())
        assert service.instance_count(DBO.term("Person")) == 7


class _UnpagedEndpoint:
    """Test double whose query() takes no paging parameters."""

    def __init__(self, inner):
        self._inner = inner
        self.query_calls = 0

    def select(self, query_text):
        return self._inner.select(query_text)

    def query(self, query_text):
        self.query_calls += 1
        return self._inner.query(query_text)


class _BrokenPagedEndpoint:
    """Paging-shaped signature, but evaluation raises a genuine
    TypeError — the old blanket ``except TypeError`` probe swallowed
    this and silently served the unpaged path."""

    def select(self, query_text):
        raise TypeError("boom inside evaluation")

    def query(self, query_text, page_size=None, continuation=None, **kwargs):
        raise TypeError("boom inside evaluation")


class TestPagingDetection:
    def test_unpaged_signature_falls_back_to_select(self, philosophy_endpoint):
        endpoint = _UnpagedEndpoint(philosophy_endpoint)
        engine = ChartEngine(endpoint, THING, page_size=10)
        chart = engine.initial_chart()
        assert heights(chart) == heights(
            ChartEngine(philosophy_endpoint, THING).initial_chart()
        )
        # The narrow-signature query() was never probed with paging
        # kwargs, and no pages were fetched.
        assert endpoint.query_calls == 0
        assert engine.pages_fetched == 0

    def test_paged_signature_pages(self, philosophy_endpoint):
        engine = ChartEngine(philosophy_endpoint, THING, page_size=1)
        chart = engine.initial_chart()
        assert heights(chart) == heights(
            ChartEngine(philosophy_endpoint, THING).initial_chart()
        )
        assert engine.pages_fetched > 1

    def test_genuine_typeerror_propagates(self):
        engine = ChartEngine(_BrokenPagedEndpoint(), THING, page_size=5)
        with pytest.raises(TypeError, match="boom inside evaluation"):
            engine._select("SELECT ?s WHERE { ?s ?p ?o }")

    def test_supports_paging_attribute_wins(self, philosophy_endpoint):
        from repro.core.engine import _supports_paging

        endpoint = _UnpagedEndpoint(philosophy_endpoint)
        assert not _supports_paging(endpoint)
        endpoint.supports_paging = True
        assert _supports_paging(endpoint)

    def test_detection_is_cached(self, philosophy_endpoint):
        engine = ChartEngine(philosophy_endpoint, THING, page_size=5)
        assert engine._paged is None
        engine.initial_chart()
        first = engine._paged
        engine.initial_chart()
        assert engine._paged is first is True
