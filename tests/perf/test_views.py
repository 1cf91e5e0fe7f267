"""Materialized chart views: shape matching, router placement, and
incremental (delta) maintenance.

The two central invariants:

* every view-served chart is row-identical to what the backend would
  have computed for the same query, and
* after any interleaving of ``add`` / ``remove`` / ``bulk_load`` the
  delta-maintained tables equal a from-scratch rebuild.
"""

import pytest

from repro.core import Direction, MemberPattern
from repro.core.queries import (
    count_query,
    members_query,
    object_chart_query,
    property_chart_query,
    subclass_chart_query,
)
from repro.datasets.dbpedia import OWL_THING
from repro.endpoint import LocalEndpoint, SimClock
from repro.obs.metrics import REGISTRY
from repro.perf import (
    Decomposer,
    ElindaEndpoint,
    HeavyQueryStore,
    MaterializedViews,
    match_member_count,
    match_object_chart,
    match_subclass_chart,
)
from repro.rdf import DBO, DBR, OWL, RDF, Graph

THING = OWL.term("Thing")
RDF_TYPE = RDF.term("type")


def canon(result):
    return sorted(
        tuple(sorted((name, term.n3()) for name, term in row.items()))
        for row in result.rows
    )


def counter(name, **labels):
    metric = REGISTRY.get(name)
    return metric.labels(**labels).value if labels else metric.value


def copy_graph(graph):
    return Graph(list(graph.triples()))


@pytest.fixture()
def views(dbpedia_graph):
    return MaterializedViews(dbpedia_graph, track=False)


@pytest.fixture()
def philosophy_views(philosophy_graph):
    return MaterializedViews(philosophy_graph, track=False)


class TestShapeMatchers:
    def test_subclass_chart_shape(self):
        pattern = MemberPattern.of_type(THING).and_type(DBO.term("Agent"))
        spec = match_subclass_chart(
            subclass_chart_query(pattern, DBO.term("Agent"))
        )
        assert spec is not None
        assert set(spec.classes) == {THING, DBO.term("Agent")}
        assert spec.parent == DBO.term("Agent")

    def test_member_count_shape(self):
        spec = match_member_count(count_query(MemberPattern.of_type(THING)))
        assert spec is not None
        assert spec.classes == (THING,)

    def test_object_chart_shapes_both_directions(self):
        prop = DBO.term("influencedBy")
        for direction in (Direction.OUTGOING, Direction.INCOMING):
            pattern = MemberPattern.of_type(DBO.term("Philosopher"))
            spec = match_object_chart(
                object_chart_query(pattern, prop, direction)
            )
            assert spec is not None
            assert spec.prop == prop
            assert spec.direction is direction

    def test_object_chart_tolerates_property_bar_pattern(self):
        """A property bar's pattern carries a redundant existence line
        (``?s <prop> ?vN``); the chart's own edge subsumes it."""
        prop = DBO.term("influencedBy")
        pattern = MemberPattern.of_type(DBO.term("Philosopher")).and_property(
            prop
        )
        spec = match_object_chart(
            object_chart_query(pattern, prop, Direction.OUTGOING)
        )
        assert spec is not None
        assert spec.classes == (DBO.term("Philosopher"),)

    def test_values_pattern_not_matched(self):
        pattern = MemberPattern.of_values([DBR.term("Plato")])
        assert match_member_count(count_query(pattern)) is None

    def test_members_query_not_matched(self):
        query = members_query(MemberPattern.of_type(THING), limit=5)
        assert match_subclass_chart(query) is None
        assert match_member_count(query) is None
        assert match_object_chart(query) is None


class TestAnswersMatchBackend:
    """View answers must be row-identical to the real engine's."""

    @pytest.mark.parametrize(
        "direction", [Direction.OUTGOING, Direction.INCOMING]
    )
    def test_property_chart(self, views, local_endpoint, direction):
        query = property_chart_query(MemberPattern.of_type(OWL_THING), direction)
        response = views.try_answer(query)
        assert response is not None and response.source == "views"
        assert canon(response.result) == canon(local_endpoint.select(query))

    def test_subclass_chart(self, views, local_endpoint):
        query = subclass_chart_query(MemberPattern.of_type(OWL_THING), OWL_THING)
        response = views.try_answer(query)
        assert response is not None
        assert canon(response.result) == canon(local_endpoint.select(query))

    def test_member_count(self, views, local_endpoint):
        pattern = MemberPattern.of_type(OWL_THING).and_type(DBO.term("Agent"))
        query = count_query(pattern)
        response = views.try_answer(query)
        assert response is not None
        assert canon(response.result) == canon(local_endpoint.select(query))

    def test_object_chart(self, philosophy_views, philosophy_endpoint):
        pattern = MemberPattern.of_type(DBO.term("Philosopher"))
        query = object_chart_query(
            pattern, DBO.term("influencedBy"), Direction.OUTGOING
        )
        response = philosophy_views.try_answer(query)
        assert response is not None
        assert canon(response.result) == canon(
            philosophy_endpoint.select(query)
        )

    def test_object_chart_incoming(self, philosophy_views, philosophy_endpoint):
        pattern = MemberPattern.of_type(DBO.term("Person"))
        query = object_chart_query(
            pattern, DBO.term("influencedBy"), Direction.INCOMING
        )
        response = philosophy_views.try_answer(query)
        assert response is not None
        assert canon(response.result) == canon(
            philosophy_endpoint.select(query)
        )

    def test_unrecognised_query_misses(self, philosophy_views):
        before = counter(
            "repro_view_lookups_total", shape="other", outcome="miss"
        )
        assert philosophy_views.try_answer("SELECT ?s WHERE { ?s ?p ?o }") is None
        assert (
            counter("repro_view_lookups_total", shape="other", outcome="miss")
            == before + 1
        )


class TestRouterPlacement:
    def _ladder(self, graph):
        clock = SimClock()
        views = MaterializedViews(graph, clock=clock)
        elinda = ElindaEndpoint(
            LocalEndpoint(graph, clock=clock),
            hvs=HeavyQueryStore(clock=clock),
            views=views,
            decomposer=Decomposer(views, clock=clock),
        )
        return elinda, views

    def test_views_answer_before_decomposer(self, philosophy_graph):
        elinda, _views = self._ladder(copy_graph(philosophy_graph))
        query = property_chart_query(
            MemberPattern.of_type(THING), Direction.OUTGOING
        )
        before = counter("repro_router_queries_total", route="views")
        response = elinda.query(query)
        assert response.source == "views"
        assert counter("repro_router_queries_total", route="views") == before + 1

    def test_views_toggle_falls_to_decomposer(self, philosophy_graph):
        elinda, _views = self._ladder(copy_graph(philosophy_graph))
        elinda.use_views = False
        query = property_chart_query(
            MemberPattern.of_type(THING), Direction.OUTGOING
        )
        response = elinda.query(query)
        assert response.source == "decomposer"

    def test_views_stay_routable_after_mutation(self, philosophy_graph):
        """The build-once decomposer goes stale on a write; the tracked
        views do not — charts keep coming from the views route."""
        graph = copy_graph(philosophy_graph)
        elinda, views = self._ladder(graph)
        graph.add(DBR.term("Hypatia"), RDF_TYPE, DBO.term("Philosopher"))
        query = property_chart_query(
            MemberPattern.of_type(DBO.term("Philosopher")), Direction.OUTGOING
        )
        assert views.is_fresh
        response = elinda.query(query)
        assert response.source == "views"
        reference = LocalEndpoint(graph, clock=SimClock())
        assert canon(response.result) == canon(reference.select(query))

    def test_detached_views_go_stale(self, philosophy_graph):
        graph = copy_graph(philosophy_graph)
        elinda, views = self._ladder(graph)
        views.detach()
        graph.add(DBR.term("Hypatia"), RDF_TYPE, DBO.term("Philosopher"))
        assert not views.is_fresh
        query = property_chart_query(
            MemberPattern.of_type(THING), Direction.OUTGOING
        )
        assert elinda.query(query).source == "local"

    def test_specialized_indexes_remain_build_once(self, philosophy_graph):
        graph = copy_graph(philosophy_graph)
        indexes = MaterializedViews(graph, track=False)
        assert indexes.is_fresh
        graph.add(DBR.term("Hypatia"), RDF_TYPE, DBO.term("Philosopher"))
        assert not indexes.is_fresh


class TestDeltaMaintenance:
    def test_add_remove_equal_rebuild(self, philosophy_graph):
        graph = copy_graph(philosophy_graph)
        views = MaterializedViews(graph)
        hypatia = DBR.term("Hypatia")
        graph.add(hypatia, RDF_TYPE, DBO.term("Philosopher"))
        graph.add(hypatia, DBO.term("influencedBy"), DBR.term("Plato"))
        graph.remove(
            DBR.term("Kant"), DBO.term("influencedBy"), DBR.term("Plato")
        )
        graph.remove(DBR.term("Plato"), RDF_TYPE, DBO.term("Philosopher"))
        rebuilt = MaterializedViews(graph, track=False)
        assert views.table_state() == rebuilt.table_state()

    def test_bulk_load_deltas(self, philosophy_graph):
        graph = copy_graph(philosophy_graph)
        views = MaterializedViews(graph)
        before = counter("repro_view_deltas_total", op="add")
        fresh = graph.bulk_load(
            [
                (DBR.term("Hypatia"), RDF_TYPE, DBO.term("Philosopher")),
                (DBR.term("Hypatia"), DBO.term("era"), DBR.term("Athens")),
                # A duplicate of an existing triple: no delta for it.
                (DBR.term("Plato"), RDF_TYPE, DBO.term("Philosopher")),
            ]
        )
        assert fresh == 2
        assert counter("repro_view_deltas_total", op="add") == before + 2
        rebuilt = MaterializedViews(graph, track=False)
        assert views.table_state() == rebuilt.table_state()

    def test_clear_rebuilds(self, philosophy_graph):
        graph = copy_graph(philosophy_graph)
        views = MaterializedViews(graph)
        before = counter("repro_view_rebuilds_total", reason="clear")
        graph.clear()
        assert counter("repro_view_rebuilds_total", reason="clear") == before + 1
        assert views.instance_count(DBO.term("Philosopher")) == 0
        assert views.is_fresh

    def test_no_op_mutations_fire_no_deltas(self, philosophy_graph):
        graph = copy_graph(philosophy_graph)
        MaterializedViews(graph)
        before = counter("repro_view_deltas_total", op="add")
        before_rm = counter("repro_view_deltas_total", op="remove")
        graph.add(DBR.term("Plato"), RDF_TYPE, DBO.term("Philosopher"))
        graph.remove(DBR.term("Plato"), RDF_TYPE, DBO.term("NoSuchClass"))
        assert counter("repro_view_deltas_total", op="add") == before
        assert counter("repro_view_deltas_total", op="remove") == before_rm

    def test_mutated_answers_match_backend(self, philosophy_graph):
        graph = copy_graph(philosophy_graph)
        views = MaterializedViews(graph)
        graph.add(DBR.term("Hypatia"), RDF_TYPE, DBO.term("Philosopher"))
        graph.add(
            DBR.term("Hypatia"), DBO.term("influencedBy"), DBR.term("Plato")
        )
        reference = LocalEndpoint(graph, clock=SimClock())
        for query in (
            property_chart_query(
                MemberPattern.of_type(DBO.term("Philosopher")),
                Direction.OUTGOING,
            ),
            subclass_chart_query(MemberPattern.of_type(THING), THING),
            count_query(MemberPattern.of_type(DBO.term("Philosopher"))),
            object_chart_query(
                MemberPattern.of_type(DBO.term("Philosopher")),
                DBO.term("influencedBy"),
                Direction.OUTGOING,
            ),
        ):
            response = views.try_answer(query)
            assert response is not None
            assert canon(response.result) == canon(reference.select(query))


class TestConnectionTables:
    def test_lazy_materialization(self, philosophy_graph):
        graph = copy_graph(philosophy_graph)
        views = MaterializedViews(graph)
        classes = [DBO.term("Philosopher")]
        prop = DBO.term("influencedBy")
        before = counter("repro_view_rebuilds_total", reason="connection")
        first = views.connection_expansion(classes, prop, Direction.OUTGOING)
        assert (
            counter("repro_view_rebuilds_total", reason="connection")
            == before + 1
        )
        again = views.connection_expansion(classes, prop, Direction.OUTGOING)
        # Second lookup is served from the materialized table.
        assert (
            counter("repro_view_rebuilds_total", reason="connection")
            == before + 1
        )
        assert first == again

    def test_edge_delta_updates_materialized_table(self, philosophy_graph):
        graph = copy_graph(philosophy_graph)
        views = MaterializedViews(graph)
        classes = [DBO.term("Philosopher")]
        prop = DBO.term("influencedBy")
        views.connection_expansion(classes, prop, Direction.OUTGOING)
        # An edge of an existing member: updated in place, no rebuild.
        before = counter("repro_view_rebuilds_total", reason="connection")
        graph.add(DBR.term("Kant"), prop, DBR.term("Aristotle"))
        rows = views.connection_expansion(classes, prop, Direction.OUTGOING)
        assert (
            counter("repro_view_rebuilds_total", reason="connection") == before
        )
        reference = LocalEndpoint(graph, clock=SimClock())
        query = object_chart_query(
            MemberPattern.of_type(DBO.term("Philosopher")),
            prop,
            Direction.OUTGOING,
        )
        assert canon(views.try_answer(query).result) == canon(
            reference.select(query)
        )
        assert rows  # typed objects exist in the philosophy graph

    def test_membership_change_drops_and_rematerializes(self, philosophy_graph):
        graph = copy_graph(philosophy_graph)
        views = MaterializedViews(graph)
        classes = [DBO.term("Philosopher")]
        prop = DBO.term("influencedBy")
        views.connection_expansion(classes, prop, Direction.OUTGOING)
        before = counter("repro_view_rebuilds_total", reason="connection")
        graph.add(DBR.term("Hypatia"), RDF_TYPE, DBO.term("Philosopher"))
        graph.add(DBR.term("Hypatia"), prop, DBR.term("Plato"))
        rows = views.connection_expansion(classes, prop, Direction.OUTGOING)
        assert (
            counter("repro_view_rebuilds_total", reason="connection")
            == before + 1
        )
        reference = LocalEndpoint(graph, clock=SimClock())
        query = object_chart_query(
            MemberPattern.of_type(DBO.term("Philosopher")),
            prop,
            Direction.OUTGOING,
        )
        assert canon(views.try_answer(query).result) == canon(
            reference.select(query)
        )
        assert rows


class TestLegacyIndexApi:
    """The build-once index surface the decomposer relies on."""

    def test_instances_decode(self, philosophy_views):
        assert DBR.term("Plato") in philosophy_views.instances(
            DBO.term("Philosopher")
        )
        assert philosophy_views.instances(DBO.term("NoSuchClass")) == frozenset()

    def test_classes_sorted(self, philosophy_views):
        listed = philosophy_views.classes()
        assert listed == sorted(listed, key=lambda cls: cls.value)
        assert DBO.term("Philosopher") in listed

    def test_property_expansion_none_for_unknown(self, philosophy_views):
        assert (
            philosophy_views.property_expansion(
                [DBO.term("NoSuchClass")], Direction.OUTGOING
            )
            is None
        )
