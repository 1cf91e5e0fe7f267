"""Unit tests for the eLinda endpoint router (Fig. 3 wiring)."""

import pytest

from repro.core import Direction, MemberPattern, property_chart_query
from repro.datasets.dbpedia import OWL_THING, recommended_scale
from repro.endpoint import (
    LocalEndpoint,
    REMOTE_VIRTUOSO_PROFILE,
    RemoteEndpoint,
    SimClock,
    SimulatedVirtuosoServer,
)
from repro.perf import (
    Decomposer,
    ElindaEndpoint,
    HeavyQueryStore,
    MaterializedViews,
)

HEAVY = property_chart_query(MemberPattern.of_type(OWL_THING))
LIGHT = "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"


@pytest.fixture()
def stack(dbpedia_graph, dbpedia_config, clock):
    """A full eLinda endpoint over a slow simulated Virtuoso backend."""
    profile = REMOTE_VIRTUOSO_PROFILE.scaled(recommended_scale(dbpedia_config))
    server = SimulatedVirtuosoServer(dbpedia_graph, clock=clock, cost_model=profile)
    backend = RemoteEndpoint(server)
    hvs = HeavyQueryStore(clock=clock)
    decomposer = Decomposer(MaterializedViews(dbpedia_graph, track=False), clock=clock)
    return ElindaEndpoint(backend, hvs=hvs, decomposer=decomposer)


class TestRoutingOrder:
    def test_decomposable_query_skips_backend(self, stack):
        response = stack.query(HEAVY)
        assert response.source == "decomposer"
        assert stack.backend.query_log == []

    def test_non_decomposable_goes_to_backend(self, stack):
        response = stack.query(LIGHT)
        assert response.source == "virtuoso"

    def test_hvs_wins_over_decomposer_once_cached(self, stack):
        # Force the heavy query through the backend once (decomposer off).
        stack.use_decomposer = False
        first = stack.query(HEAVY)
        assert first.source == "virtuoso"
        stack.use_decomposer = True
        second = stack.query(HEAVY)
        assert second.source == "hvs"
        assert second.elapsed_ms < first.elapsed_ms

    def test_light_queries_never_cached(self, stack):
        light = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"
        first = stack.query(light)
        assert first.elapsed_ms < 1000  # genuinely light
        repeat = stack.query(light)
        assert repeat.source == "virtuoso"

    def test_all_sources_agree(self, stack, dbpedia_graph):
        """The same query answered by all three paths yields identical
        row multisets."""
        def canon(result):
            return sorted(
                tuple(sorted((k, v.n3()) for k, v in row.items()))
                for row in result.rows
            )

        via_decomposer = stack.query(HEAVY)
        stack.use_decomposer = False
        via_backend = stack.query(HEAVY)     # virtuoso, then cached
        via_hvs = stack.query(HEAVY)
        assert via_hvs.source == "hvs"
        assert (
            canon(via_decomposer.result)
            == canon(via_backend.result)
            == canon(via_hvs.result)
        )


class TestSwitches:
    def test_both_off_routes_everything_to_backend(self, stack):
        stack.use_hvs = False
        stack.use_decomposer = False
        assert stack.query(HEAVY).source == "virtuoso"
        assert stack.query(HEAVY).source == "virtuoso"

    def test_hvs_disabled_still_decomposes(self, stack):
        stack.use_hvs = False
        assert stack.query(HEAVY).source == "decomposer"

    def test_missing_components_tolerated(self, dbpedia_graph):
        bare = ElindaEndpoint(LocalEndpoint(dbpedia_graph))
        assert bare.query(LIGHT).source == "local"


class TestInvalidation:
    def test_stale_indexes_bypass_decomposer(self, dbpedia_graph, clock):
        graph = dbpedia_graph.copy()
        backend = LocalEndpoint(graph, clock=clock)
        decomposer = Decomposer(MaterializedViews(graph, track=False), clock=clock)
        stack = ElindaEndpoint(backend, decomposer=decomposer)
        assert stack.query(HEAVY).source == "decomposer"
        from repro.rdf import URI

        graph.add(URI("http://new"), URI("http://p"), URI("http://o"))
        assert stack.query(HEAVY).source == "local"

    def test_hvs_invalidated_on_update(self, dbpedia_graph, clock):
        graph = dbpedia_graph.copy()
        backend = LocalEndpoint(graph, clock=clock)
        hvs = HeavyQueryStore(threshold_ms=0.001, clock=clock)
        stack = ElindaEndpoint(backend, hvs=hvs)
        stack.query(LIGHT)
        assert stack.query(LIGHT).source == "hvs"
        from repro.rdf import URI

        graph.add(URI("http://new2"), URI("http://p"), URI("http://o"))
        assert stack.query(LIGHT).source == "local"

    def test_dataset_version_delegates_to_backend(self, stack, dbpedia_graph):
        assert stack.dataset_version == stack.backend.dataset_version


class TestPagedRouting:
    """The router speaks the paged query protocol without compromising
    the HVS: continuations bypass the cache layers, partial pages are
    never recorded, and racing updates drop the record."""

    PAGED = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 120"

    def _drain(self, stack, page_size=50):
        response = stack.query(self.PAGED, page_size=page_size)
        rows = list(response.result.rows)
        pages = 1
        while not response.complete:
            response = stack.query(
                self.PAGED,
                page_size=page_size,
                continuation=response.continuation,
            )
            rows.extend(response.result.rows)
            pages += 1
        return rows, pages

    def test_paged_equals_one_shot(self, stack):
        # Drain first: a one-shot answer would be HVS-cached, and a
        # subsequent fresh paged request would (correctly) hit the HVS
        # and come back complete in a single response.
        rows, pages = self._drain(stack)
        one_shot = stack.query(self.PAGED)
        assert pages > 1
        assert rows == list(one_shot.result.rows)

    def test_continuation_bypasses_hvs_and_decomposer(
        self, stack, monkeypatch
    ):
        first = stack.query(self.PAGED, page_size=50)
        assert not first.complete
        lookups_before = stack.hvs.stats.hits + stack.hvs.stats.misses
        consulted = []
        monkeypatch.setattr(
            stack.decomposer,
            "try_answer",
            lambda query_text: consulted.append(query_text),
        )
        resumed = stack.query(
            self.PAGED, page_size=50, continuation=first.continuation
        )
        assert resumed.source == "virtuoso"
        assert (
            stack.hvs.stats.hits + stack.hvs.stats.misses == lookups_before
        )
        assert consulted == []

    def test_partial_pages_never_recorded(self, stack, monkeypatch):
        recorded = []
        original = stack.hvs.record

        def spy(query_text, result, runtime_ms, dataset_version):
            recorded.append((query_text, result))
            return original(query_text, result, runtime_ms, dataset_version)

        monkeypatch.setattr(stack.hvs, "record", spy)
        rows, pages = self._drain(stack)
        assert pages > 1
        # Each partial page (and the final continuation-resumed page)
        # was skipped: only fresh single-response answers are offered.
        assert all(len(result.rows) == len(rows) for _, result in recorded)
        assert self.PAGED not in [q for q, _ in recorded]

    def test_racing_update_drops_the_record(self, dbpedia_graph, clock):
        """Regression: a result computed against version N must not be
        cached under version N+1 when the graph moves mid-execution."""
        from repro.rdf import URI

        graph = dbpedia_graph.copy()
        backend = LocalEndpoint(graph, clock=clock)
        hvs = HeavyQueryStore(threshold_ms=0.001, clock=clock)
        racer = ElindaEndpoint(backend, hvs=hvs)

        original = backend.query

        def query_and_mutate(query_text, **kwargs):
            response = original(query_text, **kwargs)
            # The knowledge base updates while the answer is in flight.
            graph.add(URI("http://racer"), URI("http://p"), URI("http://o"))
            return response

        backend.query = query_and_mutate
        racer.query(LIGHT)
        assert LIGHT not in hvs  # stale answer was not cached
        backend.query = original
        racer.query(LIGHT)
        assert LIGHT in hvs  # without the race it is cached


class TestLatencyShape:
    def test_fig4_ordering(self, stack):
        """virtuoso >> decomposer >> hvs — the Fig. 4 story."""
        stack.use_decomposer = False
        virtuoso_ms = stack.query(HEAVY).elapsed_ms
        hvs_ms = stack.query(HEAVY).elapsed_ms
        stack.use_decomposer = True
        stack.hvs.clear()
        decomposer_ms = stack.query(HEAVY).elapsed_ms
        assert virtuoso_ms > 50 * decomposer_ms
        assert decomposer_ms > 5 * hvs_ms


class TestTheDoor:
    """The router compiles a routed text once — through its backend's
    plan cache — and hands the rungs that plan's AST.  No rung keeps a
    cache handle, so nothing can store an unoptimized entry under the
    key the backend executes from."""

    @pytest.fixture()
    def connected(self, philosophy_graph):
        from repro.explorer import SettingsForm, connect

        graph = philosophy_graph.copy()
        settings = SettingsForm()
        server = SimulatedVirtuosoServer(graph, url=settings.endpoint_url)
        return connect(settings, {settings.endpoint_url: server}), graph

    #: Shapes no rung answers: a VALUES-restricted property chart (the
    #: matchers accept pure rdf:type member patterns only) and a
    #: data-table top-k.
    @pytest.fixture()
    def unanswerable(self, philosophy_graph):
        from repro.rdf import DBO

        members = sorted(
            MaterializedViews(philosophy_graph, track=False).instances(
                DBO.term("Philosopher")
            ),
            key=lambda uri: uri.value,
        )[:3]
        return [
            property_chart_query(
                MemberPattern.of_values(members), Direction.OUTGOING
            ),
            "PREFIX dbo: <http://dbpedia.org/ontology/>\n"
            "SELECT ?s ?o WHERE { ?s a dbo:Philosopher . "
            "?s dbo:influencedBy ?o } ORDER BY ?s ?o LIMIT 4",
        ]

    def test_routed_backend_queries_run_optimized_plans(
        self, connected, unanswerable
    ):
        from repro.obs.metrics import REGISTRY
        from repro.perf.plancache import build_plan

        elinda, graph = connected
        optimizer_runs = REGISTRY.get("repro_optimizer_runs_total")
        for text in unanswerable:
            runs = optimizer_runs.value
            response = elinda.query(text)
            assert response.source == "local"
            assert optimizer_runs.value == runs + 1
            entry = elinda.backend.plan_cache.get(text, graph=graph)
            assert entry.stats_version == graph.version
            assert entry.algebra != build_plan(text, optimize=False).algebra
            assert response.result.rows == LocalEndpoint(graph).query(text).result.rows

    def test_one_parse_per_text_per_graph_version(
        self, connected, unanswerable, monkeypatch
    ):
        from repro.perf import plancache, views
        from repro.rdf import URI

        parsed = []
        real = plancache.parse_query
        monkeypatch.setattr(
            plancache, "parse_query", lambda text: parsed.append(text) or real(text)
        )
        # The rungs were handed the AST: they never parse for themselves.
        monkeypatch.setattr(
            views, "parse_query", lambda text: pytest.fail("a rung re-parsed")
        )
        elinda, graph = connected
        assert elinda.hvs is not None and elinda.views is not None
        assert elinda.decomposer is not None
        texts = unanswerable + [HEAVY]
        for text in texts:
            elinda.query(text)  # HVS miss → views → decomposer → backend
        assert parsed == texts
        for text in texts:
            elinda.query(text)
        assert parsed == texts  # the repeat compiles nothing
        graph.add(URI("http://new"), URI("http://p"), URI("http://o"))
        for text in texts:
            elinda.query(text)
        assert parsed == texts * 2  # one re-plan per text per version

    def test_unparseable_text_reaches_the_backend_error(self, connected):
        from repro.sparql import SparqlError

        elinda, _graph = connected
        with pytest.raises(SparqlError):
            elinda.query("SELECT WHERE {")
