"""Paged query execution across the endpoint layers: the local
endpoint's token loop, the HTTP/JSON wire with partial bodies, the
remote error path, and the chart engine's incremental fetching."""

import json

import pytest

from repro.core import ChartEngine
from repro.endpoint import (
    LocalEndpoint,
    RemoteEndpoint,
    SimClock,
    SimulatedVirtuosoServer,
    decode_page,
    encode_request,
)
from repro.explorer.settings import SettingsError, SettingsForm
from repro.rdf import OWL
from repro.sparql import SparqlError

THING = OWL.term("Thing")
P = "PREFIX dbo: <http://dbpedia.org/ontology/>\n"
ALL_TRIPLES = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"


def _multiset(rows):
    return sorted(
        tuple(sorted((k, v.n3()) for k, v in row.items())) for row in rows
    )


class TestLocalEndpointPaging:
    def test_paged_equals_one_shot(self, philosophy_endpoint):
        expected = philosophy_endpoint.select(ALL_TRIPLES)
        rows = []
        response = philosophy_endpoint.query(ALL_TRIPLES, page_size=10)
        rows.extend(response.rows)
        pages = 1
        while not response.complete:
            assert response.continuation  # every partial page mints a token
            assert len(response.rows) <= 10
            response = philosophy_endpoint.query(
                ALL_TRIPLES,
                page_size=10,
                continuation=response.continuation,
            )
            rows.extend(response.rows)
            pages += 1
        assert response.continuation is None
        assert pages > 1
        assert rows == expected.rows  # values AND order

    def test_query_all_pages(self, philosophy_endpoint):
        expected = philosophy_endpoint.select(ALL_TRIPLES)
        responses = list(
            philosophy_endpoint.query_all_pages(ALL_TRIPLES, page_size=7)
        )
        assert len(responses) > 1
        assert all(not r.complete for r in responses[:-1])
        assert responses[-1].complete
        rows = [row for r in responses for row in r.rows]
        assert rows == expected.rows

    def test_each_page_charged_for_its_own_work(self, philosophy_endpoint):
        one_shot = philosophy_endpoint.query(ALL_TRIPLES)
        page = philosophy_endpoint.query(ALL_TRIPLES, page_size=5)
        assert page.elapsed_ms < one_shot.elapsed_ms

    def test_ask_never_pages(self, philosophy_endpoint):
        response = philosophy_endpoint.query(
            P + "ASK { ?s a dbo:Philosopher }", page_size=1
        )
        assert response.complete
        assert response.continuation is None
        assert response.result.value is True

    @pytest.mark.parametrize("form", ["ASK {{ {w} }}", "CONSTRUCT WHERE {{ {w} }}"])
    def test_only_select_tokens_resume(self, philosophy_graph, form):
        """A token naming an ASK or CONSTRUCT can only be forged (they
        never mint one): refused as malformed, from any process."""
        from repro.sparql import MalformedTokenError
        from repro.sparql.executor import encode_continuation
        from repro.sparql.planner import build_physical_plan

        where = "?s ?p ?o"
        select = f"SELECT * WHERE {{ {where} }}"
        forged = encode_continuation(
            build_physical_plan(philosophy_graph, select),
            philosophy_graph,
            form.format(w=where),
        )
        with pytest.raises(MalformedTokenError):
            LocalEndpoint(philosophy_graph).query(continuation=forged)

    def test_continuation_for_different_query_rejected(
        self, philosophy_endpoint
    ):
        from repro.sparql import MalformedTokenError

        first = philosophy_endpoint.query(ALL_TRIPLES, page_size=3)
        with pytest.raises(MalformedTokenError):
            philosophy_endpoint.query(
                "SELECT ?s WHERE { ?s ?p ?o }",
                page_size=3,
                continuation=first.continuation,
            )

    def test_expired_after_local_mutation(self, philosophy_graph):
        from repro.rdf import URI
        from repro.sparql import ExpiredTokenError

        endpoint = LocalEndpoint(philosophy_graph.copy())
        first = endpoint.query(ALL_TRIPLES, page_size=3)
        endpoint.graph.add(URI("http://x"), URI("http://y"), URI("http://z"))
        with pytest.raises(ExpiredTokenError):
            endpoint.query(
                ALL_TRIPLES, page_size=3, continuation=first.continuation
            )


class TestWirePaging:
    def test_partial_body_carries_continuation_keys(self, philosophy_graph):
        server = SimulatedVirtuosoServer(philosophy_graph)
        request = encode_request(server.url, ALL_TRIPLES, page_size=6)
        response = server.handle(request)
        assert response.status == 200
        blob = json.loads(response.body)
        assert blob["complete"] is False
        assert isinstance(blob["continuation"], str)
        assert len(blob["results"]["bindings"]) == 6
        result, token, complete = decode_page(response)
        assert token == blob["continuation"]
        assert complete is False
        assert len(result.rows) == 6

    def test_remote_paged_equals_one_shot(self, philosophy_graph):
        server = SimulatedVirtuosoServer(philosophy_graph)
        remote = RemoteEndpoint(server)
        expected = remote.select(ALL_TRIPLES)
        rows = []
        response = remote.query(ALL_TRIPLES, page_size=9)
        rows.extend(response.rows)
        while not response.complete:
            response = remote.query(
                ALL_TRIPLES,
                page_size=9,
                continuation=response.continuation,
            )
            rows.extend(response.rows)
        # The wire round-trips through JSON, which preserves order too.
        assert _multiset(rows) == _multiset(expected.rows)
        assert [r.n3() for row in rows for r in row.values()] == [
            r.n3() for row in expected.rows for r in row.values()
        ]

    def test_remote_ask_falls_back_to_one_shot(self, philosophy_graph):
        server = SimulatedVirtuosoServer(philosophy_graph)
        remote = RemoteEndpoint(server)
        response = remote.query(P + "ASK { ?s a dbo:Place }", page_size=2)
        assert response.complete
        assert response.continuation is None

    def test_malformed_token_is_clean_400(self, philosophy_graph):
        server = SimulatedVirtuosoServer(philosophy_graph)
        request = encode_request(
            server.url, ALL_TRIPLES, page_size=5, continuation="garbage"
        )
        response = server.handle(request)
        assert response.status == 400
        assert "MalformedTokenError" in response.body
        remote = RemoteEndpoint(server)
        # The 400 body names the error class, and the client re-raises
        # it as the same typed error the local executor throws.
        from repro.sparql import MalformedTokenError

        with pytest.raises(MalformedTokenError):
            remote.query(ALL_TRIPLES, page_size=5, continuation="garbage")

    def test_expired_token_is_clean_400(self, philosophy_graph):
        from repro.rdf import URI

        server = SimulatedVirtuosoServer(philosophy_graph.copy())
        remote = RemoteEndpoint(server)
        first = remote.query(ALL_TRIPLES, page_size=4)
        assert not first.complete
        server.graph.add(URI("http://x"), URI("http://y"), URI("http://z"))
        from repro.sparql import ExpiredTokenError

        with pytest.raises(ExpiredTokenError):
            remote.query(
                ALL_TRIPLES, page_size=4, continuation=first.continuation
            )


EX = "http://ex.org/"
OVER_A = f"SELECT ?s WHERE {{ ?s a <{EX}A> }}"
OVER_B = f"SELECT ?s WHERE {{ ?s a <{EX}B> }}"


def _two_class_graph():
    from repro.rdf import RDF, Graph, URI

    graph = Graph(name="two-classes")
    for cls in "AB":
        for i in range(10):
            graph.add(
                URI(f"{EX}{cls.lower()}{i}"), RDF.term("type"), URI(EX + cls)
            )
    return graph


def _counter(name, **labels):
    from repro.obs.metrics import REGISTRY

    metric = REGISTRY.get(name)
    return metric.labels(**labels).value if labels else metric.value


def _local_door(graph):
    return LocalEndpoint(graph)


def _wire_door(graph):
    return RemoteEndpoint(SimulatedVirtuosoServer(graph))


class TestTokenBelongsToItsQuery:
    """A token for ``?s a <A>`` fits the plan of ``?s a <B>`` operator
    for operator, so only the text comparison stands between a replay
    and a silently wrong page — on every door."""

    @pytest.mark.parametrize("door", [_local_door, _wire_door])
    def test_same_shape_other_query_is_refused_typed(self, door):
        from repro.sparql import MalformedTokenError

        endpoint = door(_two_class_graph())
        first = endpoint.query(OVER_A, page_size=3)
        assert [row["s"].value for row in first.rows] == [
            f"{EX}a{i}" for i in range(3)
        ]
        rejects = _counter("repro_exec_token_rejects_total", reason="malformed")
        with pytest.raises(MalformedTokenError):
            endpoint.query(
                OVER_B, page_size=3, continuation=first.continuation
            )
        assert (
            _counter("repro_exec_token_rejects_total", reason="malformed")
            == rejects + 1
        )
        # The refusal cost the rightful owner nothing.
        resumed = endpoint.query(
            OVER_A, page_size=3, continuation=first.continuation
        )
        assert [row["s"].value for row in resumed.rows] == [
            f"{EX}a{i}" for i in range(3, 6)
        ]

    def test_refused_on_the_decode_path_too(self):
        """A second server holds no live plan for the token: the check
        runs against the text inside the decoded envelope."""
        from repro.sparql import MalformedTokenError

        graph = _two_class_graph()
        first = _wire_door(graph).query(OVER_A, page_size=3)
        with pytest.raises(MalformedTokenError):
            _wire_door(graph).query(
                OVER_B, page_size=3, continuation=first.continuation
            )

    @pytest.mark.parametrize(
        "text", [OVER_A, OVER_A.replace(" ", "\n  "), None]
    )
    def test_own_text_any_whitespace_or_none_resumes(self, text):
        endpoint = _local_door(_two_class_graph())
        first = endpoint.query(OVER_A, page_size=3)
        resumed = endpoint.query(
            text, page_size=3, continuation=first.continuation
        )
        assert [row["s"].value for row in resumed.rows] == [
            f"{EX}a{i}" for i in range(3, 6)
        ]


class TestOneWireRequestIsAccountedOnce:
    """The server answers through a ``LocalEndpoint``; the request must
    still be observed, logged and billed exactly once — by the client,
    under ``source="virtuoso"``."""

    def _measure(self, remote, clock, **request):
        from repro.endpoint import TransientWireError
        from repro.obs.metrics import REGISTRY

        def observed():
            return {
                labels["source"]: value
                for name, labels, value in REGISTRY.get(
                    "repro_endpoint_queries_total"
                ).samples()
            }

        before, logged, started = observed(), len(remote.query_log), clock.now_ms
        try:
            outcome = remote.query(**request)
        except (SparqlError, TransientWireError) as error:
            outcome = error
        after = observed()
        moved = {
            source: after[source] - before.get(source, 0)
            for source in after
            if after[source] != before.get(source, 0)
        }
        return outcome, moved, len(remote.query_log) - logged, clock.now_ms - started

    @pytest.mark.parametrize(
        "request_kwargs, complete",
        [
            ({"query_text": ALL_TRIPLES}, True),
            ({"query_text": ALL_TRIPLES, "page_size": 5}, False),
        ],
    )
    def test_an_answer(self, philosophy_graph, clock, request_kwargs, complete):
        remote = RemoteEndpoint(SimulatedVirtuosoServer(philosophy_graph, clock=clock))
        response, moved, logged, billed = self._measure(
            remote, clock, **request_kwargs
        )
        assert response.complete is complete
        assert moved == {"virtuoso": 1}
        assert logged == 1
        assert billed == pytest.approx(response.elapsed_ms)
        assert remote.query_log[-1].elapsed_ms == response.elapsed_ms

    def test_a_400(self, philosophy_graph, clock):
        from repro.sparql import MalformedTokenError

        server = SimulatedVirtuosoServer(philosophy_graph, clock=clock)
        error, moved, logged, billed = self._measure(
            RemoteEndpoint(server),
            clock,
            query_text=ALL_TRIPLES,
            page_size=5,
            continuation="garbage",
        )
        assert isinstance(error, MalformedTokenError)
        assert moved == {} and logged == 0
        assert billed == pytest.approx(server.cost_model.network_latency_ms)

    def test_an_injected_503(self, philosophy_graph, clock):
        from repro.endpoint import FaultInjector, TransientWireError

        server = SimulatedVirtuosoServer(
            philosophy_graph,
            clock=clock,
            faults=FaultInjector(transient_rate=1.0, seed=1),
        )
        error, moved, logged, billed = self._measure(
            RemoteEndpoint(server), clock, query_text=ALL_TRIPLES
        )
        assert isinstance(error, TransientWireError)
        assert moved == {} and logged == 0
        assert billed == pytest.approx(server.cost_model.network_latency_ms)

    def test_an_injected_slow_response(self, philosophy_graph, clock):
        from repro.endpoint import FaultInjector

        faults = FaultInjector(slow_rate=1.0, seed=1)
        server = SimulatedVirtuosoServer(philosophy_graph, clock=clock, faults=faults)
        plain = RemoteEndpoint(
            SimulatedVirtuosoServer(philosophy_graph, clock=SimClock())
        ).query(ALL_TRIPLES)
        response, moved, logged, billed = self._measure(
            RemoteEndpoint(server), clock, query_text=ALL_TRIPLES
        )
        assert moved == {"virtuoso": 1} and logged == 1
        assert response.elapsed_ms == pytest.approx(
            plain.elapsed_ms + faults.slow_penalty_ms
        )
        assert billed == pytest.approx(response.elapsed_ms)


class TestLivePlanAndDecodePathAgreeOnTheWire:
    def _pages(self, remotes, page_size=4):
        """Page ALL_TRIPLES to the end, request ``i`` going to
        ``remotes[i % len(remotes)]``."""
        rows, token, turn = [], None, 0
        while True:
            response = remotes[turn % len(remotes)].query(
                ALL_TRIPLES, page_size=page_size, continuation=token
            )
            rows.extend(response.rows)
            turn += 1
            if response.complete:
                return rows, turn
            token = response.continuation

    def test_one_server_continues_live_two_servers_decode(
        self, philosophy_graph, monkeypatch
    ):
        from repro.sparql import executor

        restores = []
        real = executor.restore_plan

        def counting(factory, graph, blob):
            restores.append(blob["query"])
            return real(factory, graph, blob)

        monkeypatch.setattr(executor, "restore_plan", counting)
        expected = LocalEndpoint(philosophy_graph).select(ALL_TRIPLES).rows
        page_size = len(expected) // 3 + 1  # three pages
        one = RemoteEndpoint(SimulatedVirtuosoServer(philosophy_graph))
        rows, pages = self._pages([one], page_size)
        assert pages == 3 and restores == []
        assert rows == expected
        # Alternating between two stateless servers over the same store:
        # neither ever holds the live plan, every resume decodes.
        pair = [
            RemoteEndpoint(SimulatedVirtuosoServer(philosophy_graph))
            for _ in range(2)
        ]
        rows, pages = self._pages(pair, page_size)
        assert pages == 3 and len(restores) == 2
        assert rows == expected


#: Budgets that leave a quantum no room to run (ROADMAP item 5: they
#: fail typed at every surface — never a one-row page, never a spin).
BAD_BUDGETS = [
    {"page_size": 0},
    {"page_size": -3},
    {"page_size": 2.5},
    {"quantum_ms": 0},
    {"quantum_ms": -1.0},
    {"quantum_ms": float("nan")},
    {"page_size": 5, "quantum_ms": 0.0},
]


CONSTRUCT = P + "CONSTRUCT { ?o dbo:inspired ?s } WHERE { ?s dbo:influencedBy ?o }"


class TestConstructNeverPages:
    """A CONSTRUCT answers with one graph: a budget is refused typed,
    on both endpoints, and the one-shot request still works."""

    @pytest.mark.parametrize("budget", [{"page_size": 2}, {"quantum_ms": 5.0}])
    def test_local_endpoint_refuses_typed(self, philosophy_endpoint, budget):
        from repro.sparql import SparqlEvalError

        with pytest.raises(SparqlEvalError) as refused:
            philosophy_endpoint.query(CONSTRUCT, **budget)
        assert "cannot be paged" in str(refused.value)
        assert "recursive" not in str(refused.value)
        assert len(philosophy_endpoint.query(CONSTRUCT).result) == 3

    def test_server_answers_400(self, philosophy_graph):
        server = SimulatedVirtuosoServer(philosophy_graph)
        response = server.handle(
            encode_request(server.url, CONSTRUCT, page_size=2)
        )
        assert response.status == 400
        assert response.body.startswith("SparqlEvalError")
        assert "recursive" not in response.body
        assert server.handle(encode_request(server.url, CONSTRUCT)).ok


class TestInvalidBudgetsAreRefusedTyped:
    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_local_endpoint(self, philosophy_endpoint, budget):
        from repro.sparql import InvalidBudgetError

        with pytest.raises(InvalidBudgetError):
            philosophy_endpoint.query(ALL_TRIPLES, **budget)

    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_local_endpoint_on_a_continuation(self, philosophy_graph, budget):
        from repro.sparql import InvalidBudgetError

        endpoint = LocalEndpoint(philosophy_graph)
        first = endpoint.query(ALL_TRIPLES, page_size=4)
        with pytest.raises(InvalidBudgetError):
            endpoint.query(continuation=first.continuation, **budget)
        # The refusal cost the client nothing: the token still resumes.
        rows = list(first.result.rows)
        response = first
        while not response.complete:
            response = endpoint.query(
                continuation=response.continuation, page_size=4
            )
            rows.extend(response.result.rows)
        assert _multiset(rows) == _multiset(
            endpoint.query(ALL_TRIPLES).result.rows
        )

    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_server_answers_400_and_client_reraises_typed(
        self, philosophy_graph, budget
    ):
        from repro.sparql import InvalidBudgetError

        server = SimulatedVirtuosoServer(philosophy_graph)
        response = server.handle(
            encode_request(server.url, ALL_TRIPLES, **budget)
        )
        assert response.status == 400
        assert response.body.startswith("InvalidBudgetError: ")
        with pytest.raises(InvalidBudgetError):
            RemoteEndpoint(server).query(ALL_TRIPLES, **budget)

    def test_it_is_a_sparql_error(self):
        from repro.sparql import InvalidBudgetError

        assert issubclass(InvalidBudgetError, SparqlError)


class _LegacyEndpoint:
    """An endpoint whose query() predates the paging keywords."""

    def __init__(self, inner):
        self._inner = inner

    def query(self, query_text):
        return self._inner.query(query_text)

    def select(self, query_text):
        return self._inner.select(query_text)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestChartEnginePaging:
    def _charts(self, engine):
        initial = engine.initial_chart()
        bar = next(b for b in initial if b.label.local_name == "Agent")
        return {
            "initial": {b.label: b.size for b in initial},
            "properties": {
                b.label: b.size for b in engine.property_chart(bar)
            },
        }

    def test_paged_engine_matches_unpaged(self, philosophy_endpoint):
        plain = ChartEngine(philosophy_endpoint, THING)
        paged = ChartEngine(philosophy_endpoint, THING, page_size=2)
        assert self._charts(paged) == self._charts(plain)
        assert paged.pages_fetched > plain.pages_fetched == 0

    def test_quantum_only_config_also_pages(self, philosophy_endpoint):
        paged = ChartEngine(philosophy_endpoint, THING, quantum_ms=1000.0)
        paged.initial_chart()
        assert paged.pages_fetched >= 1

    def test_falls_back_when_endpoint_lacks_paging(self, philosophy_endpoint):
        legacy = _LegacyEndpoint(philosophy_endpoint)
        engine = ChartEngine(legacy, THING, page_size=2)
        plain = ChartEngine(philosophy_endpoint, THING)
        assert self._charts(engine) == self._charts(plain)
        assert engine.pages_fetched == 0


class TestSettings:
    def test_paging_settings_flow_to_engine(self, philosophy_endpoint):
        from repro.explorer import ExplorerSession

        form = SettingsForm(chart_page_size=4, chart_quantum_ms=250.0)
        form.validate()
        session = ExplorerSession(philosophy_endpoint, settings=form)
        assert session.engine.page_size == 4
        assert session.engine.quantum_ms == 250.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chart_page_size": 0},
            {"chart_page_size": -5},
            {"chart_quantum_ms": 0.0},
            {"chart_quantum_ms": -1.0},
        ],
    )
    def test_invalid_paging_settings_rejected(self, kwargs):
        with pytest.raises(SettingsError):
            SettingsForm(**kwargs).validate()
