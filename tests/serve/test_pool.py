"""Worker-pool tests: forked workers over one shared mmap snapshot
serve byte-identical pages, survive crashes mid-fleet, transfer
continuation tokens across process boundaries, and fold their metrics
back into the parent registry.

Everything here is *functional* — fork, routing, recovery — and runs on
any core count; only real-speedup assertions (none in this file) carry
the ``multicore`` marker.
"""

import os
from types import SimpleNamespace

import pytest

from repro.endpoint import LocalEndpoint
from repro.obs.metrics import REGISTRY
from repro.rdf.snapshot import open_snapshot, write_snapshot
from repro.serve import BackoffPolicy, PoolFrontend, ServeConfig
from repro.serve.pool import _HashRing
from repro.sparql.results import term_from_json

# Multi-page at page_size 10 over the ~35-triple philosophy graph.
SCAN = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 150"
# A blocking (aggregation + sort) plan: exercises the streaming
# accumulator save/load when its token crosses a process boundary.
AGG = (
    "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } "
    "GROUP BY ?p ORDER BY ?p"
)
# A closure traversal: exercises the PathScan BFS frontier/visited-set
# state when its token crosses a process boundary (PR 8).
PATH = (
    "SELECT ?s ?c WHERE { ?s "
    "<http://www.w3.org/2000/01/rdf-schema#subClassOf>* ?c }"
)
WORKLOAD = [SCAN, AGG, PATH]


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory, philosophy_graph):
    path = str(tmp_path_factory.mktemp("pool") / "pool.snapshot")
    write_snapshot(philosophy_graph, path)
    return path


def make_pool(snapshot_path, workers=2, **kwargs):
    config = ServeConfig(
        max_active=8,
        queue_capacity=64,
        page_size=10,
        backoff=BackoffPolicy(max_retries=5),
        seed=3,
    )
    return PoolFrontend(
        snapshot_path, workers=workers, config=config, **kwargs
    )


def rendered(rows):
    # Ordered, not a multiset: the invariant is byte-identical pages,
    # including row order.
    return [
        tuple(sorted((name, term.n3()) for name, term in row.items()))
        for row in rows
    ]


def reference_rows(graph, query):
    """One-shot single-process evaluation (paging ≡ one-shot holds)."""
    return LocalEndpoint(graph).query(query).result.rows


def counter(name, **labels):
    metric = REGISTRY.get(name)
    return metric.labels(**labels).value if labels else metric.value


class TestPoolServing:
    def test_pages_byte_identical_to_single_process(
        self, snapshot_path, philosophy_graph
    ):
        expected = [
            rendered(reference_rows(philosophy_graph, query))
            for query in WORKLOAD
        ]
        with make_pool(snapshot_path) as frontend:
            for i in range(4):
                frontend.submit(f"session-{i}", WORKLOAD)
            reports = frontend.run()
        assert len(reports) == 4
        for report in reports.values():
            assert report.outcome == "completed"
            for index, want in enumerate(expected):
                assert rendered(report.rows[index]) == want

    def test_sessions_survive_a_worker_crash(
        self, snapshot_path, philosophy_graph
    ):
        expected = [
            rendered(reference_rows(philosophy_graph, query))
            for query in WORKLOAD
        ]
        restarts_before = counter("repro_pool_worker_restarts_total")
        with make_pool(snapshot_path) as frontend:
            for i in range(6):
                frontend.submit(f"crash-{i}", WORKLOAD)
            frontend.crash_worker(0)
            reports = frontend.run()
            assert frontend.alive_count() == frontend.worker_count
        assert all(r.outcome == "completed" for r in reports.values())
        for report in reports.values():
            for index, want in enumerate(expected):
                assert rendered(report.rows[index]) == want
        assert counter("repro_pool_worker_restarts_total") > restarts_before

    def test_inflight_requeue_after_epoch_move(self, snapshot_path):
        """_collect detects that the slot's process changed under an
        outstanding request (epoch moved on) and re-issues the quantum
        from its last token on the fresh process."""
        with make_pool(snapshot_path) as frontend:
            worker = frontend._workers[0]
            old_epoch = worker.epoch
            frontend.crash_worker(0)
            health = frontend.heartbeat()
            assert health[0] == "dead"  # pre-respawn state
            assert worker.epoch == old_epoch + 1
            requeued_before = counter("repro_pool_inflight_requeued_total")
            task = SimpleNamespace(continuation=None, key="requeue-probe")
            reply = frontend._collect(task, worker, old_epoch, SCAN)
            assert reply[0] == "ok"
            assert (
                counter("repro_pool_inflight_requeued_total")
                == requeued_before + 1
            )

    def test_worker_gauge_tracks_lifecycle(self, snapshot_path):
        with make_pool(snapshot_path, workers=3) as frontend:
            assert counter("repro_pool_workers") == 3
            assert frontend.alive_count() == 3
        assert counter("repro_pool_workers") == 0

    def test_worker_metrics_fold_into_parent(self, snapshot_path):
        """Quanta executed inside workers move parent-side engine
        counters after the merge — ``repro metrics`` is fleet-wide."""
        materialized_before = counter("repro_dict_materialized_rows_total")
        with make_pool(snapshot_path) as frontend:
            frontend.submit("merge-probe", [SCAN])
            reports = frontend.run()
        assert reports["merge-probe"].outcome == "completed"
        assert (
            counter("repro_dict_materialized_rows_total")
            > materialized_before
        )


class TestTokenTransfer:
    """Continuation tokens are self-contained: any process resumes any
    token, byte-identically (satellite of the pool PR)."""

    def _decode(self, payload):
        return [
            {name: term_from_json(blob) for name, blob in row.items()}
            for row in payload["rows"]
        ]

    def _quantum(self, frontend, worker, query, token, page_size=3):
        reply = frontend._rpc(
            worker, ("quantum", query, token, None, page_size)
        )
        assert reply[0] == "ok", reply
        return reply[1]

    @pytest.mark.parametrize("query", WORKLOAD)
    def test_worker_to_worker_resume_is_byte_identical(
        self, snapshot_path, philosophy_graph, query
    ):
        expected = rendered(reference_rows(philosophy_graph, query))
        with make_pool(snapshot_path) as frontend:
            workers = frontend._workers
            rows = []
            payload = self._quantum(frontend, workers[0], query, None)
            rows.extend(self._decode(payload))
            turn = 1
            while not payload["complete"]:
                # Alternate workers on every page: each resume crosses a
                # process boundary with only the token.
                payload = self._quantum(
                    frontend,
                    workers[turn % len(workers)],
                    None,
                    payload["continuation"],
                )
                rows.extend(self._decode(payload))
                turn += 1
        assert turn > 1, "query must page for this test to mean anything"
        assert rendered(rows) == expected

    @pytest.mark.parametrize("query", WORKLOAD)
    def test_worker_token_resumes_in_parent_process(
        self, snapshot_path, philosophy_graph, query
    ):
        expected = rendered(reference_rows(philosophy_graph, query))
        with make_pool(snapshot_path) as frontend:
            payload = self._quantum(
                frontend, frontend._workers[0], query, None
            )
            rows = self._decode(payload)
            token = payload["continuation"]
        assert token is not None
        # The pool is gone; the minting process is gone.  The token
        # alone resumes against a fresh mapping of the same snapshot.
        with open_snapshot(snapshot_path, verify=False) as graph:
            endpoint = LocalEndpoint(graph)
            response = endpoint.query(continuation=token, page_size=3)
            rows.extend(response.result.rows)
            while not response.complete:
                response = endpoint.query(
                    continuation=response.continuation, page_size=3
                )
                rows.extend(response.result.rows)
            assert rendered(rows) == expected


class TestInvalidBudgets:
    """``page_size < 1`` / ``quantum_ms <= 0`` off the pipe: the worker
    refuses typed, stays up, and the parent re-raises the same class."""

    @pytest.mark.parametrize(
        "quantum_ms, page_size", [(None, 0), (None, -2), (0, None), (-5.0, 3)]
    )
    def test_worker_refuses_and_keeps_serving(
        self, snapshot_path, quantum_ms, page_size
    ):
        with make_pool(snapshot_path, workers=1) as frontend:
            worker = frontend._workers[0]
            reply = frontend._rpc(
                worker, ("quantum", SCAN, None, quantum_ms, page_size)
            )
            assert reply[:2] == ("err", "InvalidBudgetError"), reply
            good = frontend._rpc(worker, ("quantum", SCAN, None, None, 3))
            assert good[0] == "ok" and len(good[1]["rows"]) == 3

    def test_frontend_raises_the_typed_error(self, snapshot_path):
        from repro.sparql import InvalidBudgetError

        config = ServeConfig(max_active=2, page_size=0, seed=3)
        with PoolFrontend(snapshot_path, workers=1, config=config) as frontend:
            frontend.submit("s0", [SCAN])
            with pytest.raises(InvalidBudgetError):
                frontend.run()


class TestRouting:
    def test_ring_is_deterministic_and_covers_all_slots(self):
        ring = _HashRing(4)
        again = _HashRing(4)
        keys = [f"session-{i}" for i in range(200)]
        slots = [ring.slot_for(key) for key in keys]
        assert slots == [again.slot_for(key) for key in keys]
        assert set(slots) == {0, 1, 2, 3}

    def test_affinity_until_imbalance_then_steal(self, snapshot_path):
        with make_pool(snapshot_path, workers=2) as frontend:
            affinity = frontend._ring.slot_for("session-x")
            other = 1 - affinity
            loads = [0, 0]
            assert frontend._route("session-x", loads) == (
                affinity, "affinity",
            )
            loads[affinity] = frontend.steal_threshold
            assert frontend._route("session-x", loads) == (other, "steal")


class TestStaleness:
    def test_heartbeat_reports_stale_after_snapshot_swap(
        self, tmp_path, philosophy_graph
    ):
        path = str(tmp_path / "swap.snapshot")
        write_snapshot(philosophy_graph, path)
        with make_pool(path) as frontend:
            assert set(frontend.heartbeat().values()) == {"ok"}
            # The classic deploy: rebuild, then rename over the live
            # file.  Workers keep serving the pinned old pages but must
            # report themselves stale.
            write_snapshot(philosophy_graph, path + ".new")
            os.replace(path + ".new", path)
            assert set(frontend.heartbeat().values()) == {"stale"}
