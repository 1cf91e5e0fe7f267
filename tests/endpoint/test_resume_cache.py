"""The endpoint's live-plan resume cache: a pure fast path.

Resuming a token the endpoint itself minted continues the live operator
tree; decoding the same token elsewhere must produce the same pages,
and a graph mutation must expire the token on both paths.
"""

import pytest

from repro.endpoint import LocalEndpoint
from repro.rdf import Graph, Literal, URI
from repro.sparql.executor import (
    ExpiredTokenError,
    InvalidBudgetError,
    MalformedTokenError,
)

EX = "http://ex.org/"
SCAN = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"
OTHER = "SELECT ?s WHERE { ?s ?p ?o }"


def build_graph() -> Graph:
    graph = Graph(name="resume")
    for i in range(20):
        graph.add(URI(EX + f"s{i}"), URI(EX + "p"), Literal(f"v{i}"))
    return graph


def rendered(rows):
    return [
        tuple(sorted((name, term.n3()) for name, term in row.items()))
        for row in rows
    ]


class TestResumeCache:
    def test_fast_path_and_decode_path_agree(self):
        graph = build_graph()
        minting = LocalEndpoint(graph)
        first = minting.query(SCAN, page_size=6)
        token = first.continuation
        assert token is not None
        # Fast path: same endpoint resumes its own live plan.
        live = minting.query(continuation=token, page_size=6)
        # Decode path: a fresh endpoint has no live plan for this token.
        other = LocalEndpoint(graph).query(continuation=token, page_size=6)
        assert rendered(live.result.rows) == rendered(other.result.rows)
        assert live.complete == other.complete
        assert live.continuation == other.continuation

    def test_cache_entry_is_consumed_on_resume(self):
        graph = build_graph()
        endpoint = LocalEndpoint(graph)
        token = endpoint.query(SCAN, page_size=6).continuation
        assert (token, graph.version) in endpoint._resume_cache
        endpoint.query(continuation=token, page_size=6)
        assert (token, graph.version) not in endpoint._resume_cache

    def test_mutation_expires_a_cached_token(self):
        graph = build_graph()
        endpoint = LocalEndpoint(graph)
        token = endpoint.query(SCAN, page_size=6).continuation
        graph.add(URI(EX + "new"), URI(EX + "p"), Literal("late"))
        with pytest.raises(ExpiredTokenError):
            endpoint.query(continuation=token, page_size=6)

    def test_cached_token_with_wrong_query_is_malformed(self):
        graph = build_graph()
        endpoint = LocalEndpoint(graph)
        token = endpoint.query(SCAN, page_size=6).continuation
        with pytest.raises(MalformedTokenError):
            endpoint.query(OTHER, continuation=token, page_size=6)

    def test_cache_is_bounded_and_eviction_is_safe(self):
        graph = build_graph()
        endpoint = LocalEndpoint(graph)
        queries = [
            f"SELECT ?s ?p ?o WHERE {{ ?s ?p ?o }} LIMIT {12 + i}"
            for i in range(12)
        ]
        tokens = [
            endpoint.query(query, page_size=6).continuation
            for query in queries
        ]
        assert len(endpoint._resume_cache) <= endpoint._resume_cache_size
        # The oldest token was evicted; it still resumes via decode.
        evicted = tokens[0]
        assert (evicted, graph.version) not in endpoint._resume_cache
        response = endpoint.query(continuation=evicted, page_size=6)
        reference = LocalEndpoint(graph).query(
            continuation=evicted, page_size=6
        )
        assert rendered(response.result.rows) == rendered(
            reference.result.rows
        )

    def test_refused_budget_keeps_the_live_plan(self, monkeypatch):
        """A continuation refused for its budget ran nothing: the next
        valid resume of the same token still continues the live plan
        (no decode + restore), and no row is lost or repeated."""
        from repro.sparql import executor

        graph = build_graph()
        undisturbed = LocalEndpoint(graph).query(SCAN).result.rows
        endpoint = LocalEndpoint(graph)
        decodes = []
        real = executor.decode_continuation
        monkeypatch.setattr(
            executor,
            "decode_continuation",
            lambda token: decodes.append(token) or real(token),
        )
        response = endpoint.query(SCAN, page_size=6)
        rows = list(response.result.rows)
        while not response.complete:
            with pytest.raises(InvalidBudgetError):
                endpoint.query(continuation=response.continuation, page_size=0)
            response = endpoint.query(
                continuation=response.continuation, page_size=6
            )
            rows.extend(response.result.rows)
        assert decodes == []
        assert rendered(rows) == rendered(undisturbed)
