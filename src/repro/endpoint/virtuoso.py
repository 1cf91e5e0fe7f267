"""Simulated remote Virtuoso endpoint and its HTTP/JSON client.

Two classes split server from client exactly as the paper's remote
compatibility mode does:

* :class:`SimulatedVirtuosoServer` owns a graph and answers
  :class:`repro.endpoint.wire.SparqlHttpRequest` objects with JSON
  bodies, charging remote-profile simulated latency.
* :class:`RemoteEndpoint` is the client: it only sees the endpoint URL
  and the JSON wire — "even if we have no access to the actual RDF graph
  and cannot execute any preprocessing" (Section 4).  It therefore cannot
  feed the decomposer's index builder, which is why incremental
  evaluation is the only acceleration available remotely.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..obs.metrics import REGISTRY
from ..rdf.graph import Graph
from .base import Endpoint, EndpointResponse, observe_response
from .clock import SimClock
from .cost import REMOTE_VIRTUOSO_PROFILE, CostModel
from .faults import SLOW, TRANSIENT, FaultInjector
from .wire import (
    SparqlHttpRequest,
    SparqlHttpResponse,
    decode_page,
    decode_response,
    encode_error,
    encode_request,
    encode_success,
)

__all__ = ["SimulatedVirtuosoServer", "RemoteEndpoint"]

_SERVER_REQUESTS_TOTAL = REGISTRY.counter(
    "repro_virtuoso_requests_total",
    "HTTP requests served by the simulated Virtuoso server, by outcome",
    labelnames=("status",),
)
_SERVER_OK = _SERVER_REQUESTS_TOTAL.labels(status="ok")
_SERVER_ERROR = _SERVER_REQUESTS_TOTAL.labels(status="error")


class SimulatedVirtuosoServer:
    """A SPARQL-over-HTTP server simulation around one graph."""

    def __init__(
        self,
        graph: Graph,
        url: str = "http://dbpedia.example.org/sparql",
        clock: Optional[SimClock] = None,
        cost_model: CostModel = REMOTE_VIRTUOSO_PROFILE,
        optimize: bool = True,
        faults: Optional[FaultInjector] = None,
    ):
        self.graph = graph
        self.url = url
        self.clock = clock or SimClock()
        self.cost_model = cost_model
        self.requests_served = 0
        self.optimize = optimize
        self.faults = faults
        # A real Virtuoso keeps its own server-side plan cache; so does
        # the simulation (function-level import: repro.perf imports the
        # decomposer, which imports this package's base module).
        from ..perf.plancache import PlanCache

        self.plan_cache = PlanCache()

    def handle(self, request: SparqlHttpRequest) -> SparqlHttpResponse:
        """Serve one protocol request, through the fault injector.

        An injected transient fault drops the request with a retryable
        503 before it touches the engine; an injected slow response
        serves the correct answer but charges an extra latency penalty.
        """
        if request.endpoint_url != self.url:
            _SERVER_ERROR.inc()
            return SparqlHttpResponse(
                status=404,
                body=f"no endpoint at {request.endpoint_url}",
                content_type="text/plain",
            )
        fault = self.faults.roll() if self.faults is not None else None
        if fault == TRANSIENT:
            _SERVER_ERROR.inc()
            elapsed = self.cost_model.network_latency_ms
            self.clock.advance(elapsed)
            return SparqlHttpResponse(
                status=503,
                body="transient backend fault (injected)",
                content_type="text/plain",
                elapsed_ms=elapsed,
            )
        response = self._dispatch(request)
        if fault == SLOW and response.ok:
            penalty = self.faults.slow_penalty_ms
            self.clock.advance(penalty)
            response = replace(
                response, elapsed_ms=response.elapsed_ms + penalty
            )
        return response

    def _dispatch(self, request: SparqlHttpRequest) -> SparqlHttpResponse:
        """Execute one (fault-free) protocol request against the engine.

        One body for every request: compile through the server's plan
        cache, start — or restore from the continuation token — the
        physical plan, and run one quantum; with no budget in the
        request that quantum is the whole query.  Engine and
        continuation-token failures (malformed, cross-version, expired)
        are :class:`~repro.sparql.errors.SparqlError` subclasses, so
        they travel to the client as clean 400 protocol errors instead
        of wrong answers."""
        from ..sparql import executor as sparql_executor

        self.requests_served += 1
        try:
            blob = None
            if request.continuation is not None:
                blob = sparql_executor.decode_continuation(request.continuation)
            factory = self.plan_cache.get(
                request.query,
                graph=self.graph if self.optimize else None,
                optimize=self.optimize,
            ).physical_factory()
            if blob is None:
                plan = factory.instantiate(self.graph)
            else:
                plan = sparql_executor.restore_plan(factory, self.graph, blob)
            result, stats, complete = sparql_executor.run_request(
                plan,
                quantum_ms=request.quantum_ms,
                page_size=request.page_size,
            )
            token = (
                None
                if complete
                else sparql_executor.encode_continuation(
                    plan, self.graph, request.query
                )
            )
        except Exception as error:  # engine errors -> HTTP error body
            _SERVER_ERROR.inc()
            elapsed = self.cost_model.network_latency_ms
            self.clock.advance(elapsed)
            return encode_error(error, elapsed_ms=elapsed)
        _SERVER_OK.inc()
        elapsed = self.cost_model.simulate_ms(
            intermediate_bindings=stats.intermediate_bindings,
            pattern_scans=stats.pattern_scans,
            result_rows=len(result.rows) if hasattr(result, "rows") else 1,
        )
        self.clock.advance(elapsed)
        return encode_success(
            result, elapsed_ms=elapsed, continuation=token, complete=complete
        )

    @property
    def dataset_version(self) -> int:
        return self.graph.version


class RemoteEndpoint(Endpoint):
    """HTTP/JSON client for a :class:`SimulatedVirtuosoServer`.

    The only coupling to the server is ``server.handle`` standing in for
    the network; every result passes through JSON serialisation.
    """

    def __init__(self, server: SimulatedVirtuosoServer, url: Optional[str] = None):
        super().__init__()
        self._server = server
        self.url = url or server.url

    @property
    def dataset_version(self) -> int:
        # A real remote endpoint exposes no version; the client assumes
        # the dataset is static between visits (as eLinda does for the
        # public DBpedia endpoint).
        return 0

    def query(
        self,
        query_text: str,
        *,
        quantum_ms: Optional[float] = None,
        page_size: Optional[int] = None,
        continuation: Optional[str] = None,
    ) -> EndpointResponse:
        request = encode_request(
            self.url,
            query_text,
            quantum_ms=quantum_ms,
            page_size=page_size,
            continuation=continuation,
        )
        http_response = self._server.handle(request)
        if request.paged:
            result, token, complete = decode_page(http_response)
        else:
            result = decode_response(http_response)
            token, complete = None, True
        response = EndpointResponse(
            result=result,
            elapsed_ms=http_response.elapsed_ms,
            source="virtuoso",
            query_text=query_text,
            stats=None,  # opaque remote server: no work counters leak out
            continuation=token,
            complete=complete,
        )
        observe_response(response)
        self._log(response)
        return response
