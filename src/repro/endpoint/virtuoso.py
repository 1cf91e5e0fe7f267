"""Simulated remote Virtuoso endpoint and its HTTP/JSON client.

Two classes split server from client exactly as the paper's remote
compatibility mode does:

* :class:`SimulatedVirtuosoServer` owns a graph and answers
  :class:`repro.endpoint.wire.SparqlHttpRequest` objects with JSON
  bodies, charging remote-profile simulated latency.  What it adds is
  the wire's own: the URL check, the fault roll and the JSON codec.
  The request itself is answered by a
  :class:`~repro.endpoint.local.LocalEndpoint` over the same graph —
  the one engine path, whether reached in process or over HTTP.
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
from .local import LocalEndpoint
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
        # The engine behind the wire, with its own server-side plan
        # cache and live-plan resume cache (a real Virtuoso keeps both).
        self._engine = LocalEndpoint(
            graph, clock=self.clock, cost_model=cost_model, optimize=optimize
        )

    def handle(self, request: SparqlHttpRequest) -> SparqlHttpResponse:
        """Serve one protocol request, through the fault injector.

        An injected transient fault drops the request with a retryable
        503 before it touches the engine; an injected slow response
        serves the correct answer but charges an extra latency penalty.
        Engine and continuation-token failures (malformed, cross-query,
        cross-version, expired, a refused budget) are
        :class:`~repro.sparql.errors.SparqlError` subclasses, so they
        travel to the client as clean 400 protocol errors instead of
        wrong answers.  The engine bills the shared clock for the work
        of an answered request; the client does the observing.
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
        self.requests_served += 1
        try:
            answer = self._engine.execute(
                request.query,
                quantum_ms=request.quantum_ms,
                page_size=request.page_size,
                continuation=request.continuation,
            )
        except Exception as error:  # engine errors -> HTTP error body
            _SERVER_ERROR.inc()
            elapsed = self.cost_model.network_latency_ms
            self.clock.advance(elapsed)
            return encode_error(error, elapsed_ms=elapsed)
        _SERVER_OK.inc()
        response = encode_success(
            answer.result,
            elapsed_ms=answer.elapsed_ms,
            continuation=answer.continuation,
            complete=answer.complete,
        )
        if fault == SLOW:
            penalty = self.faults.slow_penalty_ms
            self.clock.advance(penalty)
            response = replace(
                response, elapsed_ms=response.elapsed_ms + penalty
            )
        return response

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
