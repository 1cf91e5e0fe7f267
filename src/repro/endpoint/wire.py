"""Simulated HTTP/JSON SPARQL protocol.

The paper's *remote compatibility mode* talks to a Virtuoso server "via
its HTTP/JSON SPARQL interface" (Section 4, footnote 9).  We model that
wire exactly: requests and responses are plain strings; the client never
touches the server's graph object, so anything that works through this
layer would work against a real HTTP endpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Optional

from ..obs.metrics import REGISTRY
from ..sparql.errors import SparqlError
from ..sparql.results import GraphResult, results_from_blob, results_to_blob

_WIRE_ENCODES_TOTAL = REGISTRY.counter(
    "repro_wire_encodes_total",
    "Result serialisations onto the simulated HTTP wire, by content type",
    labelnames=("content_type",),
)
_WIRE_ENCODE_WALL_MS_TOTAL = REGISTRY.counter(
    "repro_wire_encode_wall_ms_total",
    "Real wall time spent serialising results onto the wire (ms)",
)

__all__ = [
    "SparqlHttpRequest",
    "SparqlHttpResponse",
    "JSON_RESULTS_MIME",
    "NTRIPLES_MIME",
    "TRANSIENT_STATUSES",
    "TransientWireError",
    "encode_request",
    "decode_response",
    "decode_page",
]

JSON_RESULTS_MIME = "application/sparql-results+json"
NTRIPLES_MIME = "application/n-triples"

#: HTTP statuses a client may retry: the request never produced an
#: answer, so replaying it is safe.
TRANSIENT_STATUSES = (429, 502, 503, 504)


class TransientWireError(SparqlError):
    """A retryable wire failure (503-style): the request can be replayed.

    Distinct from plain :class:`SparqlError` so retry logic never
    replays requests that failed for a *semantic* reason (parse errors,
    bad continuation tokens)."""

    def __init__(self, message: str, status: int = 503):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class SparqlHttpRequest:
    """A GET-style SPARQL protocol request.

    ``quantum_ms`` / ``page_size`` / ``continuation`` are the paging
    parameters of the time-sliced executor; they travel as the
    equivalent of URL query parameters.  A request with ``continuation``
    resumes a suspended execution (``query`` must repeat the original
    query text)."""

    endpoint_url: str
    query: str
    accept: str = JSON_RESULTS_MIME
    headers: Dict[str, str] = field(default_factory=dict)
    quantum_ms: Optional[float] = None
    page_size: Optional[int] = None
    continuation: Optional[str] = None

    @property
    def paged(self) -> bool:
        return (
            self.quantum_ms is not None
            or self.page_size is not None
            or self.continuation is not None
        )


@dataclass(frozen=True)
class SparqlHttpResponse:
    """An HTTP response carrying SPARQL-JSON or an error body."""

    status: int
    body: str
    content_type: str = JSON_RESULTS_MIME
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def encode_request(
    endpoint_url: str,
    query: str,
    quantum_ms: Optional[float] = None,
    page_size: Optional[int] = None,
    continuation: Optional[str] = None,
) -> SparqlHttpRequest:
    """Build the protocol request for a query (optionally paged)."""
    return SparqlHttpRequest(
        endpoint_url=endpoint_url,
        query=query,
        quantum_ms=quantum_ms,
        page_size=page_size,
        continuation=continuation,
    )


def encode_success(
    result,
    elapsed_ms: float,
    continuation: Optional[str] = None,
    complete: bool = True,
) -> SparqlHttpResponse:
    """Serialise a result into a 200 response.

    SELECT/ASK results travel as SPARQL-JSON; CONSTRUCT graphs as
    N-Triples with the matching content type.  A partial (paged) answer
    additionally carries ``"continuation"`` and ``"complete": false``
    at the top level of the JSON body — standard SPARQL-JSON consumers
    ignore the extra keys; paging clients read them via
    :func:`decode_page`.
    """
    started = perf_counter()
    if isinstance(result, GraphResult):
        body = result.to_ntriples()
        content_type = NTRIPLES_MIME
    else:
        blob = results_to_blob(result)
        content_type = JSON_RESULTS_MIME
        if continuation is not None or not complete:
            blob["continuation"] = continuation
            blob["complete"] = bool(complete)
        body = json.dumps(blob)
    _WIRE_ENCODES_TOTAL.labels(content_type=content_type).inc()
    _WIRE_ENCODE_WALL_MS_TOTAL.inc((perf_counter() - started) * 1000.0)
    return SparqlHttpResponse(
        status=200,
        body=body,
        content_type=content_type,
        elapsed_ms=elapsed_ms,
    )


def encode_error(error: Exception, elapsed_ms: float = 0.0) -> SparqlHttpResponse:
    """Serialise an engine error into a 400/500 response."""
    status = 400 if isinstance(error, SparqlError) else 500
    return SparqlHttpResponse(
        status=status,
        body=f"{type(error).__name__}: {error}",
        content_type="text/plain",
        elapsed_ms=elapsed_ms,
    )


def _raise_protocol_error(response: SparqlHttpResponse) -> None:
    """Surface a non-2xx response as the most specific client error.

    Transient statuses raise :class:`TransientWireError` (retryable);
    400 bodies carrying a continuation-token failure or a refused
    paging budget re-raise as the matching
    :class:`~repro.sparql.executor.ContinuationError` subclass /
    :class:`~repro.sparql.executor.InvalidBudgetError`, so paging
    clients see the same error taxonomy locally and remotely;
    everything else is a plain :class:`SparqlError`.
    """
    if response.status in TRANSIENT_STATUSES:
        raise TransientWireError(
            f"endpoint returned {response.status}: {response.body}",
            status=response.status,
        )
    if response.status == 400:
        from ..sparql import executor as sparql_executor

        paging_errors = {
            "MalformedTokenError": sparql_executor.MalformedTokenError,
            "TokenVersionError": sparql_executor.TokenVersionError,
            "ExpiredTokenError": sparql_executor.ExpiredTokenError,
            "InvalidBudgetError": sparql_executor.InvalidBudgetError,
        }
        name, _, detail = response.body.partition(": ")
        error_class = paging_errors.get(name)
        if error_class is not None:
            raise error_class(detail or response.body)
    raise SparqlError(f"endpoint returned {response.status}: {response.body}")


def _decode_body(response: SparqlHttpResponse):
    """``(result, JSON document or None)`` of a response, parsed once."""
    if not response.ok:
        _raise_protocol_error(response)
    if response.content_type == NTRIPLES_MIME:
        from ..rdf.graph import Graph
        from ..rdf.ntriples import parse_ntriples

        return GraphResult(Graph(parse_ntriples(response.body))), None
    if response.content_type != JSON_RESULTS_MIME:
        raise SparqlError(f"unexpected content type: {response.content_type}")
    blob = json.loads(response.body)
    return results_from_blob(blob), blob


def decode_response(response: SparqlHttpResponse):
    """Parse a response body back into a result object.

    Raises :class:`SparqlError` (or a more specific subclass — see
    :func:`_raise_protocol_error`) on non-2xx responses, mirroring what
    an HTTP client wrapper would do.
    """
    return _decode_body(response)[0]


def decode_page(response: SparqlHttpResponse):
    """Parse a (possibly partial) JSON response into
    ``(result, continuation, complete)``.

    ``continuation`` is None and ``complete`` is True for ordinary
    one-shot answers, so this is a strict superset of
    :func:`decode_response` for SPARQL-JSON bodies.
    """
    result, blob = _decode_body(response)
    if blob is None:
        return result, None, True
    return result, blob.get("continuation"), bool(blob.get("complete", True))
