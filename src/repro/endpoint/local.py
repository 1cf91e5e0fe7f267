"""The local endpoint: the SPARQL engine over an in-process graph.

This is eLinda's own endpoint in *local mode* — the mirror of the
knowledge base held next to the application (paper, Section 4: "Our
eLinda endpoint contains mirrors of the common knowledge bases").

Every query runs through the engine's front half — parse, translate,
optimize (:mod:`repro.sparql.optimizer`) — which is memoised in a
version-aware :class:`~repro.perf.plancache.PlanCache`, so repeated
exploration queries skip straight to execution until the graph changes.

Execution is the physical engine's, paged or not: a request with a
``page_size`` / ``quantum_ms`` budget runs one quantum and hands back a
continuation token, a request without one runs the same plan with
nothing to stop it.  The engine works in the store's ID space end to
end (see :mod:`repro.rdf.dictionary`); result rows cross the
late-materialization boundary at the plan root, so the rows this
endpoint returns are ordinary interned terms.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Union

from ..obs.tracing import operator_summaries
from ..rdf.graph import Graph
from .base import Endpoint, EndpointResponse, observe_response
from .clock import SimClock
from .cost import LOCAL_PROFILE, CostModel

__all__ = ["LocalEndpoint"]


class LocalEndpoint(Endpoint):
    """Executes queries directly against a :class:`Graph`.

    With ``trace=True`` every completed response (and its query-log
    entry) carries per-operator row/time aggregates read off the
    finished plan's own counters
    (:func:`~repro.obs.tracing.operator_summaries`) — the input of
    :meth:`repro.explorer.monitor.QueryMonitor.by_operator`.

    ``optimize`` toggles the algebra rewrite pipeline; ``plan_cache``
    is ``True`` for a private cache (the default), ``False``/``None``
    to re-plan every request, or a shared
    :class:`~repro.perf.plancache.PlanCache` instance.
    """

    def __init__(
        self,
        graph: Graph,
        clock: Optional[SimClock] = None,
        cost_model: CostModel = LOCAL_PROFILE,
        trace: bool = False,
        optimize: bool = True,
        plan_cache: Union["PlanCache", bool, None] = True,
    ):
        super().__init__()
        self.graph = graph
        self.clock = clock or SimClock()
        self.cost_model = cost_model
        self.trace = trace
        self.optimize = optimize
        if plan_cache is True:
            # Function-level import: repro.perf pulls in the decomposer,
            # which imports this package's base module.
            from ..perf.plancache import PlanCache

            plan_cache = PlanCache()
        # Note: an empty PlanCache is falsy (len == 0), so test against
        # the sentinel values rather than truthiness.
        self.plan_cache = None if plan_cache is False or plan_cache is None else plan_cache
        # Live suspended plans, keyed by the exact token we minted for
        # them: the common resume (next page of a query this endpoint
        # itself suspended) skips decode + operator-tree restore and
        # continues the live plan.  Decoding the token must produce the
        # same state, so this is purely a fast path; any token not in
        # the cache — minted by another process, or evicted — takes the
        # decode path.  Keyed per (token, graph version): a mutation
        # invalidates the live plan exactly like it expires the token.
        self._resume_cache: "OrderedDict[tuple, object]" = OrderedDict()
        self._resume_cache_size = 8

    @property
    def dataset_version(self) -> int:
        return self.graph.version

    def plan(self, query_text: str):
        """The (cached) :class:`~repro.perf.plancache.CachedPlan`."""
        if self.plan_cache is not None:
            return self.plan_cache.get(
                query_text,
                graph=self.graph if self.optimize else None,
                optimize=self.optimize,
            )
        from ..perf.plancache import build_plan

        return build_plan(
            query_text,
            graph=self.graph if self.optimize else None,
            optimize=self.optimize,
        )

    def query(
        self,
        query_text: Optional[str] = None,
        *,
        quantum_ms: Optional[float] = None,
        page_size: Optional[int] = None,
        continuation: Optional[str] = None,
    ) -> EndpointResponse:
        """Answer a query, or one time-sliced page of it: :meth:`execute`,
        then emitted into the metrics registry and the query log."""
        response = self.execute(
            query_text,
            quantum_ms=quantum_ms,
            page_size=page_size,
            continuation=continuation,
        )
        observe_response(response)
        self._log(response)
        return response

    def execute(
        self,
        query_text: Optional[str] = None,
        *,
        quantum_ms: Optional[float] = None,
        page_size: Optional[int] = None,
        continuation: Optional[str] = None,
    ) -> EndpointResponse:
        """The one place a request becomes a page.

        Every request — in process, on a pool worker, or arriving over
        the wire (:class:`~repro.endpoint.virtuoso.SimulatedVirtuosoServer`
        serves through this method and does its own observing client-side)
        — takes the same path: compile through the plan cache (the
        physical factory is cached alongside the algebra), start a new
        execution — or, with a ``continuation``, continue the live plan
        or restore the suspended operator tree — and run it for one
        quantum.  With no ``quantum_ms`` / ``page_size`` nothing stops
        the quantum, so the response is the complete answer.  Each
        response is charged simulated latency on the clock for *its own*
        work only — the responsiveness contract the paper's incremental
        evaluation argues for.
        """
        from ..sparql import executor as sparql_executor

        live = blob = None
        if continuation is not None:
            key = (continuation, self.graph.version)
            live = self._resume_cache.get(key)
            if live is None:
                blob = sparql_executor.decode_continuation(continuation)
                token_query = blob["query"]
            else:
                token_query = live[1]
            sparql_executor.check_token_query(token_query, query_text)
            query_text = token_query
        elif query_text is None:
            raise TypeError("query_text is required without a continuation")
        if live is not None:
            # Fast path: this endpoint suspended that exact plan and the
            # graph has not changed — continue the live operator tree
            # instead of decoding and restoring the token.  Still a
            # token-driven resume as far as the serving metrics go.
            del self._resume_cache[key]
            sparql_executor._RESUMES_TOTAL.inc()
            plan = live[0]
        else:
            factory = self.plan(query_text).physical_factory()
            if blob is None:
                plan = factory.instantiate(self.graph)
            else:
                plan = sparql_executor.restore_plan(factory, self.graph, blob)
        try:
            result, stats, complete = sparql_executor.run_request(
                plan, quantum_ms=quantum_ms, page_size=page_size
            )
        except sparql_executor.InvalidBudgetError:
            if live is not None:
                # Refused before any operator ran: the live plan is
                # untouched and the token's next resume keeps the fast path.
                self._resume_cache[key] = live
            raise
        token = None
        if not complete:
            token = sparql_executor.encode_continuation(
                plan, self.graph, query_text
            )
            self._resume_cache[(token, self.graph.version)] = (
                plan, query_text,
            )
            while len(self._resume_cache) > self._resume_cache_size:
                self._resume_cache.popitem(last=False)
        elapsed = self.cost_model.simulate_ms(
            intermediate_bindings=stats.intermediate_bindings,
            pattern_scans=stats.pattern_scans,
            result_rows=len(result.rows) if hasattr(result, "rows") else 1,
        )
        self.clock.advance(elapsed)
        return EndpointResponse(
            result=result,
            elapsed_ms=elapsed,
            source=self.cost_model.name,
            query_text=query_text,
            stats=stats,
            continuation=token,
            complete=complete,
            # The finished tree's own counters; a plan another request
            # restored from a token has counted only since the restore.
            trace=(
                operator_summaries(plan.root)
                if self.trace and complete
                else None
            ),
        )

    def query_all_pages(
        self,
        query_text: str,
        quantum_ms: Optional[float] = None,
        page_size: Optional[int] = None,
    ):
        """Page through a SELECT to completion; yields each response.

        Convenience wrapper over the token loop (the explorer's chart
        session uses it to fetch bar charts incrementally)."""
        response = self.query(
            query_text, quantum_ms=quantum_ms, page_size=page_size
        )
        yield response
        while not response.complete:
            response = self.query(
                query_text,
                quantum_ms=quantum_ms,
                page_size=page_size,
                continuation=response.continuation,
            )
            yield response
