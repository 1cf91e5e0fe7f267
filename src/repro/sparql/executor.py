"""Time-sliced execution of physical plans with continuation tokens.

The executor is what turns the suspendable operator protocol
(:mod:`repro.sparql.physical`) into the paper's responsiveness story: a
plan runs for one *quantum* — until a wall-clock deadline or a row
budget is hit — then suspends, and the caller receives the rows
produced so far plus an opaque, serialisable **continuation token** that
resumes the execution exactly where it stopped.  Endpoints thread the
token through the simulated HTTP wire so clients page through heavy
results (``LocalEndpoint.query(..., quantum_ms=, page_size=)``), and
:class:`RoundRobinScheduler` multiplexes many live plans fairly so one
heavy property expansion cannot monopolise the engine.

Continuation tokens are stateless on the server: base64-encoded JSON
carrying a format version, the graph version the execution started
against, the query text, and the saved operator-state tree — followed,
``.``-separated, by the already-encoded chunks of any finished sort,
which that tree refers to instead of containing.  Decoding
distinguishes three failure classes, each surfaced as a clean protocol
error rather than a wrong answer:

- **malformed** (:class:`MalformedTokenError`) — not base64/JSON, the
  state tree does not fit the plan compiled from the embedded query, or
  the request's own query text is not the embedded one;
- **cross-version** (:class:`TokenVersionError`) — minted by a different
  token format version of the software;
- **expired** (:class:`ExpiredTokenError`) — the graph changed since the
  token was minted, so scan-offset replay is no longer meaningful; the
  client must restart the query.
"""

from __future__ import annotations

import base64
import json
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import REGISTRY
from ..rdf.graph import Graph
from .ast import AskQuery, ConstructQuery
from .errors import SparqlError, SparqlEvalError
from .evaluator import EvalStats
from .functions import Binding
from .physical import BLOCK, PlanStateError
from .planner import PhysicalPlan, PhysicalPlanFactory
from .results import AskResult, GraphResult, SelectResult, construct_graph

__all__ = [
    "TOKEN_VERSION",
    "DEFAULT_QUANTUM_MS",
    "ContinuationError",
    "InvalidBudgetError",
    "MalformedTokenError",
    "TokenVersionError",
    "ExpiredTokenError",
    "Page",
    "run_quantum",
    "run_to_completion",
    "run_request",
    "encode_continuation",
    "decode_continuation",
    "check_token_query",
    "restore_plan",
    "RoundRobinScheduler",
]

#: Format version minted into every continuation token (the history of
#: the tree's shapes is in docs/EXECUTOR.md, "Continuation tokens").
#: Version 3: a token is ``head[.segment]*``.  A finished sort's pending
#: rows ride behind the head as encode-once segments the state tree
#: refers to (``{"$run": [first, count], "skip": n}``) instead of inside
#: it, so a continuation page neither re-serialises nor re-parses them.
#: A version 2 token is the case with no segments and is still read.
TOKEN_VERSION = 3

#: Default time slice when paging is requested without an explicit quantum.
DEFAULT_QUANTUM_MS = 50.0

_QUERIES_TOTAL = REGISTRY.counter(
    "repro_eval_queries_total", "Queries evaluated by the SPARQL engine"
)
_BINDINGS_TOTAL = REGISTRY.counter(
    "repro_eval_bindings_total",
    "Intermediate solution mappings produced by all operators",
)
_PATTERN_SCANS_TOTAL = REGISTRY.counter(
    "repro_eval_pattern_scans_total",
    "Triple-pattern scans issued against the graph indexes",
)
_RESULTS_TOTAL = REGISTRY.counter(
    "repro_eval_results_total", "Result rows returned to callers"
)
_PAGES_TOTAL = REGISTRY.counter(
    "repro_exec_pages_total",
    "Result pages served by the physical executor, by outcome",
    labelnames=("outcome",),
)
_SUSPENSIONS_TOTAL = REGISTRY.counter(
    "repro_exec_suspensions_total",
    "Plan suspensions by trigger (deadline or row budget)",
    labelnames=("reason",),
)
_RESUMES_TOTAL = REGISTRY.counter(
    "repro_exec_resumes_total",
    "Plan executions restored from a continuation token",
)
_TOKEN_REJECTS_TOTAL = REGISTRY.counter(
    "repro_exec_token_rejects_total",
    "Continuation tokens rejected, by failure class",
    labelnames=("reason",),
)
_SCHEDULER_ROUNDS_TOTAL = REGISTRY.counter(
    "repro_exec_scheduler_rounds_total",
    "Completed round-robin scheduling rounds over live plans",
)
_OPERATOR_STEPS_TOTAL = REGISTRY.counter(
    "repro_exec_operator_steps_total",
    "Bounded next(limit) block steps driven through plan roots by the executor",
)


class InvalidBudgetError(SparqlError):
    """``page_size`` or ``quantum_ms`` leaves a quantum no room to run."""


class ContinuationError(SparqlError):
    """Base class for continuation-token protocol errors."""


class MalformedTokenError(ContinuationError):
    """The token is not decodable or does not fit the compiled plan."""


class TokenVersionError(ContinuationError):
    """The token was minted by an incompatible token-format version."""


class ExpiredTokenError(ContinuationError):
    """The graph changed since the token was minted; restart the query."""


@dataclass
class Page:
    """One quantum's worth of results.

    ``stats`` is the :class:`EvalStats` *delta* for this page only, so
    the endpoint's cost model can charge simulated latency per page
    instead of per query.  ``reason`` records why the quantum ended:
    ``"complete"``, ``"deadline"``, or ``"row_budget"``.
    """

    rows: List[Binding]
    variables: List[str]
    complete: bool
    reason: str
    stats: EvalStats = field(default_factory=EvalStats)


def _flush_work(plan: PhysicalPlan, before: EvalStats) -> EvalStats:
    """The work ``plan`` did since ``before``, also emitted into the
    process registry — the one place the ``repro_eval_*`` counters move,
    whether the plan ran one-shot, paged, or on a pool worker."""
    after = plan.stats
    delta = EvalStats(
        intermediate_bindings=after.intermediate_bindings
        - before.intermediate_bindings,
        pattern_scans=after.pattern_scans - before.pattern_scans,
        results=after.results - before.results,
        groups=after.groups - before.groups,
    )
    if plan.fresh:  # a restored plan continues a query already counted
        plan.fresh = False
        _QUERIES_TOTAL.inc()
    _BINDINGS_TOTAL.inc(delta.intermediate_bindings)
    _PATTERN_SCANS_TOTAL.inc(delta.pattern_scans)
    _RESULTS_TOTAL.inc(delta.results)
    return delta


def run_quantum(
    plan: PhysicalPlan,
    quantum_ms: Optional[float] = None,
    page_size: Optional[int] = None,
) -> Page:
    """Drive ``plan`` until done, deadline, or row budget.

    With neither bound set this runs to completion: one-shot execution
    is a quantum with nothing to stop it.  The plan stays
    live; serialising it into a token (or keeping it in a scheduler) is
    the caller's choice.  The root is asked for at most the rows the
    page still has room for, so a page never overshoots its budget and
    no operator holds produced rows back across a suspension.

    Raises :class:`InvalidBudgetError` for ``page_size < 1`` or
    ``quantum_ms <= 0``: a quantum that may return no row and do no
    work would never finish the query.
    """
    if page_size is not None and not (
        isinstance(page_size, int) and page_size >= 1
    ):
        raise InvalidBudgetError(
            f"page_size must be an integer >= 1, not {page_size!r}"
        )
    if quantum_ms is not None and not quantum_ms > 0:  # also refuses NaN
        raise InvalidBudgetError(
            f"quantum_ms must be positive, not {quantum_ms!r}"
        )
    before = replace(plan.stats)
    deadline = (
        perf_counter() + quantum_ms / 1000.0 if quantum_ms is not None else None
    )
    rows: List[Binding] = []
    reason = "complete"
    root = plan.root
    steps = 0
    try:
        while not root.done:
            rows += root.next(
                BLOCK if page_size is None else min(BLOCK, page_size - len(rows))
            )
            steps += 1
            if page_size is not None and len(rows) >= page_size:
                if not root.done:
                    reason = "row_budget"
                break
            if deadline is not None and perf_counter() >= deadline:
                if not root.done:
                    reason = "deadline"
                break
    except PlanStateError as error:
        # A restored sort decodes a chunk of its token when emission
        # reaches it, which can be long after restore_plan accepted it.
        _TOKEN_REJECTS_TOTAL.labels(reason="malformed").inc()
        raise MalformedTokenError(f"continuation state is corrupt: {error}")
    plan.stats.results += len(rows)
    _OPERATOR_STEPS_TOTAL.inc(steps)
    complete = root.done
    _PAGES_TOTAL.labels(outcome="complete" if complete else "suspended").inc()
    if not complete:
        _SUSPENSIONS_TOTAL.labels(reason=reason).inc()
    return Page(
        rows=rows,
        variables=plan.variables,
        complete=complete,
        reason=reason if not complete else "complete",
        stats=_flush_work(plan, before),
    )


def run_to_completion(plan: PhysicalPlan):
    """Run a plan to the end and box the result by query form.

    Returns an :class:`AskResult` for ASK plans (short-circuiting on the
    first solution), a :class:`GraphResult` for CONSTRUCT (the template
    applied to the solutions) and a :class:`SelectResult` otherwise.
    """
    query = plan.factory.query
    if isinstance(query, AskQuery):
        before = replace(plan.stats)
        found = False
        while not (found or plan.root.done):
            found = bool(plan.root.next(1))
        _flush_work(plan, before)
        return AskResult(found, stats=plan.stats)
    page = run_quantum(plan)
    if isinstance(query, ConstructQuery):
        return GraphResult(
            construct_graph(query.template, page.rows), stats=plan.stats
        )
    return SelectResult(page.variables, page.rows, stats=plan.stats)


def run_request(
    plan: PhysicalPlan,
    quantum_ms: Optional[float] = None,
    page_size: Optional[int] = None,
) -> Tuple[object, EvalStats, bool]:
    """One endpoint request's share of ``plan``: ``(result, stats,
    complete)``, where ``stats`` is the work this request did.

    A SELECT runs one quantum — to the end when no budget is given.
    ASK and CONSTRUCT answer in one piece: an ASK ignores the budget
    (it stops at its first solution anyway), a budgeted CONSTRUCT is
    refused, since a graph has no row sequence to cut a page from.
    """
    if plan.factory.pageable:
        page = run_quantum(plan, quantum_ms=quantum_ms, page_size=page_size)
        result = SelectResult(page.variables, page.rows, stats=page.stats)
        return result, page.stats, page.complete
    if isinstance(plan.factory.query, ConstructQuery) and not (
        quantum_ms is None and page_size is None
    ):
        raise SparqlEvalError(
            "CONSTRUCT answers with one graph and cannot be paged; "
            "drop page_size / quantum_ms"
        )
    return run_to_completion(plan), plan.stats, True


# ----------------------------------------------------------------------
# Continuation tokens
# ----------------------------------------------------------------------


def encode_continuation(plan: PhysicalPlan, graph: Graph, query_text: str) -> str:
    """Mint the opaque resume token for a suspended plan:
    ``head[.segment]*``, the base64url envelope and state tree followed
    by the encoded chunks of any finished sort, already text."""
    state = plan.save()
    segments = state.pop("$segments", ())
    blob = {
        "v": TOKEN_VERSION,
        "graph": graph.version,
        "query": query_text,
        "state": state,
    }
    head = base64.urlsafe_b64encode(
        json.dumps(blob, separators=(",", ":")).encode("utf-8")
    ).decode("ascii")
    return ".".join((head, *segments))


def decode_continuation(token: str) -> Dict:
    """Decode and validate a token's envelope (not yet its state tree).

    Only the head is parsed; the segments go into the state tree as the
    text they are (``state["$segments"]``) for the operators that own
    them to decode when they need to.  Raises
    :class:`MalformedTokenError` on garbage and
    :class:`TokenVersionError` on a format-version mismatch.  Graph
    freshness is checked in :func:`restore_plan`, where the graph is at
    hand.
    """
    try:
        head, *segments = token.split(".")
        text = base64.urlsafe_b64decode(head.encode("ascii")).decode("utf-8")
        blob = json.loads(text)
    except (ValueError, TypeError, AttributeError):  # not even a str
        _TOKEN_REJECTS_TOTAL.labels(reason="malformed").inc()
        raise MalformedTokenError("continuation token is not decodable")
    if not isinstance(blob, dict) or not isinstance(blob.get("state"), dict):
        _TOKEN_REJECTS_TOTAL.labels(reason="malformed").inc()
        raise MalformedTokenError("continuation token has no state tree")
    # Version 2 is the token with no segments: same envelope, same tree.
    version = blob.get("v")
    if version != TOKEN_VERSION and (version != 2 or segments):
        _TOKEN_REJECTS_TOTAL.labels(reason="version").inc()
        raise TokenVersionError(
            f"continuation token version {version!r} "
            f"is not supported (expected {TOKEN_VERSION})"
        )
    if not isinstance(blob.get("graph"), int) or not isinstance(
        blob.get("query"), str
    ):
        _TOKEN_REJECTS_TOTAL.labels(reason="malformed").inc()
        raise MalformedTokenError("continuation token envelope is incomplete")
    blob["state"]["$segments"] = segments
    return blob


def check_token_query(token_query: str, query_text: Optional[str]) -> None:
    """Refuse a token replayed against a query it was not minted for.

    ``restore_plan`` only compares operator labels, so a token for
    ``?s a <A>`` fits the plan of ``?s a <B>`` and would resume it at
    the wrong offset.  Texts are compared whitespace-normalised (the
    plan-cache key); a request carrying only the token has nothing to
    disagree with.
    """
    if query_text is None or query_text == token_query:
        return
    from ..perf.hvs import normalize_query  # repro.perf imports this package

    if normalize_query(query_text) != normalize_query(token_query):
        _TOKEN_REJECTS_TOTAL.labels(reason="malformed").inc()
        raise MalformedTokenError(
            "continuation token belongs to a different query"
        )


def restore_plan(
    factory: PhysicalPlanFactory, graph: Graph, blob: Dict
) -> PhysicalPlan:
    """Rebuild a live plan from a decoded token over the current graph.

    Raises :class:`ExpiredTokenError` when the graph has moved on since
    the token was minted (a resumed scan-offset replay would silently
    skip or duplicate rows — invalidation is the only sound answer), and
    :class:`MalformedTokenError` when the state tree does not fit the
    plan compiled from the token's own query — or that query is an ASK
    or CONSTRUCT, which answer in one piece and never mint tokens.
    """
    if not factory.pageable:
        _TOKEN_REJECTS_TOTAL.labels(reason="malformed").inc()
        raise MalformedTokenError(
            "only SELECT queries issue continuation tokens"
        )
    if blob["graph"] != graph.version:
        _TOKEN_REJECTS_TOTAL.labels(reason="expired").inc()
        raise ExpiredTokenError(
            "the dataset changed since this continuation token was issued; "
            "restart the query"
        )
    plan = factory.instantiate(graph)
    try:
        plan.load(blob["state"])
    except (PlanStateError, KeyError, TypeError, ValueError, OverflowError) as error:
        _TOKEN_REJECTS_TOTAL.labels(reason="malformed").inc()
        raise MalformedTokenError(
            f"continuation state does not fit the query's plan: {error}"
        )
    _RESUMES_TOTAL.inc()
    return plan


# ----------------------------------------------------------------------
# Fair scheduling
# ----------------------------------------------------------------------


class RoundRobinScheduler:
    """Round-robin multiplexer over live plan executions.

    Each concurrent exploration session submits its plan under a key;
    :meth:`step` runs the next session in rotation for one quantum and
    :meth:`run_round` gives every live session exactly one quantum.
    Plans stay live between turns (no serialisation inside the
    scheduler — tokens are a wire-boundary concern), so the cost of
    fairness is just the bounded quantum itself.

    Besides :class:`~repro.sparql.planner.PhysicalPlan` objects, any
    *task* exposing ``run_quantum(quantum_ms=..., page_size=...) ->
    Page`` can join the rotation — the serving frontend
    (:mod:`repro.serve`) submits whole exploration sessions this way,
    so local plans and remote, token-paged sessions share one fair
    rotation.
    """

    def __init__(
        self,
        quantum_ms: float = DEFAULT_QUANTUM_MS,
        page_size: Optional[int] = None,
    ):
        self.quantum_ms = quantum_ms
        self.page_size = page_size
        self._sessions: "OrderedDict[object, PhysicalPlan]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._sessions)

    def submit(self, key, plan: PhysicalPlan) -> None:
        if key in self._sessions:
            raise ValueError(f"session {key!r} is already scheduled")
        self._sessions[key] = plan

    def cancel(self, key) -> None:
        self._sessions.pop(key, None)

    def step(self) -> Optional[Tuple[object, Page]]:
        """Run the next session in rotation for one quantum.

        Returns ``(key, page)``, or ``None`` when nothing is scheduled.
        Completed sessions leave the rotation; suspended ones move to
        the back of the queue.
        """
        if not self._sessions:
            return None
        key, plan = next(iter(self._sessions.items()))
        self._sessions.pop(key)
        runner = getattr(plan, "run_quantum", None)
        if callable(runner):
            page = runner(quantum_ms=self.quantum_ms, page_size=self.page_size)
        else:
            page = run_quantum(
                plan, quantum_ms=self.quantum_ms, page_size=self.page_size
            )
        if not page.complete:
            self._sessions[key] = plan
        return key, page

    def run_round(self) -> List[Tuple[object, Page]]:
        """One quantum for every currently live session, in queue order."""
        pages: List[Tuple[object, Page]] = []
        for _ in range(len(self._sessions)):
            result = self.step()
            if result is None:
                break
            pages.append(result)
        _SCHEDULER_ROUNDS_TOTAL.inc()
        return pages

    def drain(self) -> Dict[object, List[Binding]]:
        """Run rounds until every session completes; rows per session."""
        collected: Dict[object, List[Binding]] = {
            key: [] for key in self._sessions
        }
        while self._sessions:
            for key, page in self.run_round():
                collected.setdefault(key, []).extend(page.rows)
        return collected
