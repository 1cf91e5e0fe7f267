"""Incremental evaluation (Section 4).

"eLinda builds the chart of an expansion by computing it on the first N
triples in the RDF graph.  It then continues to compute the query on the
next N triples and aggregates the results in the frontend.  It continues
for k steps, or until the full chart is computed.  In the current
implementation, the parameters N and k are determined by an
administrator's configuration.  This method provides eLinda with
effective latency for user interaction ... it works well on remote
servers in the compatibility mode."

Two windowing policies are provided:

* ``by_subject=False`` — raw triple windows, the paper's literal text.
  Partial charts are approximations (a member's triples may straddle a
  window boundary), converging as windows accumulate.
* ``by_subject=True`` (default) — windows aligned on subject boundaries,
  which makes the merged aggregates of eLinda's chart queries *exact*
  once all windows are consumed.  This is the refinement the frontend
  aggregation relies on and is documented as such in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..endpoint.clock import SimClock
from ..endpoint.cost import LOCAL_PROFILE, CostModel
from ..obs.metrics import REGISTRY
from ..rdf.graph import Graph
from ..rdf.terms import Literal, Term
from ..rdf.triple import Triple
from ..sparql.algebra import contains_aggregate
from ..sparql.ast import AggregateExpr, SelectQuery
from ..sparql.errors import SparqlEvalError
from ..sparql.functions import extreme_order_key
from ..sparql.parser import parse_query
from ..sparql.results import SelectResult

__all__ = ["IncrementalConfig", "PartialResult", "IncrementalEvaluator"]

_XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
_XSD_DOUBLE = "http://www.w3.org/2001/XMLSchema#double"


def _parse_number(term: Optional[Term]):
    """Numeric value of a literal, int first then float; None otherwise.

    Window results come out of the engine's ``_numeric_literal``, which
    emits ``str(int)`` for integer totals and ``repr(float)`` for the
    rest — so int-then-float parsing recovers exactly the engine's
    coercion (integer-family datatypes stay int, decimal/double go
    float) without inspecting datatypes.
    """
    if not isinstance(term, Literal):
        return None
    try:
        return int(term.lexical)
    except ValueError:
        pass
    try:
        return float(term.lexical)
    except ValueError:
        return None

#: Shared with :mod:`repro.perf.remote_incremental` (mode="remote").
INCREMENTAL_WINDOWS_TOTAL = REGISTRY.counter(
    "repro_incremental_windows_total",
    "Windows (local) or pages (remote) consumed by incremental evaluation",
    labelnames=("mode",),
)
_WINDOWS_LOCAL = INCREMENTAL_WINDOWS_TOTAL.labels(mode="local")


@dataclass(frozen=True)
class IncrementalConfig:
    """The administrator's N and k (Section 4)."""

    window_size: int = 2000
    max_steps: Optional[int] = None
    by_subject: bool = True

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if self.max_steps is not None and self.max_steps <= 0:
            raise ValueError("max_steps must be positive when given")


@dataclass
class PartialResult:
    """The merged chart after one more window."""

    result: SelectResult
    step: int
    windows_consumed: int
    complete: bool
    elapsed_ms: float          # this step's simulated latency
    cumulative_ms: float       # total simulated latency so far


def _subject_windows(graph: Graph, window_size: int) -> Iterator[List[Triple]]:
    """Windows of ~window_size triples aligned on subject boundaries."""
    batch: List[Triple] = []
    current_subject = None
    for triple in graph.triples():
        if (
            len(batch) >= window_size
            and triple.subject != current_subject
        ):
            yield batch
            batch = []
        batch.append(triple)
        current_subject = triple.subject
    if batch:
        yield batch


def _triple_windows(graph: Graph, window_size: int) -> Iterator[List[Triple]]:
    batch: List[Triple] = []
    for triple in graph.triples():
        batch.append(triple)
        if len(batch) == window_size:
            yield batch
            batch = []
    if batch:
        yield batch


class IncrementalEvaluator:
    """Evaluates a chart query window-by-window with frontend merging.

    Only aggregate queries with mergeable aggregates (COUNT, SUM, MIN,
    MAX) are supported — exactly the chart queries eLinda generates.
    Non-aggregate queries are merged by row-set union.
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[IncrementalConfig] = None,
        cost_model: CostModel = LOCAL_PROFILE,
        clock: Optional[SimClock] = None,
    ):
        self.graph = graph
        self.config = config or IncrementalConfig()
        self.cost_model = cost_model
        self.clock = clock or SimClock()

    # ------------------------------------------------------------------
    # Merge planning
    # ------------------------------------------------------------------

    def _merge_plan(self, query: SelectQuery) -> Dict[str, str]:
        """Map projection variable -> merge operation.

        ``key`` = group identity, ``sum``/``min``/``max`` = aggregate
        merge; raises for non-mergeable aggregates.
        """
        plan: Dict[str, str] = {}
        if query.projections is None:
            raise SparqlEvalError("incremental evaluation needs projections")
        for projection in query.projections:
            expression = projection.expression
            if expression is None or not contains_aggregate(expression):
                plan[projection.var.name] = "key"
                continue
            if not isinstance(expression, AggregateExpr):
                raise SparqlEvalError(
                    "incremental evaluation supports bare aggregates only"
                )
            if expression.name in ("COUNT", "SUM"):
                plan[projection.var.name] = "sum"
            elif expression.name in ("MIN", "MAX"):
                plan[projection.var.name] = expression.name.lower()
            else:
                raise SparqlEvalError(
                    f"aggregate {expression.name} is not mergeable across "
                    "windows"
                )
        return plan

    @staticmethod
    def _merge_value(op: str, old: Optional[Term], new: Optional[Term]) -> Optional[Term]:
        if old is None:
            return new
        if new is None:
            return old
        if op == "sum":
            old_number = _parse_number(old)
            new_number = _parse_number(new)
            if old_number is None or new_number is None:
                # Never drop the accumulated total on an unparseable
                # value: keep what has been merged so far.
                return old
            total = old_number + new_number
            if isinstance(total, int):
                return Literal(str(total), datatype=_XSD_INTEGER)
            # Widest datatype wins once any float entered the sum;
            # repr() matches the engine's _numeric_literal output.
            return Literal(repr(total), datatype=_XSD_DOUBLE)
        # The engine's own MIN/MAX ranking: SPARQL value order (numeric
        # literals by value — lexicographic sort_key alone would rank
        # "9" above "10"), value ties broken by sort_key, so the merged
        # extreme is the one-shot one whatever the window order.
        if op == "min":
            return min(old, new, key=extreme_order_key)
        if op == "max":
            return max(old, new, key=extreme_order_key)
        return new

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def run(self, query_text: str) -> Iterator[PartialResult]:
        """Yield one merged :class:`PartialResult` per window."""
        query = parse_query(query_text)
        if not isinstance(query, SelectQuery):
            raise SparqlEvalError("incremental evaluation supports SELECT only")
        # Parse and plan once; every window instantiates the same
        # compiled physical plan (structurally optimized only —
        # per-window graphs are too small and short-lived to justify
        # statistics).  The factory's one-time planning decisions (join
        # keys, pattern order, filter placement) amortise across all k
        # windows.
        from ..sparql.algebra import translate_query
        from ..sparql.executor import run_to_completion as run_physical
        from ..sparql.optimizer import optimize as run_optimizer
        from ..sparql.planner import PhysicalPlanFactory

        algebra, _ = run_optimizer(translate_query(query))
        factory = PhysicalPlanFactory(query, algebra)
        is_aggregate = bool(query.group_by) or any(
            projection.expression is not None
            and contains_aggregate(projection.expression)
            for projection in (query.projections or [])
        )
        plan = self._merge_plan(query) if is_aggregate else None

        maker = _subject_windows if self.config.by_subject else _triple_windows
        windows = maker(self.graph, self.config.window_size)
        merged: Dict[Tuple, Dict[str, Optional[Term]]] = {}
        plain_rows: Dict[Tuple, Dict[str, Term]] = {}
        variables: List[str] = []
        cumulative = 0.0
        consumed = 0

        # Peek whether more windows remain by buffering exactly one
        # window ahead — the stream is never materialized in full, so a
        # large graph costs one window of memory, not the whole graph.
        pending = next(windows, None)
        step = 0
        while pending is not None:
            window_triples = pending
            pending = next(windows, None)
            step += 1
            window_graph = Graph(window_triples)
            physical = factory.instantiate(window_graph)
            partial = run_physical(physical)
            assert isinstance(partial, SelectResult)
            variables = partial.vars
            if plan is not None:
                key_vars = [name for name in variables if plan.get(name) == "key"]
                for row in partial.rows:
                    key = tuple(row.get(name) for name in key_vars)
                    slot = merged.setdefault(
                        key, {name: row.get(name) for name in key_vars}
                    )
                    for name in variables:
                        op = plan.get(name, "key")
                        if op != "key":
                            slot[name] = self._merge_value(
                                op, slot.get(name), row.get(name)
                            )
            else:
                for row in partial.rows:
                    key = tuple(sorted(row.items()))
                    plain_rows.setdefault(key, row)
            elapsed = self.cost_model.simulate_ms(
                intermediate_bindings=physical.stats.intermediate_bindings,
                pattern_scans=physical.stats.pattern_scans,
                result_rows=len(partial.rows),
            )
            self.clock.advance(elapsed)
            cumulative += elapsed
            consumed = step
            _WINDOWS_LOCAL.inc()
            reached_cap = (
                self.config.max_steps is not None
                and step >= self.config.max_steps
            )
            rows = (
                [dict(slot) for slot in merged.values()]
                if plan is not None
                else list(plain_rows.values())
            )
            clean_rows = [
                {name: value for name, value in row.items() if value is not None}
                for row in rows
            ]
            yield PartialResult(
                result=SelectResult(variables, clean_rows),
                step=step,
                windows_consumed=consumed,
                complete=pending is None,
                elapsed_ms=elapsed,
                cumulative_ms=cumulative,
            )
            if reached_cap:
                return

    def run_to_completion(self, query_text: str) -> PartialResult:
        """Consume all windows (up to k) and return the final merge."""
        last: Optional[PartialResult] = None
        for partial in self.run(query_text):
            last = partial
        if last is None:
            raise SparqlEvalError("empty graph: no windows to evaluate")
        return last
