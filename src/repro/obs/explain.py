"""``EXPLAIN`` / ``EXPLAIN ANALYZE`` for the SPARQL engine.

``explain(graph, query)`` renders the algebra tree of a query with
per-operator *estimated* cardinalities (derived from the graph's index
statistics); ``explain(graph, query, analyze=True)`` additionally runs
the query and reports, per operator, the *actual* rows produced and
wall time, read off the counters the physical operators keep as they
run — the measurement harness the perf layer (HVS, decomposer,
incremental evaluation) is judged against.  :func:`explain_physical`
shows the same execution as the physical operator tree itself.

The estimates are deliberately simple (independence-assumption upper
bounds, the classic 1/3 filter selectivity): their job is to make
misestimates visible next to the measured rows, not to drive a planner.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..rdf.graph import Graph
from ..sparql.algebra import (
    Aggregation,
    AlgebraNode,
    Ask,
    BGP,
    Distinct,
    Extend,
    Filter,
    Join,
    LeftJoin,
    Minus,
    OrderBy,
    Project,
    Reduced,
    Slice,
    TopK,
    Unit,
    Union,
    ValuesTable,
    translate_query,
)
from ..sparql.ast import ConstructQuery, PathExpr, Query, TriplePatternNode, Var
from ..sparql.errors import SparqlEvalError
from ..sparql.parser import parse_query
from .tracing import operator_detail, operator_label

__all__ = [
    "PlanNode",
    "ExplainResult",
    "explain",
    "explain_physical",
    "estimate_cardinality",
]

#: Classic textbook selectivity guess for an opaque FILTER condition.
_FILTER_SELECTIVITY = 1.0 / 3.0


# ----------------------------------------------------------------------
# Cardinality estimation
# ----------------------------------------------------------------------


def _pattern_estimate(graph: Graph, pattern: TriplePatternNode) -> int:
    """Matches for one triple pattern, variables treated as wildcards."""
    if isinstance(pattern.predicate, PathExpr):
        # Walk the path algebra over the cached cardinality summary:
        # sequences chain fan-outs, alternatives add, closures inflate
        # the single-hop estimate by a saturating expansion factor.
        estimate = graph.statistics().path_cardinality(
            pattern.predicate,
            not isinstance(pattern.subject, Var),
            not isinstance(pattern.object, Var),
        )
        return max(1, int(estimate))
    subject = None if isinstance(pattern.subject, Var) else pattern.subject
    predicate = None if isinstance(pattern.predicate, Var) else pattern.predicate
    object = None if isinstance(pattern.object, Var) else pattern.object
    return graph.count(subject, predicate, object)


def estimate_cardinality(graph: Graph, node: AlgebraNode) -> int:
    """Estimated output rows of one operator (recursive, heuristic)."""
    if isinstance(node, Unit):
        return 1
    if isinstance(node, BGP):
        if not node.patterns:
            return 1
        estimate = 1
        for pattern in node.patterns:
            estimate *= max(1, _pattern_estimate(graph, pattern))
            # The index-nested-loop join binds variables left to right;
            # a bare product explodes, so damp each extra pattern.
            estimate = min(estimate, len(graph) * max(1, len(node.patterns)))
        for _ in node.filters:
            estimate = max(1, int(estimate * _FILTER_SELECTIVITY))
        return estimate
    if isinstance(node, Join):
        left = estimate_cardinality(graph, node.left)
        right = estimate_cardinality(graph, node.right)
        return max(left, right)
    if isinstance(node, LeftJoin):
        return estimate_cardinality(graph, node.left)
    if isinstance(node, Filter):
        inner = estimate_cardinality(graph, node.input)
        return max(1, int(inner * _FILTER_SELECTIVITY))
    if isinstance(node, Union):
        return sum(
            estimate_cardinality(graph, branch) for branch in node.branches
        )
    if isinstance(node, Minus):
        return estimate_cardinality(graph, node.left)
    if isinstance(node, Extend):
        return estimate_cardinality(graph, node.input)
    if isinstance(node, ValuesTable):
        return len(node.rows)
    if isinstance(node, Aggregation):
        inner = estimate_cardinality(graph, node.input)
        if not node.keys:
            return 1
        # Number of groups: sqrt damping of the input, a standard guess
        # in the absence of per-column distinct counts.
        return max(1, int(math.sqrt(inner)))
    if isinstance(node, (Project, Distinct, Reduced, OrderBy)):
        return estimate_cardinality(graph, node.input)
    if isinstance(node, Slice):
        inner = estimate_cardinality(graph, node.input)
        inner = max(0, inner - node.offset)
        if node.limit is not None:
            inner = min(inner, node.limit)
        return inner
    if isinstance(node, TopK):
        inner = estimate_cardinality(graph, node.input)
        return max(0, min(inner - node.offset, node.limit))
    if isinstance(node, Ask):
        return 1
    return 0


# ----------------------------------------------------------------------
# Plan tree
# ----------------------------------------------------------------------


@dataclass
class PlanNode:
    """One operator of an explained plan."""

    label: str
    detail: str
    estimated_rows: int
    children: List["PlanNode"] = field(default_factory=list)
    actual_rows: Optional[int] = None
    wall_ms: Optional[float] = None        # inclusive
    self_wall_ms: Optional[float] = None
    invocations: int = 0                   # next(limit) calls served
    finished: bool = False                 # ran to exhaustion

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def measure(self, op) -> None:
        """Take one executed physical operator's counters."""
        self.actual_rows = op.rows_produced
        self.wall_ms = op.wall_s * 1000.0
        self.invocations = op.calls
        self.finished = op.done

    def settle_self_time(self) -> None:
        """Derive self time (inclusive minus the children's) tree-wide."""
        for node in self.walk():
            if node.wall_ms is not None:
                below = sum(child.wall_ms or 0.0 for child in node.children)
                node.self_wall_ms = max(0.0, node.wall_ms - below)

    def to_dict(self) -> Dict:
        out: Dict = {
            "operator": self.label,
            "detail": self.detail,
            "estimated_rows": self.estimated_rows,
        }
        if self.actual_rows is not None:
            out.update(
                actual_rows=self.actual_rows,
                wall_ms=round(self.wall_ms or 0.0, 6),
                self_wall_ms=round(self.self_wall_ms or 0.0, 6),
                invocations=self.invocations,
            )
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


def _children_of(node: AlgebraNode) -> List[AlgebraNode]:
    if isinstance(node, (Join, LeftJoin, Minus)):
        return [node.left, node.right]
    if isinstance(node, Union):
        return list(node.branches)
    if isinstance(
        node,
        (
            Filter,
            Extend,
            Aggregation,
            Project,
            Distinct,
            Reduced,
            OrderBy,
            Slice,
            TopK,
            Ask,
        ),
    ):
        return [node.input]
    return []


def _build_plan(
    graph: Graph, node: AlgebraNode, index: Dict[int, PlanNode]
) -> PlanNode:
    plan = PlanNode(
        label=operator_label(node),
        detail=operator_detail(node),
        estimated_rows=estimate_cardinality(graph, node),
    )
    index[id(node)] = plan
    for child in _children_of(node):
        plan.children.append(_build_plan(graph, child, index))
    return plan


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class ExplainResult:
    """The rendered plan plus (for ANALYZE) the run's artefacts.

    When the optimizer ran, ``plan`` describes the tree actually
    executed, ``pre_plan`` the direct translation it was rewritten from,
    and ``passes`` the optimizer's ``(pass, detail)`` annotations.
    """

    query_text: str
    plan: PlanNode
    analyzed: bool
    result: object = None          # SelectResult/AskResult when analyzed
    planning_note: str = ""
    pre_plan: Optional[PlanNode] = None
    passes: List = field(default_factory=list)

    @property
    def result_rows(self) -> Optional[int]:
        rows = getattr(self.result, "rows", None)
        return len(rows) if rows is not None else None

    def render(self) -> str:
        """The pg-style plan tree (estimated vs actual when analyzed)."""
        header = "EXPLAIN ANALYZE" if self.analyzed else "EXPLAIN"
        lines = [header, "=" * len(header)]

        def visit(plan: PlanNode, depth: int, executed: bool) -> None:
            indent = "  " * depth
            detail = f" ({plan.detail})" if plan.detail else ""
            cells = [f"est_rows={plan.estimated_rows}"]
            if self.analyzed and executed and plan.actual_rows is not None:
                cells.append(f"rows={plan.actual_rows}")
                cells.append(f"wall={plan.wall_ms:.3f}ms")
                cells.append(f"self={plan.self_wall_ms:.3f}ms")
                if plan.invocations > 1:
                    cells.append(f"loops={plan.invocations}")
            elif self.analyzed and executed:
                cells.append("(not executed)")
            lines.append(f"{indent}{plan.label}{detail}  " + "  ".join(cells))
            for child in plan.children:
                visit(child, depth + 1, executed)

        if self.pre_plan is not None:
            lines.append("-- plan before optimization --")
            visit(self.pre_plan, 0, executed=False)
            lines.append("-- plan after optimization --")
        visit(self.plan, 0, executed=True)
        if self.passes:
            lines.append("optimizer passes:")
            for pass_name, detail in self.passes:
                lines.append(f"  [{pass_name}] {detail}")
        elif self.pre_plan is not None:
            lines.append("optimizer passes: (no rewrites applied)")
        if self.analyzed and self.result_rows is not None:
            lines.append(f"result rows: {self.result_rows}")
        if self.planning_note:
            lines.append(self.planning_note)
        return "\n".join(lines)

    def _spans(self) -> List[Dict]:
        """The executed operators, pre-order, parent-linked by id (the
        span schema of docs/OBSERVABILITY.md)."""
        if not self.analyzed:
            raise SparqlEvalError("spans require analyze=True")
        spans: List[Dict] = []

        def visit(plan: PlanNode, parent_id: Optional[int]) -> None:
            if plan.actual_rows is not None:
                spans.append(
                    {
                        "span_id": len(spans) + 1,
                        "parent_id": parent_id,
                        "operator": plan.label,
                        "detail": plan.detail,
                        "rows": plan.actual_rows,
                        "wall_ms": round(plan.wall_ms, 6),
                        "self_wall_ms": round(plan.self_wall_ms, 6),
                        "invocations": plan.invocations,
                        "finished": plan.finished,
                    }
                )
                parent_id = spans[-1]["span_id"]
            for child in plan.children:
                visit(child, parent_id)

        visit(self.plan, None)
        return spans

    def render_spans(self) -> str:
        """The measured operators as an indented tree (ANALYZE only)."""
        depth = {None: -1}
        lines = []
        for span in self._spans():
            depth[span["span_id"]] = depth[span["parent_id"]] + 1
            detail = f" ({span['detail']})" if span["detail"] else ""
            lines.append(
                f"{'  ' * depth[span['span_id']]}{span['operator']}{detail}  "
                f"rows={span['rows']}  wall={span['wall_ms']:.3f}ms "
                f"self={span['self_wall_ms']:.3f}ms calls={span['invocations']}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        """The plan tree as one JSON document."""
        document = {
            "query": self.query_text,
            "analyzed": self.analyzed,
            "result_rows": self.result_rows,
            "plan": self.plan.to_dict(),
        }
        if self.pre_plan is not None:
            document["pre_plan"] = self.pre_plan.to_dict()
            document["optimizer_passes"] = [
                {"pass": pass_name, "detail": detail}
                for pass_name, detail in self.passes
            ]
        return json.dumps(document, sort_keys=True, indent=2)

    def to_json_lines(self) -> str:
        """Measured operators as JSON lines (ANALYZE only)."""
        return "\n".join(
            json.dumps(span, sort_keys=True) for span in self._spans()
        )


def explain(
    graph: Graph,
    query_text: str,
    analyze: bool = False,
    optimize: bool = False,
) -> ExplainResult:
    """Explain (and optionally execute + measure) a query over ``graph``.

    With ``optimize=True`` the algebra is run through
    :func:`repro.sparql.optimizer.optimize` first; the result then shows
    the original and the rewritten plan side by side, with per-pass
    annotations, and ANALYZE executes the *optimized* tree.
    """
    query: Query = parse_query(query_text)
    if isinstance(query, ConstructQuery):
        raise SparqlEvalError("EXPLAIN supports SELECT and ASK queries only")
    algebra = translate_query(query)
    pre_plan: Optional[PlanNode] = None
    passes: List = []
    if optimize:
        from ..sparql.optimizer import optimize as run_optimizer

        pre_plan = _build_plan(graph, algebra, {})
        algebra, report = run_optimizer(algebra, graph=graph)
        passes = list(report.notes)
    index: Dict[int, PlanNode] = {}
    plan = _build_plan(graph, algebra, index)
    if not analyze:
        return ExplainResult(
            query_text=query_text,
            plan=plan,
            analyzed=False,
            pre_plan=pre_plan,
            passes=passes,
        )
    from ..sparql import executor as sparql_executor
    from ..sparql.planner import PhysicalPlanFactory

    physical = PhysicalPlanFactory(query, algebra).instantiate(graph)
    result = sparql_executor.run_to_completion(physical)
    # An algebra node may compile to several operators (a BGP is a chain
    # of scans); the outermost — first in a pre-order walk — produces
    # the node's rows and its inclusive time.
    executed = 0
    for op in physical.root.walk():
        plan_node = index.get(id(op.algebra))
        if plan_node is not None and plan_node.actual_rows is None and op.calls:
            plan_node.measure(op)
            executed += 1
    plan.settle_self_time()
    return ExplainResult(
        query_text=query_text,
        plan=plan,
        analyzed=True,
        result=result,
        planning_note="" if executed else "note: no operators were executed",
        pre_plan=pre_plan,
        passes=passes,
    )


# ----------------------------------------------------------------------
# Physical plans
# ----------------------------------------------------------------------


def _physical_plan_node(graph: Graph, op, analyzed: bool) -> PlanNode:
    """Mirror one physical operator (and subtree) into a PlanNode."""
    estimated = (
        estimate_cardinality(graph, op.algebra) if op.algebra is not None else 0
    )
    node = PlanNode(
        label=op.label,
        detail=op.detail(),
        estimated_rows=estimated,
        children=[
            _physical_plan_node(graph, child, analyzed)
            for child in op.children()
        ],
    )
    if analyzed:
        node.measure(op)
    return node


def explain_physical(
    graph: Graph,
    query_text: str,
    analyze: bool = False,
    optimize: bool = True,
    quantum_ms: Optional[float] = None,
    page_size: Optional[int] = None,
) -> ExplainResult:
    """Explain a query as the *physical* operator tree the time-sliced
    executor runs (:mod:`repro.sparql.physical`).

    ANALYZE reads the operators' own ``rows_produced`` / ``wall_s`` /
    ``calls`` counters, exactly as :func:`explain` does — here without
    folding them back onto the algebra tree.  With
    ``quantum_ms``/``page_size`` set, ANALYZE drives the plan page by
    page through :func:`repro.sparql.executor.run_quantum` and the
    planning note reports each suspension — what the paged endpoint
    path does per request.
    """
    from ..sparql import executor as sparql_executor
    from ..sparql.planner import build_physical_plan

    plan_obj = build_physical_plan(graph, query_text, optimize=optimize)
    if not analyze:
        return ExplainResult(
            query_text=query_text,
            plan=_physical_plan_node(graph, plan_obj.root, analyzed=False),
            analyzed=False,
            planning_note="physical plan (time-sliced executor)",
        )
    if not plan_obj.factory.pageable or (quantum_ms is None and page_size is None):
        result = sparql_executor.run_to_completion(plan_obj)
        note = "physical plan (time-sliced executor); ran in one quantum"
    else:
        pages = 0
        suspensions: List[str] = []
        rows: List = []
        while True:
            page = sparql_executor.run_quantum(
                plan_obj, quantum_ms=quantum_ms, page_size=page_size
            )
            pages += 1
            rows.extend(page.rows)
            if page.complete:
                break
            suspensions.append(page.reason)
        from ..sparql.results import SelectResult

        result = SelectResult(plan_obj.factory.variables, rows, stats=plan_obj.stats)
        note = (
            f"physical plan (time-sliced executor); {pages} page(s), "
            f"{len(suspensions)} suspension(s)"
            + (f" [{', '.join(suspensions)}]" if suspensions else "")
        )
    plan = _physical_plan_node(graph, plan_obj.root, analyzed=True)
    plan.settle_self_time()
    return ExplainResult(
        query_text=query_text,
        plan=plan,
        analyzed=True,
        result=result,
        planning_note=note,
    )
