"""``EXPLAIN`` / ``EXPLAIN ANALYZE`` for the SPARQL engine.

:func:`explain_physical` renders the physical operator tree the
endpoints run (:mod:`repro.sparql.physical`), compiled through their
front half (:func:`repro.perf.plancache.build_plan`), with the
optimizer passes that rewrote it.  Each operator carries the optimizer's
own cardinality estimate (:func:`repro.sparql.optimizer.estimate`), the
model the plan was ordered by; ANALYZE runs the plan and puts next to
it, per operator, the actual rows, calls and wall time the operators
count themselves, so a misestimate shows beside the measured rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..perf.plancache import build_plan
from ..rdf.graph import Graph
from ..sparql import executor as sparql_executor
from ..sparql.algebra import BGP
from ..sparql.errors import SparqlEvalError
from ..sparql.optimizer import estimate, pattern_estimate
from ..sparql.physical import SingletonOp
from ..sparql.results import SelectResult

__all__ = ["PlanNode", "ExplainResult", "explain_physical"]


# ----------------------------------------------------------------------
# Plan tree
# ----------------------------------------------------------------------


@dataclass
class PlanNode:
    """One operator of an explained plan."""

    label: str
    detail: str
    estimated_rows: float                  # the optimizer's model
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
            "estimated_rows": round(self.estimated_rows),
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


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class ExplainResult:
    """The rendered plan plus (for ANALYZE) the run's artefacts.

    ``passes`` are the optimizer's ``(pass, detail)`` annotations for
    the plan shown (empty when it ran unoptimized).
    """

    query_text: str
    plan: PlanNode
    analyzed: bool
    result: object = None          # SelectResult/AskResult when analyzed
    planning_note: str = ""
    passes: List = field(default_factory=list)

    @property
    def result_rows(self) -> Optional[int]:
        rows = getattr(self.result, "rows", None)
        return len(rows) if rows is not None else None

    def render(self) -> str:
        """The pg-style plan tree (estimated vs actual when analyzed)."""
        header = "EXPLAIN ANALYZE" if self.analyzed else "EXPLAIN"
        lines = [header, "=" * len(header)]

        def visit(plan: PlanNode, depth: int) -> None:
            indent = "  " * depth
            detail = f" ({plan.detail})" if plan.detail else ""
            cells = [f"est_rows={plan.estimated_rows:.0f}"]
            if self.analyzed:
                cells.append(f"rows={plan.actual_rows}")
                cells.append(f"wall={plan.wall_ms:.3f}ms")
                cells.append(f"self_wall={plan.self_wall_ms:.3f}ms")
                if plan.invocations > 1:
                    cells.append(f"loops={plan.invocations}")
            lines.append(f"{indent}{plan.label}{detail}  " + "  ".join(cells))
            for child in plan.children:
                visit(child, depth + 1)

        visit(self.plan, 0)
        if self.passes:
            lines.append("optimizer passes:")
            for pass_name, detail in self.passes:
                lines.append(f"  [{pass_name}] {detail}")
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
            for child in plan.children:
                visit(child, spans[-1]["span_id"])

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
                f"self_wall={span['self_wall_ms']:.3f}ms calls={span['invocations']}"
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
        if self.passes:
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


# ----------------------------------------------------------------------
# Physical plans
# ----------------------------------------------------------------------


def _physical_plan_node(op, stats, analyzed: bool) -> PlanNode:
    """Mirror one physical operator (and subtree) into a PlanNode, with
    the optimizer's estimate of the operator's rows."""
    children = [
        _physical_plan_node(child, stats, analyzed) for child in op.children()
    ]
    if isinstance(op, SingletonOp):
        estimated = 1.0
    elif isinstance(op.algebra, BGP):
        # The k-th scan of a chain: the running product of the first k
        # pattern estimates, each under the variables the scans below bind.
        bound: set = set()
        below = op.child
        while not isinstance(below, SingletonOp):
            bound |= below.pattern.variables()
            below = below.child
        estimated = children[0].estimated_rows * pattern_estimate(
            op.pattern, bound, stats
        )
    elif op.algebra is not None:
        estimated = estimate(op.algebra, stats)
    else:
        estimated = children[0].estimated_rows
    node = PlanNode(
        label=op.label,
        detail=op.detail(),
        estimated_rows=estimated,
        children=children,
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
    """Explain a query as the physical operator tree the endpoints run.

    The plan is compiled as an endpoint compiles it
    (:func:`~repro.perf.plancache.build_plan`, optimized unless
    ``optimize=False``), so ``passes`` lists the rewrites it carries.
    ANALYZE reads the operators' own ``rows_produced`` / ``wall_s`` /
    ``calls`` counters.  With ``quantum_ms``/``page_size`` set, ANALYZE
    drives the plan page by page through
    :func:`repro.sparql.executor.run_quantum` and the planning note
    reports each suspension — what the paged endpoint path does per
    request.
    """
    entry = build_plan(query_text, graph, optimize)
    plan_obj = entry.physical_factory().instantiate(graph)
    stats = graph.statistics()
    if not analyze:
        return ExplainResult(
            query_text=query_text,
            plan=_physical_plan_node(plan_obj.root, stats, analyzed=False),
            analyzed=False,
            planning_note="physical plan (time-sliced executor)",
            passes=list(entry.notes),
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
        result = SelectResult(plan_obj.factory.variables, rows, stats=plan_obj.stats)
        note = (
            f"physical plan (time-sliced executor); {pages} page(s), "
            f"{len(suspensions)} suspension(s)"
            + (f" [{', '.join(suspensions)}]" if suspensions else "")
        )
    plan = _physical_plan_node(plan_obj.root, stats, analyzed=True)
    plan.settle_self_time()
    return ExplainResult(
        query_text=query_text,
        plan=plan,
        analyzed=True,
        result=result,
        planning_note=note,
        passes=list(entry.notes),
    )
