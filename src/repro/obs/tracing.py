"""Operator naming and per-operator aggregates for the SPARQL engine.

Physical operators (:mod:`repro.sparql.physical`) count their own rows,
calls and inclusive wall time as they run, and each carries a
back-pointer to the algebra node it was compiled from.  This module
names algebra operators for plans and traces
(:func:`operator_label` / :func:`operator_detail`) and folds a finished
operator tree into the flat :class:`OperatorSummary` tuples that
``LocalEndpoint(trace=True)`` attaches to responses and query logs.
``EXPLAIN ANALYZE`` (:mod:`repro.obs.explain`) reads the same counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

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
)
from ..sparql.ast import Var

__all__ = [
    "OperatorSummary",
    "operator_summaries",
    "operator_label",
    "operator_detail",
]


# ----------------------------------------------------------------------
# Operator naming
# ----------------------------------------------------------------------


def _term_text(term) -> str:
    """Render an AST/RDF term the way it appears in a query."""
    if isinstance(term, Var):
        return f"?{term.name}"
    n3 = getattr(term, "n3", None)
    if callable(n3):
        return n3()
    return str(term)


def _pattern_text(pattern) -> str:
    return " ".join(
        _term_text(term)
        for term in (pattern.subject, pattern.predicate, pattern.object)
    )


def operator_label(node: AlgebraNode) -> str:
    """Short stable operator name (the metric/trace label)."""
    return type(node).__name__


def operator_detail(node: AlgebraNode, width: int = 60) -> str:
    """One-line operator description for the plan/trace rendering."""
    if isinstance(node, BGP):
        text = " . ".join(_pattern_text(pattern) for pattern in node.patterns)
        detail = f"{len(node.patterns)} patterns: {text}"
        if node.filters:
            detail += f" +{len(node.filters)} inline filters"
    elif isinstance(node, Union):
        detail = f"{len(node.branches)} branches"
    elif isinstance(node, Extend):
        detail = f"BIND ?{node.var.name}"
    elif isinstance(node, ValuesTable):
        variables = " ".join(f"?{var.name}" for var in node.variables)
        detail = f"{len(node.rows)} rows over {variables}"
    elif isinstance(node, Aggregation):
        keys = []
        for key in node.keys:
            var = getattr(key, "var", None)
            keys.append(f"?{var.name}" if var is not None else "<expr>")
        detail = f"group by {' '.join(keys)}" if keys else "implicit group"
    elif isinstance(node, Project):
        if node.variables is None:
            detail = "*"
        else:
            detail = " ".join(f"?{var.name}" for var in node.variables)
    elif isinstance(node, Slice):
        parts = []
        if node.offset:
            parts.append(f"offset {node.offset}")
        if node.limit is not None:
            parts.append(f"limit {node.limit}")
        detail = " ".join(parts)
    elif isinstance(node, OrderBy):
        detail = f"{len(node.conditions)} keys"
    elif isinstance(node, TopK):
        detail = f"{len(node.conditions)} keys, limit {node.limit}"
        if node.offset:
            detail += f", offset {node.offset}"
    elif isinstance(node, Filter):
        detail = "condition"
    else:
        detail = ""
    if len(detail) > width:
        detail = detail[: width - 3] + "..."
    return detail


# ----------------------------------------------------------------------
# Per-operator aggregates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorSummary:
    """Flat per-operator aggregate attached to endpoint query logs."""

    operator: str
    rows: int
    wall_ms: float
    invocations: int


def operator_summaries(root) -> Tuple[OperatorSummary, ...]:
    """Per-operator flat aggregates of one executed physical plan.

    Read off the tree's own ``rows_produced`` / ``wall_s`` / ``calls``
    counters and merged by *algebra* operator name: a BGP compiles to a
    chain of scans, whose self times add up while the outermost scan —
    the first one a pre-order walk meets — speaks for the BGP's rows.
    Operators the planner adds on its own keep their physical label.
    Sorted by self time, heaviest first.
    """
    slots: Dict[str, List] = {}
    counted = set()
    for op in root.walk():
        label = operator_label(op.algebra) if op.algebra is not None else op.label
        slot = slots.setdefault(label, [0, 0.0, 0])
        slot[1] += max(
            0.0, op.wall_s - sum(child.wall_s for child in op.children())
        ) * 1000.0
        node = id(op.algebra) if op.algebra is not None else id(op)
        if node not in counted:
            counted.add(node)
            slot[0] += op.rows_produced
            slot[2] += op.calls
    return tuple(
        OperatorSummary(
            operator=label, rows=slot[0], wall_ms=slot[1], invocations=slot[2]
        )
        for label, slot in sorted(slots.items(), key=lambda item: -item[1][1])
    )
