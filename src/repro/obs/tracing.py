"""Per-operator aggregates for the SPARQL engine.

Physical operators (:mod:`repro.sparql.physical`) count their own rows,
calls and inclusive wall time as they run, and each carries a
back-pointer to the algebra node it was compiled from.  This module
folds a finished operator tree into the flat :class:`OperatorSummary`
tuples that ``LocalEndpoint(trace=True)`` attaches to responses and
query logs.  ``EXPLAIN ANALYZE`` (:mod:`repro.obs.explain`) reads the
same counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["OperatorSummary", "operator_summaries"]


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
        label = type(op.algebra).__name__ if op.algebra is not None else op.label
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
