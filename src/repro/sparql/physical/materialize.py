"""The late-materialization boundary and the tree-draining driver."""

from __future__ import annotations

from typing import List

from ...obs.metrics import REGISTRY
from ..functions import Binding
from .base import BLOCK, PhysicalOperator, _UnaryOp

__all__ = ["MaterializeOp", "drain"]

_MATERIALIZED_ROWS = REGISTRY.counter(
    "repro_dict_materialized_rows_total",
    "Result rows decoded from ID space to terms at the plan root",
)


class MaterializeOp(_UnaryOp):
    """The late-materialization boundary at the plan root.

    Every operator below it works on encoded rows (term-ID ints); this
    operator decodes each result row to term objects exactly once, so
    everything downstream — SPARQL-JSON serialisation, chart labels,
    clients of ``plan.root.next()`` — sees ordinary ``Term`` bindings.
    It adds no ``EvalStats`` work (materialization is representation,
    not query work).
    """

    label = "Materialize"

    def _next(self, limit: int) -> List[Binding]:
        rows = self._pull(limit)
        decode = self.runtime.dictionary.decode
        _MATERIALIZED_ROWS.inc(len(rows))
        return [
            {
                name: decode(value) if isinstance(value, int) else value
                for name, value in row.items()
            }
            for row in rows
        ]


def drain(op: PhysicalOperator) -> List[Binding]:
    """Run an operator tree to completion and return every row."""
    rows: List[Binding] = []
    while not op.done:
        rows += op.next(BLOCK)
    return rows
