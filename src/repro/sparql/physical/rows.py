"""Streaming per-row operators: FILTER, BIND, projection,
DISTINCT/REDUCED, and OFFSET/LIMIT slicing — each maps one child block
to at most as many output rows."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ExpressionError, SparqlEvalError
from ..functions import Binding, evaluate_expression
from .base import (
    BLOCK,
    _UnaryOp,
    _check_ids,
    _decode_row,
    _encode_value,
    _value_from_json,
    _value_to_json,
)

__all__ = [
    "FilterOp",
    "ExtendOp",
    "ProjectOp",
    "DistinctOp",
    "ReducedOp",
    "SliceOp",
]


class FilterOp(_UnaryOp):
    """A standalone FILTER (counts passing rows)."""

    label = "Filter"

    def __init__(self, runtime, child, condition):
        super().__init__(runtime, child)
        self.condition = condition

    def detail(self) -> str:
        return "condition"

    def _next(self, limit: int) -> List[Binding]:
        conditions = (self.condition,)
        rows = [
            row for row in self._pull(limit)
            if _check_ids(conditions, row, self.runtime)
        ]
        self.runtime.stats.intermediate_bindings += len(rows)
        return rows


class ExtendOp(_UnaryOp):
    """BIND: extends each row with a computed variable."""

    label = "Extend"

    def __init__(self, runtime, child, var, expression):
        super().__init__(runtime, child)
        self.var = var
        self.expression = expression

    def detail(self) -> str:
        return f"BIND ?{self.var.name}"

    def _next(self, limit: int) -> List[Binding]:
        rows = self._pull(limit)
        return [self._bind(row) for row in rows]

    def _bind(self, row: Binding) -> Binding:
        if self.var.name in row:
            raise SparqlEvalError(f"BIND would rebind ?{self.var.name}")
        out = dict(row)
        try:
            value = evaluate_expression(
                self.expression, _decode_row(row, self.runtime),
                context=self.runtime,
            )
        except ExpressionError:
            pass  # BIND errors leave the variable unbound
        else:
            out[self.var.name] = _encode_value(value, self.runtime)
        self.runtime.stats.intermediate_bindings += 1
        return out


class ProjectOp(_UnaryOp):
    """SELECT projection (with expression extensions)."""

    label = "Project"

    def __init__(self, runtime, child, variables, extensions=()):
        super().__init__(runtime, child)
        self.variables = None if variables is None else list(variables)
        self.extensions = {
            projection.var.name: projection.expression
            for projection in extensions
        }

    def detail(self) -> str:
        if self.variables is None:
            return "*"
        return " ".join(f"?{var.name}" for var in self.variables)

    def _next(self, limit: int) -> List[Binding]:
        rows = self._pull(limit)
        if self.variables is None:
            return rows
        return [self._project(row) for row in rows]

    def _project(self, row: Binding) -> Binding:
        out: Binding = {}
        decoded = None  # lazily materialized, only if an extension runs
        for var in self.variables:
            expression = self.extensions.get(var.name)
            if expression is not None:
                if decoded is None:
                    decoded = _decode_row(row, self.runtime)
                try:
                    value = evaluate_expression(
                        expression, decoded, context=self.runtime
                    )
                except ExpressionError:
                    pass
                else:
                    out[var.name] = _encode_value(value, self.runtime)
            elif var.name in row:
                out[var.name] = row[var.name]
        return out


class _KeyOrder:
    """Stable dedup keys without per-row sorting.

    DISTINCT/REDUCED need a hashable key per solution; sorting every
    binding's items is O(v log v) per row.  Instead, variable names are
    assigned a fixed order on first sight, and each key lists the
    (name, value) pairs present in that order — two bindings get equal
    keys exactly when they bind the same variables to the same values.
    """

    __slots__ = ("order", "known")

    def __init__(self) -> None:
        self.order: List[str] = []
        self.known: set = set()

    def key(self, binding: Binding) -> Tuple:
        for name in binding:
            if name not in self.known:
                self.known.add(name)
                self.order.append(name)
        return tuple(
            (name, binding[name]) for name in self.order if name in binding
        )


def _encode_key(key: Tuple, runtime=None) -> List:
    return [[name, _value_to_json(value, runtime)] for name, value in key]


def _decode_key(blob: List, runtime=None) -> Tuple:
    return tuple(
        (name, _value_from_json(value, runtime)) for name, value in blob
    )


class DistinctOp(_UnaryOp):
    """Streaming DISTINCT over a serialisable seen-set."""

    label = "Distinct"

    def __init__(self, runtime, child):
        super().__init__(runtime, child)
        self._order = _KeyOrder()
        self._seen: set = set()

    def _next(self, limit: int) -> List[Binding]:
        out = []
        for row in self._pull(limit):
            key = self._order.key(row)
            if key not in self._seen:
                self._seen.add(key)
                out.append(row)
        return out

    def _save(self) -> Dict:
        return {
            "child": self.child.save(),
            "order": list(self._order.order),
            "seen": [
                _encode_key(key, self.runtime) for key in self._seen
            ],
        }

    def _load(self, state: Dict) -> None:
        self.child.load(state["child"])
        self._order = _KeyOrder()
        self._order.order = list(state.get("order", ()))
        self._order.known = set(self._order.order)
        self._seen = {
            _decode_key(blob, self.runtime)
            for blob in state.get("seen", ())
        }


class ReducedOp(_UnaryOp):
    """REDUCED: drops adjacent duplicates only."""

    label = "Reduced"

    def __init__(self, runtime, child):
        super().__init__(runtime, child)
        self._order = _KeyOrder()
        self._previous: Optional[Tuple] = None

    def _next(self, limit: int) -> List[Binding]:
        out = []
        for row in self._pull(limit):
            key = self._order.key(row)
            if key != self._previous:
                self._previous = key
                out.append(row)
        return out

    def _save(self) -> Dict:
        return {
            "child": self.child.save(),
            "order": list(self._order.order),
            "previous": (
                _encode_key(self._previous, self.runtime)
                if self._previous is not None
                else None
            ),
        }

    def _load(self, state: Dict) -> None:
        self.child.load(state["child"])
        self._order = _KeyOrder()
        self._order.order = list(state.get("order", ()))
        self._order.known = set(self._order.order)
        previous = state.get("previous")
        self._previous = (
            _decode_key(previous, self.runtime)
            if previous is not None
            else None
        )


class SliceOp(_UnaryOp):
    """OFFSET/LIMIT; stops pulling its child once the limit is reached."""

    label = "Slice"

    def __init__(self, runtime, child, offset=0, limit=None):
        super().__init__(runtime, child)
        self.offset = offset
        self.limit = limit
        self._skipped = 0
        self._emitted = 0

    def detail(self) -> str:
        parts = []
        if self.offset:
            parts.append(f"offset {self.offset}")
        if self.limit is not None:
            parts.append(f"limit {self.limit}")
        return " ".join(parts)

    def _next(self, limit: int) -> List[Binding]:
        if self.limit is not None:
            limit = min(limit, self.limit - self._emitted)
            if limit <= 0:
                self.done = True
                return []
        if self._skipped < self.offset:
            # Skipped rows are never emitted, so they may come a full
            # block at a time whatever the caller's row budget is.
            self._skipped += len(
                self._pull(min(BLOCK, self.offset - self._skipped))
            )
            return []
        rows = self._pull(limit)
        self._emitted += len(rows)
        if self.limit is not None and self._emitted >= self.limit:
            self.done = True
        return rows

    def _save(self) -> Dict:
        return {
            "child": self.child.save(),
            "skipped": self._skipped,
            "emitted": self._emitted,
        }

    def _load(self, state: Dict) -> None:
        self.child.load(state["child"])
        self._skipped = int(state.get("skipped", 0))
        self._emitted = int(state.get("emitted", 0))
