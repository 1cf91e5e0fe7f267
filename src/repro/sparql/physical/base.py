"""Shared machinery of the physical layer: the operator protocol,
state (de)serialisation, and the ID-space/term-space boundary helpers.

Every operator module in this package builds on the uniform

    ``next(limit) -> List[Binding]`` / ``save() -> state`` / ``load(state)``

protocol defined here by :class:`PhysicalOperator`; see the package
docstring (:mod:`repro.sparql.physical`) for the full design notes.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from ...obs.metrics import REGISTRY
from ...rdf.terms import Term
from ..errors import ExpressionError, SparqlError
from ..functions import (
    Binding,
    effective_boolean_value,
    evaluate_expression,
)
from ..results import term_from_json, term_to_json

__all__ = [
    "BLOCK",
    "PlanStateError",
    "PhysicalOperator",
    "encode_binding",
    "decode_binding",
]

#: The one unit of bounded work: the most rows a ``next(limit)`` call
#: returns, the most child rows a blocking (build) phase absorbs per
#: call, and the most candidates a scan examines per call.
BLOCK = 128

_DECODED_TERMS = REGISTRY.counter(
    "repro_dict_decode_total",
    "Terms materialized from ID space at engine decode boundaries",
)


class PlanStateError(SparqlError):
    """A saved operator state does not match the plan it is loaded into."""


# ----------------------------------------------------------------------
# State encoding
# ----------------------------------------------------------------------


def _execution_memo(runtime, name: str) -> Dict:
    """A memo table living as long as one plan execution.

    Hung off the shared ``runtime`` so every operator of the plan sees
    the same table; never serialised — a resumed execution starts with
    empty memos and refills them on demand.
    """
    memo = getattr(runtime, name, None)
    if memo is None:
        memo = {}
        setattr(runtime, name, memo)
    return memo


def _value_to_json(value, runtime=None):
    """One binding value: portable term IDs pass through raw.

    IDs the local store minted at runtime (a frozen-base store's
    overlay — computed aggregates, BIND results) are process-local, so
    with a ``runtime`` they serialise as term literals instead; the
    loading side re-interns them, which keeps tokens resumable in *any*
    process mapping the same store (the worker pool depends on this).
    """
    if isinstance(value, int):
        if runtime is None or runtime.dictionary.portable_id(value):
            return value
        # The same overlay IDs (aggregate results, BIND outputs) recur
        # in every buffered row of a suspended sort; memoise the blob
        # per execution so repeated saves don't re-decode them.
        cache = _execution_memo(runtime, "_overlay_blob_cache")
        blob = cache.get(value)
        if blob is None:
            blob = cache[value] = term_to_json(runtime.dictionary.decode(value))
        return blob
    return term_to_json(value)


def _value_from_json(blob, runtime=None):
    if isinstance(blob, int):
        return blob
    term = term_from_json(blob)
    if runtime is not None:
        return runtime.dictionary.encode(term)
    return term


def encode_binding(binding: Binding, runtime=None) -> List:
    """JSON-able encoding of one solution mapping (order-preserving).

    In-plan binding values are term IDs (plain ints, already JSON-able);
    term objects are still accepted for forward compatibility.  Pass the
    plan ``runtime`` so overlay IDs cross as portable term literals.
    """
    return [
        [name, _value_to_json(value, runtime)]
        for name, value in binding.items()
    ]


def decode_binding(blob: List, runtime=None) -> Binding:
    return {name: _value_from_json(value, runtime) for name, value in blob}


def _encode_opt_term(value, runtime=None):
    return None if value is None else _value_to_json(value, runtime)


def _decode_opt_term(blob, runtime=None):
    return None if blob is None else _value_from_json(blob, runtime)


def _check(conditions, binding: Binding, runtime) -> bool:
    """Whether ``binding`` passes every condition (errors count as false).

    ``binding`` must be in *term* space — this is the expression layer.
    """
    for condition in conditions:
        try:
            if not effective_boolean_value(
                evaluate_expression(condition, binding, context=runtime)
            ):
                return False
        except ExpressionError:
            return False
    return True


def _decode_row(row: Binding, runtime) -> Binding:
    """Materialize one encoded row into term space (expression boundary)."""
    _DECODED_TERMS.inc(len(row))
    decode = runtime.dictionary.decode
    return {name: decode(value) for name, value in row.items()}


def _check_ids(conditions, row: Binding, runtime) -> bool:
    """Condition check over an encoded row; decodes only when needed."""
    if not conditions:
        return True
    return _check(conditions, _decode_row(row, runtime), runtime)


def _encode_value(value, runtime):
    """Intern a computed expression result so it can enter a binding.

    Every value inside a plan must be an ID — mixing terms and ints
    would silently break join/DISTINCT equality.  Non-term results
    (shouldn't happen, but errors must not corrupt the plan) pass
    through untouched.
    """
    if isinstance(value, Term):
        return runtime.dictionary.encode(value)
    return value


# ----------------------------------------------------------------------
# Base operator
# ----------------------------------------------------------------------


class PhysicalOperator:
    """Base class: uniform ``next(limit)/save()/load()`` with work counters.

    ``runtime`` is the shared per-execution context — an
    :class:`repro.sparql.evaluator.Evaluator` instance whose ``graph``
    the scans read, whose ``stats`` every operator counts into (the cost
    model bills pages from the deltas), and which serves as the
    expression-evaluation context so ``EXISTS { ... }`` keeps working
    (an EXISTS sub-pattern runs as a physical sub-plan inside one
    operator step — the one non-preemptible island, as in sage).

    ``rows_produced`` / ``wall_s`` / ``calls`` are live observability
    counters (``calls`` counts ``next(limit)`` calls, each worth up to
    :data:`BLOCK` rows); ``EXPLAIN ANALYZE`` and ``trace=True`` read
    them directly off the finished tree.
    """

    label = "Physical"

    def __init__(self, runtime):
        self.runtime = runtime
        self.done = False
        self.rows_produced = 0
        self.wall_s = 0.0
        self.calls = 0
        self.algebra = None  # back-pointer set by the planner

    # -- protocol -------------------------------------------------------

    def next(self, limit: int) -> List[Binding]:
        """One bounded unit of work: up to ``limit`` rows (``limit >= 1``).

        Never more than ``limit`` rows, so the caller's row budget is
        never overshot and no operator has to hold rows back; an empty
        block with ``done`` still false means the call made progress
        (a build step, rejected candidates) but has no row yet.
        """
        started = perf_counter()
        self.calls += 1
        try:
            rows = self._next(limit)
        finally:
            self.wall_s += perf_counter() - started
        self.rows_produced += len(rows)
        return rows

    def _next(self, limit: int) -> List[Binding]:  # pragma: no cover - abstract
        raise NotImplementedError

    def children(self) -> List["PhysicalOperator"]:
        return []

    def detail(self) -> str:
        return ""

    def clustered_on(self) -> Optional[Tuple[str, ...]]:
        """The variables the output is *keyed and sorted by*, or ``None``.

        A tuple claims that every row binds exactly these variables, no
        two rows agree on all of them, and rows arrive in increasing ID
        order of the tuple, first variable most significant.  ``None``
        claims nothing, which is always safe.
        """
        return None

    def walk(self) -> Iterator["PhysicalOperator"]:
        yield self
        for child in self.children():
            yield from child.walk()

    # -- suspension -----------------------------------------------------

    def save(self) -> Dict:
        """Serialise the operator (and its subtree) to JSON-able state."""
        state = {"op": self.label, "done": self.done}
        state.update(self._save())
        return state

    def load(self, state: Dict) -> None:
        """Restore a subtree from :meth:`save` output."""
        if not isinstance(state, dict) or state.get("op") != self.label:
            raise PlanStateError(
                f"saved state is for {state.get('op') if isinstance(state, dict) else state!r}, "
                f"not {self.label}"
            )
        self.done = bool(state.get("done"))
        self._load(state)

    def _save(self) -> Dict:
        return {}

    def _load(self, state: Dict) -> None:
        pass


class _UnaryOp(PhysicalOperator):
    """Shared plumbing for operators with one child and no extra state."""

    def __init__(self, runtime, child):
        super().__init__(runtime)
        self.child = child

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def _pull(self, limit: int) -> List[Binding]:
        """One child block, marking ``done`` when the child is exhausted."""
        if self.child.done:
            self.done = True
            return []
        rows = self.child.next(limit)
        if not rows and self.child.done:
            self.done = True
        return rows

    def _save(self) -> Dict:
        return {"child": self.child.save()}

    def _load(self, state: Dict) -> None:
        self.child.load(state["child"])
