"""Lowering of parsed queries to an algebra tree.

The operators follow the SPARQL 1.1 algebra: BGP, Join, LeftJoin, Filter,
Union, Minus, Extend, Values, Group/Aggregation (fused with projection for
simplicity), Project, Distinct/Reduced, OrderBy, and Slice.  The planner
(:mod:`repro.sparql.planner`) compiles this tree into physical operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..rdf.terms import Literal, URI
from .ast import (
    AggregateExpr,
    AskQuery,
    BindPattern,
    BinaryExpr,
    ConstructQuery,
    Expression,
    FilterPattern,
    FunctionCall,
    GroupGraphPattern,
    InExpr,
    MinusPattern,
    OptionalPattern,
    OrderCondition,
    Projection,
    Query,
    SelectQuery,
    SubSelectPattern,
    TermExpr,
    TriplePatternNode,
    UnaryExpr,
    UnionPattern,
    ValuesPattern,
    Var,
    VarExpr,
)
from .errors import SparqlEvalError

__all__ = [
    "AlgebraNode",
    "Unit",
    "BGP",
    "Join",
    "LeftJoin",
    "Filter",
    "Union",
    "Minus",
    "Extend",
    "ValuesTable",
    "Aggregation",
    "Project",
    "Distinct",
    "Reduced",
    "OrderBy",
    "Slice",
    "TopK",
    "Ask",
    "translate_query",
    "translate_pattern",
    "contains_aggregate",
    "expression_variables",
    "certain_variables",
    "possible_variables",
]


class AlgebraNode:
    """Base class for algebra operators."""

    __slots__ = ()


@dataclass
class Unit(AlgebraNode):
    """The unit table: one empty solution."""


@dataclass
class BGP(AlgebraNode):
    """A basic graph pattern.

    ``filters`` are conditions the optimizer pushed *into* the pattern:
    the scan chain applies each one as soon as all of its variables are
    bound during the index-nested-loop join, so failing candidates are
    discarded before the remaining patterns are expanded.  Every filter's
    variables must be a subset of the BGP's own variables — the
    pushdown pass guarantees this.  ``preordered`` marks pattern orders
    chosen by the statistics-driven reorder pass; the planner then
    skips its own greedy ordering.
    """

    patterns: Tuple[TriplePatternNode, ...]
    filters: Tuple[Expression, ...] = ()
    preordered: bool = False

    def variables(self) -> set:
        names: set = set()
        for pattern in self.patterns:
            names |= pattern.variables()
        return names


@dataclass
class Join(AlgebraNode):
    left: AlgebraNode
    right: AlgebraNode


@dataclass
class LeftJoin(AlgebraNode):
    left: AlgebraNode
    right: AlgebraNode
    condition: Optional[Expression] = None


@dataclass
class Filter(AlgebraNode):
    condition: Expression
    input: AlgebraNode


@dataclass
class Union(AlgebraNode):
    branches: List[AlgebraNode]


@dataclass
class Minus(AlgebraNode):
    left: AlgebraNode
    right: AlgebraNode


@dataclass
class Extend(AlgebraNode):
    input: AlgebraNode
    var: Var
    expression: Expression


@dataclass
class ValuesTable(AlgebraNode):
    variables: List[Var]
    rows: List[Tuple[Optional[Union[URI, Literal]], ...]]


@dataclass
class Aggregation(AlgebraNode):
    """Grouping plus per-group evaluation of the SELECT expressions.

    ``keys`` are the GROUP BY expressions (a :class:`Projection` key also
    binds its ``AS`` variable).  ``projections`` are the final SELECT
    items, evaluated once per group with aggregate nodes computed over the
    group members.  ``having`` filters groups.
    """

    input: AlgebraNode
    keys: List[Union[Expression, Projection]]
    projections: List[Projection]
    having: List[Expression] = field(default_factory=list)


@dataclass
class Project(AlgebraNode):
    input: AlgebraNode
    variables: Optional[List[Var]]  # None = keep all (SELECT *)
    extensions: List[Projection] = field(default_factory=list)


@dataclass
class Distinct(AlgebraNode):
    input: AlgebraNode


@dataclass
class Reduced(AlgebraNode):
    input: AlgebraNode


@dataclass
class OrderBy(AlgebraNode):
    input: AlgebraNode
    conditions: List[OrderCondition]


@dataclass
class Slice(AlgebraNode):
    input: AlgebraNode
    offset: int = 0
    limit: Optional[int] = None


@dataclass
class TopK(AlgebraNode):
    """Fused ``ORDER BY ... LIMIT k [OFFSET n]``.

    Produced by the optimizer's top-k fusion pass; the engine keeps a
    bounded heap of ``limit + offset`` rows instead of materialising and
    fully sorting the input.  Ties are broken by input arrival order, so
    the output is bit-identical to a stable full sort followed by a
    slice.
    """

    input: AlgebraNode
    conditions: List[OrderCondition]
    limit: int
    offset: int = 0


@dataclass
class Ask(AlgebraNode):
    input: AlgebraNode


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def contains_aggregate(expression: Expression) -> bool:
    """Whether an expression tree contains an aggregate node."""
    if isinstance(expression, AggregateExpr):
        return True
    if isinstance(expression, BinaryExpr):
        return contains_aggregate(expression.left) or contains_aggregate(
            expression.right
        )
    if isinstance(expression, UnaryExpr):
        return contains_aggregate(expression.operand)
    if isinstance(expression, FunctionCall):
        return any(contains_aggregate(arg) for arg in expression.args)
    if isinstance(expression, InExpr):
        return contains_aggregate(expression.operand) or any(
            contains_aggregate(choice) for choice in expression.choices
        )
    return False


def expression_variables(expression: Expression) -> set:
    """The set of variable names mentioned by an expression."""
    if isinstance(expression, VarExpr):
        return {expression.var.name}
    if isinstance(expression, TermExpr):
        return set()
    if isinstance(expression, BinaryExpr):
        return expression_variables(expression.left) | expression_variables(
            expression.right
        )
    if isinstance(expression, UnaryExpr):
        return expression_variables(expression.operand)
    if isinstance(expression, (FunctionCall,)):
        names: set = set()
        for arg in expression.args:
            names |= expression_variables(arg)
        return names
    if isinstance(expression, InExpr):
        names = expression_variables(expression.operand)
        for choice in expression.choices:
            names |= expression_variables(choice)
        return names
    if isinstance(expression, AggregateExpr):
        if expression.argument is None:
            return set()
        return expression_variables(expression.argument)
    return set()


# ----------------------------------------------------------------------
# Static variable analysis
# ----------------------------------------------------------------------


def certain_variables(node: AlgebraNode) -> set:
    """Variables bound in *every* solution the operator can produce.

    This is the static produced-variable analysis join planning relies
    on: hash-join keys are drawn from ``certain(left) & certain(right)``
    so a key variable can never be unbound on either side.  Variables
    that are only *possibly* bound (OPTIONAL right sides, BIND whose
    expression may error, UNION branches that disagree) are excluded —
    they are handled by the post-match compatibility check instead.
    """
    if isinstance(node, BGP):
        return node.variables()
    if isinstance(node, Join):
        return certain_variables(node.left) | certain_variables(node.right)
    if isinstance(node, (LeftJoin, Minus)):
        return certain_variables(node.left)
    if isinstance(node, Union):
        if not node.branches:
            return set()
        certain = certain_variables(node.branches[0])
        for branch in node.branches[1:]:
            certain &= certain_variables(branch)
        return certain
    if isinstance(node, (Filter, Distinct, Reduced, OrderBy, TopK, Slice)):
        return certain_variables(node.input)
    if isinstance(node, Extend):
        # BIND errors leave the variable unbound, so it is possible only.
        return certain_variables(node.input)
    if isinstance(node, ValuesTable):
        return {
            var.name
            for index, var in enumerate(node.variables)
            if all(row[index] is not None for row in node.rows)
        }
    if isinstance(node, Project):
        inner = certain_variables(node.input)
        if node.variables is None:
            return inner
        extended = {projection.var.name for projection in node.extensions}
        return {
            var.name
            for var in node.variables
            if var.name in inner and var.name not in extended
        }
    # Aggregation outputs may drop variables on expression errors or
    # None group keys; Unit/Ask produce no variables.
    return set()


def possible_variables(node: AlgebraNode) -> set:
    """Variables that *may* appear bound in a solution of the operator."""
    if isinstance(node, BGP):
        return node.variables()
    if isinstance(node, (Join, LeftJoin)):
        return possible_variables(node.left) | possible_variables(node.right)
    if isinstance(node, Minus):
        return possible_variables(node.left)
    if isinstance(node, Union):
        names: set = set()
        for branch in node.branches:
            names |= possible_variables(branch)
        return names
    if isinstance(node, (Filter, Distinct, Reduced, OrderBy, TopK, Slice)):
        return possible_variables(node.input)
    if isinstance(node, Extend):
        return possible_variables(node.input) | {node.var.name}
    if isinstance(node, ValuesTable):
        return {var.name for var in node.variables}
    if isinstance(node, Project):
        if node.variables is None:
            return possible_variables(node.input)
        return {var.name for var in node.variables}
    if isinstance(node, Aggregation):
        return {projection.var.name for projection in node.projections}
    return set()


# ----------------------------------------------------------------------
# Translation
# ----------------------------------------------------------------------


def translate_pattern(group: GroupGraphPattern) -> AlgebraNode:
    """Translate a group graph pattern to algebra (filters applied last)."""
    current: AlgebraNode = Unit()
    pending_triples: List[TriplePatternNode] = []
    filters: List[Expression] = []

    def flush() -> None:
        nonlocal current
        if pending_triples:
            bgp = BGP(tuple(pending_triples))
            pending_triples.clear()
            current = bgp if isinstance(current, Unit) else Join(current, bgp)

    def join_with(node: AlgebraNode) -> None:
        nonlocal current
        flush()
        current = node if isinstance(current, Unit) else Join(current, node)

    for child in group.children:
        if isinstance(child, TriplePatternNode):
            pending_triples.append(child)
        elif isinstance(child, FilterPattern):
            filters.append(child.expression)
        elif isinstance(child, OptionalPattern):
            flush()
            inner = translate_pattern(child.pattern)
            condition = None
            # A top-level FILTER inside OPTIONAL becomes the LeftJoin
            # condition per the SPARQL algebra.
            if isinstance(inner, Filter):
                condition = inner.condition
                inner = inner.input
            current = LeftJoin(current, inner, condition)
        elif isinstance(child, UnionPattern):
            join_with(Union([translate_pattern(alt) for alt in child.alternatives]))
        elif isinstance(child, MinusPattern):
            flush()
            current = Minus(current, translate_pattern(child.pattern))
        elif isinstance(child, BindPattern):
            flush()
            current = Extend(current, child.var, child.expression)
        elif isinstance(child, ValuesPattern):
            join_with(ValuesTable(child.variables, child.rows))
        elif isinstance(child, SubSelectPattern):
            join_with(translate_select(child.query))
        elif isinstance(child, GroupGraphPattern):
            join_with(translate_pattern(child))
        else:
            raise SparqlEvalError(f"unsupported pattern node: {child!r}")
    flush()
    for condition in filters:
        current = Filter(condition, current)
    return current


def _is_aggregate_query(query: SelectQuery) -> bool:
    if query.group_by or query.having:
        return True
    if query.projections:
        return any(
            projection.expression is not None
            and contains_aggregate(projection.expression)
            for projection in query.projections
        )
    return False


def translate_select(query: SelectQuery) -> AlgebraNode:
    """Translate a SELECT query (also used for sub-selects)."""
    node = translate_pattern(query.where)
    if _is_aggregate_query(query):
        if query.projections is None:
            raise SparqlEvalError("SELECT * cannot be used with GROUP BY")
        node = Aggregation(
            input=node,
            keys=list(query.group_by),
            projections=list(query.projections),
            having=list(query.having),
        )
    else:
        variables: Optional[List[Var]]
        extensions: List[Projection] = []
        if query.projections is None:
            variables = None
        else:
            variables = [projection.var for projection in query.projections]
            extensions = [
                projection
                for projection in query.projections
                if projection.expression is not None
            ]
        node = Project(node, variables, extensions)
    if query.order_by:
        node = OrderBy(node, list(query.order_by))
    if query.distinct:
        node = Distinct(node)
    elif query.reduced:
        node = Reduced(node)
    if query.limit is not None or query.offset:
        node = Slice(node, offset=query.offset, limit=query.limit)
    return node


def translate_query(query: Query) -> AlgebraNode:
    """Translate a parsed query to its algebra tree."""
    if isinstance(query, SelectQuery):
        return translate_select(query)
    if isinstance(query, AskQuery):
        return Ask(translate_pattern(query.where))
    if isinstance(query, ConstructQuery):
        # The solutions the template is applied to: the WHERE pattern,
        # with OFFSET / LIMIT slicing the solution sequence per the spec.
        node = translate_pattern(query.where)
        if query.limit is not None or query.offset:
            node = Slice(node, offset=query.offset, limit=query.limit)
        return node
    raise SparqlEvalError(f"unsupported query form: {query!r}")
