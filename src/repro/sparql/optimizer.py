"""Cost-based rewriting of SPARQL algebra trees.

The optimizer is a pipeline of independent passes, each taking an
algebra tree and returning a (possibly) rewritten tree plus human-readable
notes about what it changed.  Passes never mutate their input — rewritten
trees share unchanged subtrees with the original.

Passes, in pipeline order:

``constant_folding``
    Evaluates variable-free (sub-)expressions at plan time.  A filter
    that folds to TRUE is dropped; one that folds to FALSE (or to a type
    error) replaces its input with an empty table that still declares the
    input's variables, so ``SELECT *`` keeps its columns.

``bgp_merge``
    Flattens ``Join(BGP, BGP)`` chains produced by translation into a
    single basic graph pattern, giving the later passes the full join
    space to work with.

``filter_pushdown``
    Moves filters as close to the data as possible: below joins when one
    side certainly binds all of the condition's variables, into every
    branch of a UNION, below BIND when the bound variable is not
    referenced, and *into* BGPs — where the scan chain applies them
    mid-join, before remaining patterns are expanded.  Conjunctions are
    split so each conjunct travels independently.  Conditions containing
    EXISTS or aggregates never move.

``projection_pushdown``
    Live-variable analysis from the root down; join inputs are wrapped
    in projections that drop columns nothing above will ever read, which
    shrinks every intermediate binding the join produces.

``stats_reorder``
    Statistics-driven join ordering.  Per-predicate/per-class cardinality
    summaries (:class:`repro.rdf.stats.GraphStatistics`) replace the
    planner's bound-position heuristic: BGP patterns are greedily
    ordered by estimated result size, and join operands are swapped so
    the smaller side is materialised first.

``top_k_fusion``
    Rewrites ``Slice(OrderBy(X))`` with a finite limit into the bounded
    :class:`~repro.sparql.algebra.TopK` heap operator, turning an
    O(n log n) full sort into O(n log k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import REGISTRY
from ..rdf.terms import Literal, URI
from ..rdf.vocab import RDF
from .algebra import (
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
    contains_aggregate,
    expression_variables,
)
from .ast import (
    AggregateExpr,
    BinaryExpr,
    ExistsExpr,
    Expression,
    FunctionCall,
    InExpr,
    PathExpr,
    TermExpr,
    UnaryExpr,
    Var,
)
from .errors import ExpressionError
from .functions import effective_boolean_value, evaluate_expression

if False:  # pragma: no cover - typing only
    from ..rdf.stats import GraphStatistics

__all__ = [
    "OptimizationReport",
    "PASS_NAMES",
    "estimate",
    "optimize",
    "pattern_estimate",
]

_OPTIMIZER_RUNS_TOTAL = REGISTRY.counter(
    "repro_optimizer_runs_total", "Algebra trees run through the optimizer pipeline"
)
_OPTIMIZER_REWRITES_TOTAL = REGISTRY.counter(
    "repro_optimizer_rewrites_total",
    "Individual rewrites applied, by optimizer pass",
    labelnames=("pass",),
)

_RDF_TYPE = RDF.term("type")


@dataclass
class OptimizationReport:
    """What the optimizer did to one plan: ``(pass, detail)`` notes."""

    notes: List[Tuple[str, str]] = field(default_factory=list)

    def add(self, pass_name: str, detail: str) -> None:
        self.notes.append((pass_name, detail))
        _OPTIMIZER_REWRITES_TOTAL.labels(**{"pass": pass_name}).inc()

    def passes_applied(self) -> List[str]:
        seen: List[str] = []
        for pass_name, _ in self.notes:
            if pass_name not in seen:
                seen.append(pass_name)
        return seen

    def __bool__(self) -> bool:
        return bool(self.notes)


# ----------------------------------------------------------------------
# Expression analysis
# ----------------------------------------------------------------------

#: Functions whose value is not a pure function of their arguments.
_NONDETERMINISTIC_FUNCTIONS = {"BNODE", "RAND", "NOW", "UUID", "STRUUID"}


def _contains_exists(expression: Expression) -> bool:
    if isinstance(expression, ExistsExpr):
        return True
    if isinstance(expression, BinaryExpr):
        return _contains_exists(expression.left) or _contains_exists(expression.right)
    if isinstance(expression, UnaryExpr):
        return _contains_exists(expression.operand)
    if isinstance(expression, FunctionCall):
        return any(_contains_exists(arg) for arg in expression.args)
    if isinstance(expression, InExpr):
        return _contains_exists(expression.operand) or any(
            _contains_exists(choice) for choice in expression.choices
        )
    if isinstance(expression, AggregateExpr):
        return expression.argument is not None and _contains_exists(
            expression.argument
        )
    return False


def _contains_nondeterminism(expression: Expression) -> bool:
    if isinstance(expression, FunctionCall):
        if expression.name.upper() in _NONDETERMINISTIC_FUNCTIONS:
            return True
        return any(_contains_nondeterminism(arg) for arg in expression.args)
    if isinstance(expression, BinaryExpr):
        return _contains_nondeterminism(expression.left) or _contains_nondeterminism(
            expression.right
        )
    if isinstance(expression, UnaryExpr):
        return _contains_nondeterminism(expression.operand)
    if isinstance(expression, InExpr):
        return _contains_nondeterminism(expression.operand) or any(
            _contains_nondeterminism(choice) for choice in expression.choices
        )
    return False


def _movable(expression: Expression) -> bool:
    """Whether a filter condition may be relocated by the optimizer.

    EXISTS reads the *whole* enclosing binding (its compatibility check
    is not limited to the variables the expression mentions), aggregates
    only make sense at their grouping level, and nondeterministic
    functions must be evaluated exactly where — and as often as — the
    author placed them.
    """
    return not (
        _contains_exists(expression)
        or contains_aggregate(expression)
        or _contains_nondeterminism(expression)
    )


def _split_conjunction(expression: Expression) -> List[Expression]:
    """Top-level ``&&`` conjuncts (filter-context equivalence only)."""
    if isinstance(expression, BinaryExpr) and expression.op == "&&":
        return _split_conjunction(expression.left) + _split_conjunction(
            expression.right
        )
    return [expression]


# ----------------------------------------------------------------------
# Variable analysis
# ----------------------------------------------------------------------


def _possible_vars(node: AlgebraNode) -> set:
    """Over-approximation of variables that may appear in solutions."""
    if isinstance(node, BGP):
        return node.variables()
    if isinstance(node, (Join, LeftJoin)):
        return _possible_vars(node.left) | _possible_vars(node.right)
    if isinstance(node, Minus):
        return _possible_vars(node.left)
    if isinstance(node, Filter):
        return _possible_vars(node.input)
    if isinstance(node, Union):
        names: set = set()
        for branch in node.branches:
            names |= _possible_vars(branch)
        return names
    if isinstance(node, Extend):
        return _possible_vars(node.input) | {node.var.name}
    if isinstance(node, ValuesTable):
        return {var.name for var in node.variables}
    if isinstance(node, Aggregation):
        return {projection.var.name for projection in node.projections}
    if isinstance(node, Project):
        if node.variables is None:
            return _possible_vars(node.input)
        return {var.name for var in node.variables}
    if isinstance(node, (Distinct, Reduced, OrderBy, Slice, TopK)):
        return _possible_vars(node.input)
    return set()


def _certain_vars(node: AlgebraNode) -> set:
    """Under-approximation of variables bound in *every* solution."""
    if isinstance(node, BGP):
        # Property-path endpoints always bind; every position in a plain
        # triple pattern binds on a match.
        return node.variables()
    if isinstance(node, Join):
        return _certain_vars(node.left) | _certain_vars(node.right)
    if isinstance(node, (LeftJoin, Minus)):
        return _certain_vars(node.left)
    if isinstance(node, Filter):
        return _certain_vars(node.input)
    if isinstance(node, Union):
        branches = node.branches
        if not branches:
            return set()
        names = _certain_vars(branches[0])
        for branch in branches[1:]:
            names &= _certain_vars(branch)
        return names
    if isinstance(node, Extend):
        # BIND leaves the variable unbound on expression error, so the
        # extension variable is never certain.
        return _certain_vars(node.input)
    if isinstance(node, ValuesTable):
        names: set = set()
        for index, var in enumerate(node.variables):
            if all(row[index] is not None for row in node.rows):
                names.add(var.name)
        return names if node.rows else set()
    if isinstance(node, Project):
        inner = _certain_vars(node.input)
        if node.variables is None:
            return inner
        return inner & {var.name for var in node.variables}
    if isinstance(node, (Distinct, Reduced, OrderBy, Slice, TopK)):
        return _certain_vars(node.input)
    return set()


# ----------------------------------------------------------------------
# Pass: constant folding
# ----------------------------------------------------------------------


def _fold_expression(expression: Expression) -> Expression:
    """Replace variable-free deterministic subexpressions with their value."""
    if isinstance(expression, TermExpr):
        return expression
    if (
        not expression_variables(expression)
        and _movable(expression)
        and not isinstance(expression, AggregateExpr)
    ):
        try:
            value = evaluate_expression(expression, {})
        except ExpressionError:
            # Errors are part of filter semantics (the row is rejected);
            # leave the expression for runtime so EBV handling stays
            # uniform.
            return expression
        if isinstance(value, (URI, Literal)):
            return TermExpr(value)
        return expression
    if isinstance(expression, BinaryExpr):
        left = _fold_expression(expression.left)
        right = _fold_expression(expression.right)
        if left is not expression.left or right is not expression.right:
            return BinaryExpr(expression.op, left, right)
        return expression
    if isinstance(expression, UnaryExpr):
        operand = _fold_expression(expression.operand)
        if operand is not expression.operand:
            return UnaryExpr(expression.op, operand)
        return expression
    if isinstance(expression, FunctionCall):
        args = [_fold_expression(arg) for arg in expression.args]
        if any(new is not old for new, old in zip(args, expression.args)):
            return FunctionCall(expression.name, tuple(args))
        return expression
    if isinstance(expression, InExpr):
        operand = _fold_expression(expression.operand)
        choices = [_fold_expression(choice) for choice in expression.choices]
        if operand is not expression.operand or any(
            new is not old for new, old in zip(choices, expression.choices)
        ):
            return InExpr(operand, tuple(choices), expression.negated)
        return expression
    return expression


def _empty_table_like(node: AlgebraNode) -> ValuesTable:
    """An empty table declaring the node's variables (keeps SELECT * sane)."""
    return ValuesTable([Var(name) for name in sorted(_possible_vars(node))], [])


def _pass_constant_folding(
    node: AlgebraNode, report: OptimizationReport, stats
) -> AlgebraNode:
    def rewrite(node: AlgebraNode) -> AlgebraNode:
        node = _rewrite_children(node, rewrite)
        if isinstance(node, Filter):
            condition = _fold_expression(node.condition)
            if isinstance(condition, TermExpr):
                try:
                    truth = effective_boolean_value(condition.term)
                except ExpressionError:
                    truth = False
                if truth:
                    report.add("constant_folding", "dropped always-true filter")
                    return node.input
                report.add(
                    "constant_folding",
                    "replaced always-false filter with empty table",
                )
                return _empty_table_like(node.input)
            if condition is not node.condition:
                report.add("constant_folding", f"folded constants in {condition}")
                return Filter(condition, node.input)
        return node

    return rewrite(node)


# ----------------------------------------------------------------------
# Pass: BGP merge
# ----------------------------------------------------------------------


def _pass_bgp_merge(
    node: AlgebraNode, report: OptimizationReport, stats
) -> AlgebraNode:
    def rewrite(node: AlgebraNode) -> AlgebraNode:
        node = _rewrite_children(node, rewrite)
        if isinstance(node, Join):
            if isinstance(node.left, Unit):
                return node.right
            if isinstance(node.right, Unit):
                return node.left
            if isinstance(node.left, BGP) and isinstance(node.right, BGP):
                merged = BGP(
                    node.left.patterns + node.right.patterns,
                    node.left.filters + node.right.filters,
                )
                report.add(
                    "bgp_merge",
                    f"merged adjacent BGPs ({len(node.left.patterns)}+"
                    f"{len(node.right.patterns)} patterns)",
                )
                return merged
        return node

    return rewrite(node)


# ----------------------------------------------------------------------
# Pass: filter pushdown
# ----------------------------------------------------------------------


def _push_filter(
    condition: Expression, node: AlgebraNode, report: OptimizationReport
) -> Optional[AlgebraNode]:
    """Push one movable condition into ``node``; None when it can't sink."""
    needed = expression_variables(condition)
    if isinstance(node, BGP):
        if needed <= node.variables():
            report.add("filter_pushdown", f"inlined FILTER({condition}) into BGP")
            return BGP(node.patterns, node.filters + (condition,), node.preordered)
        return None
    if isinstance(node, Join):
        if needed <= _certain_vars(node.left):
            left = _push_filter(condition, node.left, report)
            if left is None:
                left = Filter(condition, node.left)
                report.add(
                    "filter_pushdown", f"pushed FILTER({condition}) below join"
                )
            return Join(left, node.right)
        if needed <= _certain_vars(node.right):
            right = _push_filter(condition, node.right, report)
            if right is None:
                right = Filter(condition, node.right)
                report.add(
                    "filter_pushdown", f"pushed FILTER({condition}) below join"
                )
            return Join(node.left, right)
        return None
    if isinstance(node, LeftJoin):
        # Only the required side: pushing into the optional side would
        # turn non-matches into matches (and vice versa).
        if needed <= _certain_vars(node.left):
            left = _push_filter(condition, node.left, report)
            if left is None:
                left = Filter(condition, node.left)
                report.add(
                    "filter_pushdown",
                    f"pushed FILTER({condition}) below OPTIONAL",
                )
            return LeftJoin(left, node.right, node.condition)
        return None
    if isinstance(node, Minus):
        # MINUS passes left rows through unchanged, so the filter can
        # always move below it.
        left = _push_filter(condition, node.left, report)
        if left is None:
            left = Filter(condition, node.left)
            report.add("filter_pushdown", f"moved FILTER({condition}) below MINUS")
        return Minus(left, node.right)
    if isinstance(node, Union):
        branches = []
        for branch in node.branches:
            pushed = _push_filter(condition, branch, report)
            branches.append(pushed if pushed is not None else Filter(condition, branch))
        report.add(
            "filter_pushdown",
            f"distributed FILTER({condition}) over {len(branches)} UNION branches",
        )
        return Union(branches)
    if isinstance(node, Extend):
        if node.var.name not in needed:
            inner = _push_filter(condition, node.input, report)
            if inner is None:
                inner = Filter(condition, node.input)
                report.add(
                    "filter_pushdown", f"moved FILTER({condition}) below BIND"
                )
            return Extend(inner, node.var, node.expression)
        return None
    if isinstance(node, Filter):
        inner = _push_filter(condition, node.input, report)
        if inner is not None:
            return Filter(node.condition, inner)
        return None
    return None


def _pass_filter_pushdown(
    node: AlgebraNode, report: OptimizationReport, stats
) -> AlgebraNode:
    def rewrite(node: AlgebraNode) -> AlgebraNode:
        node = _rewrite_children(node, rewrite)
        if not isinstance(node, Filter):
            return node
        remaining: List[Expression] = []
        current = node.input
        for conjunct in _split_conjunction(node.condition):
            if isinstance(conjunct, TermExpr):
                # A constant conjunct either gates the whole filter or
                # contributes nothing (constant folding got it here).
                try:
                    truth = effective_boolean_value(conjunct.term)
                except ExpressionError:
                    truth = False
                if truth:
                    report.add("filter_pushdown", "dropped constant-true conjunct")
                    continue
                report.add(
                    "filter_pushdown",
                    "constant-false conjunct: replaced input with empty table",
                )
                return _empty_table_like(node.input)
            if not _movable(conjunct):
                remaining.append(conjunct)
                continue
            pushed = _push_filter(conjunct, current, report)
            if pushed is None:
                remaining.append(conjunct)
            else:
                current = pushed
        for conjunct in reversed(remaining):
            current = Filter(conjunct, current)
        return current

    return rewrite(node)


# ----------------------------------------------------------------------
# Pass: projection pushdown
# ----------------------------------------------------------------------


def _project_to(node: AlgebraNode, live: set, report: OptimizationReport) -> AlgebraNode:
    """Wrap ``node`` in a projection when it can bind non-live variables."""
    possible = _possible_vars(node)
    extra = possible - live
    if not extra:
        return node
    keep = sorted(possible & live)
    report.add(
        "projection_pushdown",
        f"pruned {{{', '.join('?' + name for name in sorted(extra))}}} "
        f"below join (kept {len(keep)})",
    )
    return Project(node, [Var(name) for name in keep])


def _pass_projection_pushdown(
    node: AlgebraNode, report: OptimizationReport, stats
) -> AlgebraNode:
    def condition_vars(expression: Optional[Expression]) -> set:
        if expression is None:
            return set()
        if _contains_exists(expression):
            # EXISTS compares against the *entire* binding; nothing that
            # feeds this expression may be pruned.
            return None  # type: ignore[return-value]
        return expression_variables(expression)

    def prune(node: AlgebraNode, live: Optional[set]) -> AlgebraNode:
        """Rewrite with the set of variables anything above may read.

        ``live=None`` means "everything" (analysis gave up above).
        """
        if isinstance(node, Project):
            if node.variables is None:
                return Project(prune(node.input, None), None, node.extensions)
            inner_live = {var.name for var in node.variables}
            for projection in node.extensions:
                vars_of = condition_vars(projection.expression)
                if vars_of is None:
                    return Project(prune(node.input, None), node.variables, node.extensions)
                inner_live |= vars_of
            return Project(prune(node.input, inner_live), node.variables, node.extensions)
        if isinstance(node, Filter):
            vars_of = condition_vars(node.condition)
            inner = None if live is None or vars_of is None else live | vars_of
            return Filter(node.condition, prune(node.input, inner))
        if isinstance(node, (OrderBy, TopK)):
            inner = live
            if inner is not None:
                for cond in node.conditions:
                    vars_of = condition_vars(cond.expression)
                    if vars_of is None:
                        inner = None
                        break
                    inner = inner | vars_of
            pruned = prune(node.input, inner)
            if isinstance(node, OrderBy):
                return OrderBy(pruned, node.conditions)
            return TopK(pruned, node.conditions, node.limit, node.offset)
        if isinstance(node, Slice):
            return Slice(prune(node.input, live), node.offset, node.limit)
        if isinstance(node, Distinct):
            # Deduplication reads every column: keep all of them.
            return Distinct(prune(node.input, None))
        if isinstance(node, Reduced):
            return Reduced(prune(node.input, None))
        if isinstance(node, Ask):
            return Ask(prune(node.input, set()))
        if isinstance(node, Aggregation):
            inner: Optional[set] = set()
            for key in node.keys:
                expression = key.expression if not isinstance(key, Expression) else key
                vars_of = condition_vars(expression)
                inner = None if inner is None or vars_of is None else inner | vars_of
            for projection in node.projections:
                if projection.expression is None:
                    continue
                if _aggregate_reads_whole_row(projection.expression):
                    inner = None
                vars_of = condition_vars(projection.expression)
                inner = None if inner is None or vars_of is None else inner | vars_of
            for having in node.having:
                if _aggregate_reads_whole_row(having):
                    inner = None
                vars_of = condition_vars(having)
                inner = None if inner is None or vars_of is None else inner | vars_of
            return Aggregation(
                prune(node.input, inner), node.keys, node.projections, node.having
            )
        if isinstance(node, Join):
            if live is None:
                return Join(prune(node.left, None), prune(node.right, None))
            left_possible = _possible_vars(node.left)
            right_possible = _possible_vars(node.right)
            shared = left_possible & right_possible
            needed_left = (live | shared) & left_possible
            needed_right = (live | shared) & right_possible
            left = _project_to(prune(node.left, needed_left), needed_left, report)
            right = _project_to(prune(node.right, needed_right), needed_right, report)
            return Join(left, right)
        if isinstance(node, LeftJoin):
            vars_of = condition_vars(node.condition)
            if live is None or vars_of is None:
                return LeftJoin(
                    prune(node.left, None), prune(node.right, None), node.condition
                )
            left_possible = _possible_vars(node.left)
            right_possible = _possible_vars(node.right)
            shared = left_possible & right_possible
            needed_left = (live | shared | vars_of) & left_possible
            needed_right = (live | shared | vars_of) & right_possible
            # The required side's rows survive unwrapped on non-match, so
            # its projection must keep every live column; the optional
            # side only contributes its needed columns.
            left = _project_to(prune(node.left, needed_left), needed_left, report)
            right = _project_to(prune(node.right, needed_right), needed_right, report)
            return LeftJoin(left, right, node.condition)
        if isinstance(node, Minus):
            left_possible = _possible_vars(node.left)
            right_possible = _possible_vars(node.right)
            shared = left_possible & right_possible
            if live is None:
                needed_left: Optional[set] = None
            else:
                needed_left = (live | shared) & left_possible
            # Exclusion only looks at columns both sides can bind.
            right = _project_to(prune(node.right, shared), shared, report)
            left = prune(node.left, needed_left)
            if needed_left is not None:
                left = _project_to(left, needed_left, report)
            return Minus(left, right)
        if isinstance(node, Union):
            return Union([prune(branch, live) for branch in node.branches])
        if isinstance(node, Extend):
            if live is not None and node.var.name not in live:
                report.add(
                    "projection_pushdown",
                    f"dropped dead BIND(... AS ?{node.var.name})",
                )
                return prune(node.input, live)
            vars_of = condition_vars(node.expression)
            inner = None if live is None or vars_of is None else (live - {node.var.name}) | vars_of
            return Extend(prune(node.input, inner), node.var, node.expression)
        # Leaves (BGP, ValuesTable, Unit) and anything unknown: unchanged.
        return node

    return prune(node, None)


def _aggregate_reads_whole_row(expression: Expression) -> bool:
    """True for aggregates like ``COUNT(DISTINCT *)`` that read all columns."""
    if isinstance(expression, AggregateExpr):
        return expression.argument is None and expression.distinct
    if isinstance(expression, BinaryExpr):
        return _aggregate_reads_whole_row(expression.left) or _aggregate_reads_whole_row(
            expression.right
        )
    if isinstance(expression, UnaryExpr):
        return _aggregate_reads_whole_row(expression.operand)
    if isinstance(expression, FunctionCall):
        return any(_aggregate_reads_whole_row(arg) for arg in expression.args)
    if isinstance(expression, InExpr):
        return _aggregate_reads_whole_row(expression.operand) or any(
            _aggregate_reads_whole_row(choice) for choice in expression.choices
        )
    return False


# ----------------------------------------------------------------------
# Pass: statistics-driven join reordering
# ----------------------------------------------------------------------


def pattern_estimate(pattern, bound: set, stats: "GraphStatistics") -> float:
    """Estimated matches of one triple pattern once ``bound`` is bound."""
    subject_bound = not isinstance(pattern.subject, Var) or pattern.subject.name in bound
    object_bound = not isinstance(pattern.object, Var) or pattern.object.name in bound
    predicate = None
    object_class = None
    if isinstance(pattern.predicate, PathExpr):
        # Paths have no per-predicate statistics; assume the whole graph.
        return stats.triple_pattern_cardinality(subject_bound, None, object_bound)
    if not isinstance(pattern.predicate, Var):
        predicate = pattern.predicate
        if predicate == _RDF_TYPE and isinstance(pattern.object, URI):
            object_class = pattern.object
    return stats.triple_pattern_cardinality(
        subject_bound, predicate, object_bound, object_class
    )


def _order_bgp(bgp: BGP, stats: "GraphStatistics") -> Tuple[List, float]:
    """Greedy cardinality-ordered patterns plus the estimated result size."""
    remaining = list(bgp.patterns)
    ordered: List = []
    bound: set = set()
    total = 1.0
    while remaining:
        best_index = 0
        best_cost = None
        for index, pattern in enumerate(remaining):
            cost = pattern_estimate(pattern, bound, stats)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_index = index
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        bound |= chosen.variables()
        total *= max(best_cost, 0.0)
    return ordered, total


def estimate(node: AlgebraNode, stats: "GraphStatistics") -> float:
    """Estimated output rows of an algebra subtree: the cardinality
    model the join ordering is decided by, and EXPLAIN prints."""
    if isinstance(node, BGP):
        _, total = _order_bgp(node, stats)
        return total
    if isinstance(node, Join):
        return estimate(node.left, stats) * estimate(node.right, stats)
    if isinstance(node, (LeftJoin, Minus)):
        return estimate(node.left, stats)
    if isinstance(node, Union):
        return sum(estimate(branch, stats) for branch in node.branches)
    if isinstance(node, ValuesTable):
        return float(len(node.rows))
    if isinstance(node, Unit):
        return 1.0
    if isinstance(node, (Filter, Extend, Project, Distinct, Reduced, OrderBy)):
        return estimate(node.input, stats)
    if isinstance(node, (Slice, TopK)):
        inner = estimate(node.input, stats)
        limit = getattr(node, "limit", None)
        if limit is not None:
            return min(inner, float(limit))
        return inner
    if isinstance(node, Aggregation):
        return estimate(node.input, stats)
    return 1.0


def _pass_stats_reorder(
    node: AlgebraNode, report: OptimizationReport, stats: Optional["GraphStatistics"]
) -> AlgebraNode:
    if stats is None:
        return node

    def rewrite(node: AlgebraNode) -> AlgebraNode:
        node = _rewrite_children(node, rewrite)
        if isinstance(node, BGP) and len(node.patterns) > 1:
            ordered, _ = _order_bgp(node, stats)
            if tuple(ordered) != node.patterns:
                report.add(
                    "stats_reorder",
                    f"reordered {len(ordered)} BGP patterns by estimated cardinality",
                )
            return BGP(tuple(ordered), node.filters, preordered=True)
        if isinstance(node, BGP):
            return BGP(node.patterns, node.filters, preordered=True)
        if isinstance(node, Join):
            left_estimate = estimate(node.left, stats)
            right_estimate = estimate(node.right, stats)
            if right_estimate < left_estimate:
                report.add(
                    "stats_reorder",
                    f"swapped join operands (est. {right_estimate:.0f} vs "
                    f"{left_estimate:.0f} rows)",
                )
                return Join(node.right, node.left)
        return node

    return rewrite(node)


# ----------------------------------------------------------------------
# Pass: top-k fusion
# ----------------------------------------------------------------------


def _pass_top_k_fusion(
    node: AlgebraNode, report: OptimizationReport, stats
) -> AlgebraNode:
    def rewrite(node: AlgebraNode) -> AlgebraNode:
        node = _rewrite_children(node, rewrite)
        if (
            isinstance(node, Slice)
            and node.limit is not None
            and isinstance(node.input, OrderBy)
        ):
            report.add(
                "top_k_fusion",
                f"fused ORDER BY + LIMIT {node.limit} into bounded top-k heap",
            )
            return TopK(
                node.input.input,
                node.input.conditions,
                limit=node.limit,
                offset=node.offset,
            )
        return node

    return rewrite(node)


# ----------------------------------------------------------------------
# Generic traversal
# ----------------------------------------------------------------------


def _rewrite_children(
    node: AlgebraNode, rewrite: Callable[[AlgebraNode], AlgebraNode]
) -> AlgebraNode:
    """Rebuild ``node`` with rewritten children (sharing unchanged ones)."""
    if isinstance(node, Join):
        left, right = rewrite(node.left), rewrite(node.right)
        if left is not node.left or right is not node.right:
            return Join(left, right)
        return node
    if isinstance(node, LeftJoin):
        left, right = rewrite(node.left), rewrite(node.right)
        if left is not node.left or right is not node.right:
            return LeftJoin(left, right, node.condition)
        return node
    if isinstance(node, Minus):
        left, right = rewrite(node.left), rewrite(node.right)
        if left is not node.left or right is not node.right:
            return Minus(left, right)
        return node
    if isinstance(node, Filter):
        inner = rewrite(node.input)
        if inner is not node.input:
            return Filter(node.condition, inner)
        return node
    if isinstance(node, Union):
        branches = [rewrite(branch) for branch in node.branches]
        if any(new is not old for new, old in zip(branches, node.branches)):
            return Union(branches)
        return node
    if isinstance(node, Extend):
        inner = rewrite(node.input)
        if inner is not node.input:
            return Extend(inner, node.var, node.expression)
        return node
    if isinstance(node, Aggregation):
        inner = rewrite(node.input)
        if inner is not node.input:
            return Aggregation(inner, node.keys, node.projections, node.having)
        return node
    if isinstance(node, Project):
        inner = rewrite(node.input)
        if inner is not node.input:
            return Project(inner, node.variables, node.extensions)
        return node
    if isinstance(node, Distinct):
        inner = rewrite(node.input)
        return Distinct(inner) if inner is not node.input else node
    if isinstance(node, Reduced):
        inner = rewrite(node.input)
        return Reduced(inner) if inner is not node.input else node
    if isinstance(node, OrderBy):
        inner = rewrite(node.input)
        return OrderBy(inner, node.conditions) if inner is not node.input else node
    if isinstance(node, Slice):
        inner = rewrite(node.input)
        if inner is not node.input:
            return Slice(inner, node.offset, node.limit)
        return node
    if isinstance(node, TopK):
        inner = rewrite(node.input)
        if inner is not node.input:
            return TopK(inner, node.conditions, node.limit, node.offset)
        return node
    if isinstance(node, Ask):
        inner = rewrite(node.input)
        return Ask(inner) if inner is not node.input else node
    return node


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------

_PASSES: Dict[str, Callable] = {
    "constant_folding": _pass_constant_folding,
    "bgp_merge": _pass_bgp_merge,
    "filter_pushdown": _pass_filter_pushdown,
    "projection_pushdown": _pass_projection_pushdown,
    "stats_reorder": _pass_stats_reorder,
    "top_k_fusion": _pass_top_k_fusion,
}

#: Pipeline order; also the set of valid names for the ``passes`` argument.
PASS_NAMES: Tuple[str, ...] = tuple(_PASSES)


def optimize(
    node: AlgebraNode,
    graph=None,
    stats: Optional["GraphStatistics"] = None,
    passes: Optional[Sequence[str]] = None,
) -> Tuple[AlgebraNode, OptimizationReport]:
    """Run the rewrite pipeline over an algebra tree.

    ``graph`` (or a prebuilt ``stats`` summary) enables the cost-based
    reorder pass; without either, the purely structural passes still run.
    ``passes`` restricts the pipeline to a subset (for ablation).  The
    input tree is never mutated.
    """
    if stats is None and graph is not None:
        stats = graph.statistics()
    selected = PASS_NAMES if passes is None else tuple(passes)
    unknown = [name for name in selected if name not in _PASSES]
    if unknown:
        raise ValueError(f"unknown optimizer pass(es): {', '.join(unknown)}")
    report = OptimizationReport()
    for name in PASS_NAMES:
        if name not in selected:
            continue
        node = _PASSES[name](node, report, stats)
    _OPTIMIZER_RUNS_TOTAL.inc()
    return node, report
