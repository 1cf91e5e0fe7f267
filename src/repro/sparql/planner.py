"""Compilation of optimized algebra trees into physical operator plans.

The planner is the bridge between the engine's front half (parse →
translate → optimize, memoised by :class:`repro.perf.plancache.PlanCache`)
and the suspendable physical layer (:mod:`repro.sparql.physical`).  It
runs every *planning decision* exactly once per query text — BGP pattern
ordering, filter-slot assignment, static hash-join key analysis — and
captures them in a reusable :class:`PhysicalPlanFactory`.  The factory
is immutable and cacheable; each execution (every page of a paginated
query builds on a fresh or restored tree) calls
:meth:`PhysicalPlanFactory.instantiate` to get a new stateful
:class:`PhysicalPlan` in O(plan size).

Every decision is static — :func:`order_patterns`,
:func:`assign_filter_slots`, :func:`~repro.sparql.algebra.certain_variables`
read the algebra, never the run — so a plan executed in time slices
produces the same rows *and* the same
:class:`~repro.sparql.evaluator.EvalStats` work counters as the same
plan run to completion, which keeps the cost model's simulated latency
independent of how a result was paged.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Tuple

from ..rdf.graph import Graph
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
    certain_variables,
    expression_variables,
)
from .ast import PathExpr, Query, SelectQuery, TriplePatternNode, Var
from .errors import SparqlEvalError
from .evaluator import Evaluator
from .physical import (
    AggregationOp,
    DistinctOp,
    ExtendOp,
    FilterOp,
    HashJoinOp,
    LeftJoinOp,
    MaterializeOp,
    MinusOp,
    OrderByOp,
    PathScanOp,
    PatternScanOp,
    PhysicalOperator,
    PlanStateError,
    ProjectOp,
    ReducedOp,
    SingletonOp,
    SliceOp,
    TopKOp,
    UnionOp,
    ValuesOp,
)

__all__ = [
    "PhysicalPlan",
    "PhysicalPlanFactory",
    "compile_node",
    "build_physical_plan",
]

#: A compiled operator constructor: runtime in, fresh stateful tree out.
OperatorFactory = Callable[[Evaluator], PhysicalOperator]


# ----------------------------------------------------------------------
# BGP planning decisions
# ----------------------------------------------------------------------


def pattern_selectivity(pattern: TriplePatternNode, bound: set) -> Tuple[int, int]:
    """(negated bound positions, estimated scan size) — lower is better."""
    bound_positions = 0
    for term in pattern:
        if not isinstance(term, Var) or term.name in bound:
            bound_positions += 1
    return (-bound_positions, 0)


def order_patterns(
    patterns: Iterable[TriplePatternNode],
) -> List[TriplePatternNode]:
    """Greedy selectivity ordering of a BGP's triple patterns."""
    remaining = list(patterns)
    ordered: List[TriplePatternNode] = []
    bound: set = set()
    while remaining:
        remaining.sort(key=lambda p: pattern_selectivity(p, bound))
        chosen = remaining.pop(0)
        ordered.append(chosen)
        bound |= chosen.variables()
    return ordered


def assign_filter_slots(
    ordered: List[TriplePatternNode], filters
) -> List[List]:
    """Attach each pushed-in filter at the earliest join depth where all
    of its variables are bound, so failing candidates are discarded
    before the remaining patterns are expanded.  Slot 0 guards the
    initial (empty) binding; slot ``i + 1`` applies to rows produced by
    pattern ``i``."""
    filters_at: List[List] = [[] for _ in range(len(ordered) + 1)]
    if not filters:
        return filters_at
    bound_after: List[set] = []
    bound: set = set()
    for pattern in ordered:
        bound |= pattern.variables()
        bound_after.append(set(bound))
    for condition in filters:
        needed = expression_variables(condition)
        slot = len(ordered)
        for index, available in enumerate(bound_after):
            if needed <= available:
                slot = index + 1
                break
        if not needed:
            slot = 0
        filters_at[slot].append(condition)
    return filters_at


def result_variables(query: SelectQuery, algebra: AlgebraNode) -> List[str]:
    """The projection variable names of a SELECT, in output order.

    For ``SELECT *`` the variables mentioned in the pattern are
    collected in first-use order from the algebra tree.
    """
    if query.projections is not None:
        return [projection.var.name for projection in query.projections]
    ordered: List[str] = []

    def visit(node: AlgebraNode) -> None:
        if isinstance(node, BGP):
            for pattern in node.patterns:
                for term in pattern:
                    if isinstance(term, Var) and term.name not in ordered:
                        ordered.append(term.name)
        elif isinstance(node, (Join, LeftJoin, Minus)):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, (Filter, Distinct, Reduced, Slice, OrderBy, TopK)):
            visit(node.input)
        elif isinstance(node, Extend):
            visit(node.input)
            if node.var.name not in ordered:
                ordered.append(node.var.name)
        elif isinstance(node, Union):
            for branch in node.branches:
                visit(branch)
        elif isinstance(node, ValuesTable):
            for var in node.variables:
                if var.name not in ordered:
                    ordered.append(var.name)
        elif isinstance(node, Aggregation):
            for projection in node.projections:
                if projection.var.name not in ordered:
                    ordered.append(projection.var.name)
        elif isinstance(node, Project):
            if node.variables is None:
                visit(node.input)
            else:
                for var in node.variables:
                    if var.name not in ordered:
                        ordered.append(var.name)

    visit(algebra)
    return ordered


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

def _tag(factory: OperatorFactory, node: AlgebraNode) -> OperatorFactory:
    """Stamp the source algebra node onto every built operator."""

    def make(runtime: Evaluator) -> PhysicalOperator:
        op = factory(runtime)
        op.algebra = node
        return op

    return make


def _compile_bgp(node: BGP) -> OperatorFactory:
    if not node.patterns:
        guards = tuple(node.filters)
        return _tag(lambda runtime: SingletonOp(runtime, guards=guards), node)
    # Ordering and filter placement are decided here, once; the built
    # scan chain replays them identically on every instantiation.
    if node.preordered:
        ordered = list(node.patterns)
    else:
        ordered = order_patterns(node.patterns)
    filters_at = assign_filter_slots(ordered, node.filters)

    def make(runtime: Evaluator) -> PhysicalOperator:
        op: PhysicalOperator = SingletonOp(runtime)
        op.algebra = node
        for index, pattern in enumerate(ordered):
            # Path predicates get the preemptable traversal operator;
            # plain predicates the flat index scan.  Same join-stage
            # contract (filter slots, stats accounting) either way.
            scan = (
                PathScanOp
                if isinstance(pattern.predicate, PathExpr)
                else PatternScanOp
            )
            op = scan(
                runtime,
                op,
                pattern,
                pre_filters=filters_at[0] if index == 0 else (),
                post_filters=filters_at[index + 1],
            )
            op.algebra = node
        return op

    return make


def _join_keys(node) -> tuple:
    """Hash-join keys: variables certainly bound on both sides."""
    return tuple(
        sorted(certain_variables(node.left) & certain_variables(node.right))
    )


def compile_node(node: AlgebraNode) -> OperatorFactory:
    """Compile one algebra subtree into an operator factory."""
    if isinstance(node, Unit):
        return _tag(lambda runtime: SingletonOp(runtime), node)
    if isinstance(node, BGP):
        return _compile_bgp(node)
    if isinstance(node, Join):
        left = compile_node(node.left)
        right = compile_node(node.right)
        keys = _join_keys(node)
        return _tag(
            lambda runtime: HashJoinOp(
                runtime, left(runtime), right(runtime), keys
            ),
            node,
        )
    if isinstance(node, LeftJoin):
        left = compile_node(node.left)
        right = compile_node(node.right)
        keys = _join_keys(node)
        condition = node.condition
        return _tag(
            lambda runtime: LeftJoinOp(
                runtime, left(runtime), right(runtime), keys, condition
            ),
            node,
        )
    if isinstance(node, Minus):
        left = compile_node(node.left)
        right = compile_node(node.right)
        return _tag(
            lambda runtime: MinusOp(runtime, left(runtime), right(runtime)),
            node,
        )
    if isinstance(node, Filter):
        child = compile_node(node.input)
        condition = node.condition
        return _tag(
            lambda runtime: FilterOp(runtime, child(runtime), condition), node
        )
    if isinstance(node, Union):
        branches = [compile_node(branch) for branch in node.branches]
        return _tag(
            lambda runtime: UnionOp(
                runtime, [branch(runtime) for branch in branches]
            ),
            node,
        )
    if isinstance(node, Extend):
        child = compile_node(node.input)
        var, expression = node.var, node.expression
        return _tag(
            lambda runtime: ExtendOp(runtime, child(runtime), var, expression),
            node,
        )
    if isinstance(node, ValuesTable):
        variables, rows = node.variables, node.rows
        return _tag(lambda runtime: ValuesOp(runtime, variables, rows), node)
    if isinstance(node, Aggregation):
        child = compile_node(node.input)
        keys, projections, having = node.keys, node.projections, node.having
        return _tag(
            lambda runtime: AggregationOp(
                runtime, child(runtime), keys, projections, having
            ),
            node,
        )
    if isinstance(node, Project):
        child = compile_node(node.input)
        variables, extensions = node.variables, node.extensions
        return _tag(
            lambda runtime: ProjectOp(
                runtime, child(runtime), variables, extensions
            ),
            node,
        )
    if isinstance(node, Distinct):
        child = compile_node(node.input)
        return _tag(lambda runtime: DistinctOp(runtime, child(runtime)), node)
    if isinstance(node, Reduced):
        child = compile_node(node.input)
        return _tag(lambda runtime: ReducedOp(runtime, child(runtime)), node)
    if isinstance(node, OrderBy):
        child = compile_node(node.input)
        conditions = node.conditions
        return _tag(
            lambda runtime: OrderByOp(runtime, child(runtime), conditions),
            node,
        )
    if isinstance(node, TopK):
        child = compile_node(node.input)
        conditions, limit, offset = node.conditions, node.limit, node.offset
        return _tag(
            lambda runtime: TopKOp(
                runtime, child(runtime), conditions, limit, offset
            ),
            node,
        )
    if isinstance(node, Slice):
        child = compile_node(node.input)
        offset, limit = node.offset, node.limit
        return _tag(
            lambda runtime: SliceOp(
                runtime, child(runtime), offset=offset, limit=limit
            ),
            node,
        )
    raise SparqlEvalError(f"no physical operator for algebra node: {node!r}")


class PhysicalPlan:
    """One stateful, suspendable execution of a compiled query.

    ``root`` is the physical operator tree; ``runtime`` is the shared
    execution context (an :class:`Evaluator` providing the graph, the
    :class:`EvalStats` counters, and EXISTS support).  The executor
    drives ``root.next(limit)`` and uses :meth:`save`/:meth:`load` to move
    the whole execution across suspension points.
    """

    def __init__(self, factory: "PhysicalPlanFactory", graph: Graph):
        self.factory = factory
        self.runtime = Evaluator(graph)
        self.root = factory.make_root(self.runtime)
        #: True until the executor first drives this plan; a plan
        #: restored from a token continues a query already counted.
        self.fresh = True

    @property
    def variables(self) -> List[str]:
        return self.factory.variables

    @property
    def stats(self):
        return self.runtime.stats

    def save(self) -> dict:
        """The state tree, with the encoded chunks of any finished sort
        beside it under ``"$segments"`` (see ``aggregate._Run``)."""
        segments = self.runtime.segments = []
        state = self.root.save()
        if segments:
            state["$segments"] = segments
        return state

    def load(self, state: dict) -> None:
        segments = state.get("$segments", ()) if isinstance(state, dict) else ()
        self.runtime.segments = list(segments)
        self.root.load(state)
        if any(segment is not None for segment in self.runtime.segments):
            raise PlanStateError("a segment is referenced by no run")
        self.fresh = False

    def operators(self) -> List[PhysicalOperator]:
        return list(self.root.walk())


class PhysicalPlanFactory:
    """The cacheable compilation result for one query text.

    Planning decisions live in the closed-over factories; every call to
    :meth:`instantiate` produces an independent :class:`PhysicalPlan`
    with fresh operator state.  This is what
    :class:`repro.perf.plancache.CachedPlan` stores in its ``physical``
    slot — compiled once, executed many times.
    """

    def __init__(self, query: Query, algebra: AlgebraNode):
        self.query = query
        self.algebra = algebra
        root_node = algebra.input if isinstance(algebra, Ask) else algebra
        inner = compile_node(root_node)
        # The operator tree executes in ID space; mount the single
        # late-materialization boundary at the root so consumers of
        # plan.root.next(limit) receive ordinary term bindings.
        self.make_root = lambda runtime: MaterializeOp(runtime, inner(runtime))
        #: Only a SELECT has a solution sequence to page through; ASK
        #: and CONSTRUCT answer in one piece (a boolean, a graph).
        self.pageable = isinstance(query, SelectQuery)
        self.variables: List[str] = (
            result_variables(query, algebra) if self.pageable else []
        )

    def instantiate(self, graph: Graph) -> PhysicalPlan:
        return PhysicalPlan(self, graph)


def build_physical_plan(
    graph: Graph, query_text: str, optimize: bool = True
) -> PhysicalPlan:
    """Parse, optimize, compile, and instantiate in one step.

    The endpoints' front half (:func:`repro.perf.plancache.build_plan`)
    without its cache: convenience for tests and the CLI.
    """
    from ..perf.plancache import build_plan

    return build_plan(query_text, graph, optimize).physical_factory().instantiate(graph)
