"""A deliberately naive SPARQL evaluator used as a differential-testing
oracle.

Evaluates basic graph patterns by exhaustive scan over all triples with
no indexes, no join ordering, and no hashing; solution modifiers by
materialise-then-transform.  Slow but obviously correct — the engine is
compared against it on random graphs and random queries.

The ``naive_*`` functions cover single shapes; :class:`NaiveEngine`
walks a whole algebra tree the same way (it shares only the expression
evaluator and the property-path kernel with the engine under test), and
:func:`assert_matches_oracle` is the differential check built on it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.rdf import Graph, Term
from repro.sparql.algebra import translate_pattern, translate_query
from repro.sparql.ast import PathExpr, Projection, TriplePatternNode, Var, VarExpr
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import (
    effective_boolean_value,
    evaluate_expression,
    term_order_key,
)
from repro.sparql.parser import parse_query
from repro.sparql.paths import eval_path

Binding = Dict[str, Term]


def _match_triple(pattern: TriplePatternNode, triple, binding: Binding) -> Optional[Binding]:
    out = dict(binding)
    for term, value in zip(pattern, triple):
        if isinstance(term, Var):
            bound = out.get(term.name)
            if bound is None:
                out[term.name] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return out


def naive_bgp(graph: Graph, patterns: Sequence[TriplePatternNode]) -> List[Binding]:
    """All solutions of a BGP by exhaustive enumeration."""
    triples = list(graph.triples())
    solutions: List[Binding] = [{}]
    for pattern in patterns:
        next_solutions: List[Binding] = []
        for binding in solutions:
            for triple in triples:
                extended = _match_triple(pattern, triple, binding)
                if extended is not None:
                    next_solutions.append(extended)
        solutions = next_solutions
    return solutions


def naive_filter(solutions: List[Binding], expression) -> List[Binding]:
    kept = []
    for binding in solutions:
        try:
            if effective_boolean_value(evaluate_expression(expression, binding)):
                kept.append(binding)
        except ExpressionError:
            continue
    return kept


def naive_project(solutions: List[Binding], names: Sequence[str]) -> List[Binding]:
    return [
        {name: binding[name] for name in names if name in binding}
        for binding in solutions
    ]


def naive_distinct(solutions: List[Binding]) -> List[Binding]:
    seen = set()
    out = []
    for binding in solutions:
        key = tuple(sorted(binding.items()))
        if key not in seen:
            seen.add(key)
            out.append(binding)
    return out


def naive_order(solutions: List[Binding], names: Sequence[str]) -> List[Binding]:
    return sorted(
        solutions,
        key=lambda binding: [term_order_key(binding.get(n)) for n in names],
    )


def naive_union(graph: Graph, branches) -> List[Binding]:
    out: List[Binding] = []
    for patterns in branches:
        out.extend(naive_bgp(graph, patterns))
    return out


def naive_optional(
    graph: Graph,
    required: Sequence[TriplePatternNode],
    optional: Sequence[TriplePatternNode],
) -> List[Binding]:
    """LeftJoin of two BGPs, naively."""
    left = naive_bgp(graph, required)
    out: List[Binding] = []
    for binding in left:
        extensions = []
        for candidate in naive_bgp(graph, optional):
            merged = dict(binding)
            compatible = True
            for name, value in candidate.items():
                bound = merged.get(name)
                if bound is None:
                    merged[name] = value
                elif bound != value:
                    compatible = False
                    break
            if compatible:
                extensions.append(merged)
        out.extend(extensions if extensions else [dict(binding)])
    return out


def canonical(solutions: List[Binding]) -> List[tuple]:
    """Order-independent canonical form for comparisons."""
    return sorted(
        tuple(sorted((name, term.n3()) for name, term in binding.items()))
        for binding in solutions
    )


# ----------------------------------------------------------------------
# Whole queries: an algebra walker
# ----------------------------------------------------------------------


def _compatible(left: Binding, right: Binding) -> bool:
    return all(left[name] == right[name] for name in left.keys() & right.keys())


def _bound(row: Dict[str, Optional[Term]]) -> Binding:
    return {name: value for name, value in row.items() if value is not None}


class NaiveEngine:
    """Every algebra operator by its textbook definition over fully
    materialised lists: nested loops, no hashing, no index, no ID space,
    nothing suspendable.  Also the expression context for ``EXISTS``."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.triples = list(graph.triples())

    def eval(self, node) -> List[Binding]:
        return getattr(self, "_" + type(node).__name__.lower())(node)

    def exists(self, pattern, binding: Binding) -> bool:
        solutions = self.eval(translate_pattern(pattern))
        return any(_compatible(binding, candidate) for candidate in solutions)

    def value(self, expression, binding, group=None) -> Optional[Term]:
        """The expression's value, ``None`` for an error (= unbound)."""
        try:
            return evaluate_expression(expression, binding, group, context=self)
        except ExpressionError:
            return None

    def holds(self, expression, binding, group=None) -> bool:
        try:
            return effective_boolean_value(
                evaluate_expression(expression, binding, group, context=self)
            )
        except ExpressionError:
            return False

    def _unit(self, node):
        return [{}]

    def _bgp(self, node):
        solutions: List[Binding] = [{}]
        for pattern in node.patterns:
            solutions = [
                extended
                for binding in solutions
                for triple in self._candidates(pattern, binding)
                if (extended := _match_triple(pattern, triple, binding)) is not None
            ]
        return [b for b in solutions if all(self.holds(c, b) for c in node.filters)]

    def _candidates(self, pattern, binding):
        path = pattern.predicate
        if not isinstance(path, PathExpr):
            return self.triples
        start, end = (
            binding.get(term.name) if isinstance(term, Var) else term
            for term in (pattern.subject, pattern.object)
        )
        return [(s, path, o) for s, o in eval_path(self.graph, start, path, end)]

    def _join(self, node):
        right = self.eval(node.right)
        left = self.eval(node.left)
        return [{**l, **r} for l in left for r in right if _compatible(l, r)]

    def _leftjoin(self, node):
        right = self.eval(node.right)
        out = []
        for left in self.eval(node.left):
            merged = [{**left, **r} for r in right if _compatible(left, r)]
            if node.condition is not None:
                merged = [m for m in merged if self.holds(node.condition, m)]
            out.extend(merged or [left])
        return out

    def _minus(self, node):
        right = self.eval(node.right)

        def excluded(left):
            return any(left.keys() & r.keys() and _compatible(left, r) for r in right)

        return [left for left in self.eval(node.left) if not excluded(left)]

    def _filter(self, node):
        return [b for b in self.eval(node.input) if self.holds(node.condition, b)]

    def _union(self, node):
        return [b for branch in node.branches for b in self.eval(branch)]

    def _extend(self, node):
        name, expression = node.var.name, node.expression
        return [
            _bound({**b, name: self.value(expression, b)}) for b in self.eval(node.input)
        ]

    def _valuestable(self, node):
        names = [var.name for var in node.variables]
        return [_bound(dict(zip(names, row))) for row in node.rows]

    def _aggregation(self, node):
        members = self.eval(node.input)
        groups = {} if node.keys else {(): ({}, members)}
        for member in members if node.keys else ():
            key, named = [], {}
            for spec in node.keys:
                expression = spec.expression if isinstance(spec, Projection) else spec
                key.append(self.value(expression, member))
                if isinstance(spec, (Projection, VarExpr)):
                    named[spec.var.name] = key[-1]
            groups.setdefault(tuple(key), (_bound(named), []))[1].append(member)
        return [
            _bound(
                {
                    p.var.name: named.get(p.var.name)
                    if p.expression is None
                    else self.value(p.expression, named, group)
                    for p in node.projections
                }
            )
            for named, group in groups.values()
            if all(self.holds(having, named, group) for having in node.having)
        ]

    def _project(self, node):
        rows = self.eval(node.input)
        if node.variables is None:
            return rows
        computed = {p.var.name: p.expression for p in node.extensions}
        return [
            _bound(
                {
                    var.name: self.value(computed[var.name], binding)
                    if var.name in computed
                    else binding.get(var.name)
                    for var in node.variables
                }
            )
            for binding in rows
        ]

    def _distinct(self, node):
        return naive_distinct(self.eval(node.input))

    def _orderby(self, node):
        rows = self.eval(node.input)
        for condition in reversed(node.conditions):  # least significant key first
            rows = sorted(
                rows,
                key=lambda b: term_order_key(self.value(condition.expression, b)),
                reverse=condition.descending,
            )
        return rows

    def _slice(self, node):
        rows = self.eval(node.input)[node.offset :]
        return rows if node.limit is None else rows[: node.limit]


def assert_matches_oracle(graph: Graph, text: str, rows: List[Binding]) -> None:
    """Check the engine's ``rows`` for SELECT ``text`` against the oracle.

    Without LIMIT/OFFSET: the same multiset.  With them — they cut an
    order the query need not fix — the right number of rows, all drawn
    from the un-sliced answer.  Under ORDER BY, additionally the same
    sequence of sort keys (rows tied on every key may swap).
    """
    query = parse_query(text)
    oracle = NaiveEngine(graph)
    full = oracle.eval(translate_query(replace(query, limit=None, offset=0)))
    end = None if query.limit is None else query.offset + query.limit
    expected = full[query.offset : end]
    assert len(rows) == len(expected), text
    assert not Counter(canonical(rows)) - Counter(canonical(full)), text

    def keys(row):
        return [term_order_key(oracle.value(c.expression, row)) for c in query.order_by]

    assert [keys(row) for row in rows] == [keys(row) for row in expected], text
