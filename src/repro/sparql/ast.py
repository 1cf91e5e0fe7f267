"""Abstract syntax tree for the supported SPARQL subset.

The parser produces these nodes; :mod:`repro.sparql.algebra` lowers them
to algebra operators.  Expression nodes double as the runtime expression
representation (:mod:`repro.sparql.functions` walks them directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..rdf.terms import BNode, Literal, URI

__all__ = [
    "Var",
    "TermOrVar",
    "PathExpr",
    "InversePath",
    "SequencePath",
    "AlternativePath",
    "RepeatPath",
    "PredicateOrPath",
    "ExistsExpr",
    "TriplePatternNode",
    "GroupGraphPattern",
    "OptionalPattern",
    "UnionPattern",
    "MinusPattern",
    "FilterPattern",
    "BindPattern",
    "ValuesPattern",
    "SubSelectPattern",
    "PatternNode",
    "Expression",
    "VarExpr",
    "TermExpr",
    "BinaryExpr",
    "UnaryExpr",
    "FunctionCall",
    "AggregateExpr",
    "InExpr",
    "SelectQuery",
    "AskQuery",
    "ConstructQuery",
    "Query",
    "Projection",
    "OrderCondition",
]


@dataclass(frozen=True)
class Var:
    """A query variable, e.g. ``?s``."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


TermOrVar = Union[Var, URI, BNode, Literal]


# ----------------------------------------------------------------------
# Property paths (SPARQL 1.1)
# ----------------------------------------------------------------------


class PathExpr:
    """Marker base class for property-path expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class InversePath(PathExpr):
    """``^path`` — follow edges backwards."""

    inner: Union[URI, "PathExpr"]

    def __str__(self) -> str:
        return f"^{_path_str(self.inner)}"


@dataclass(frozen=True)
class SequencePath(PathExpr):
    """``p1/p2/...`` — path composition."""

    steps: Tuple[Union[URI, "PathExpr"], ...]

    def __str__(self) -> str:
        return "/".join(_path_str(step) for step in self.steps)


@dataclass(frozen=True)
class AlternativePath(PathExpr):
    """``p1|p2|...`` — union of paths."""

    choices: Tuple[Union[URI, "PathExpr"], ...]

    def __str__(self) -> str:
        return "(" + "|".join(_path_str(c) for c in self.choices) + ")"


@dataclass(frozen=True)
class RepeatPath(PathExpr):
    """``path*`` (min_hops=0), ``path+`` (1), or ``path?`` (0, capped 1)."""

    inner: Union[URI, "PathExpr"]
    min_hops: int = 0
    max_one: bool = False  # True for '?'

    def __str__(self) -> str:
        suffix = "?" if self.max_one else ("+" if self.min_hops else "*")
        return f"{_path_str(self.inner)}{suffix}"


def _path_str(node: Union[URI, PathExpr]) -> str:
    if isinstance(node, URI):
        return node.n3()
    return str(node)


#: What may appear in the predicate position of a triple pattern.
PredicateOrPath = Union[Var, URI, PathExpr]


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


class Expression:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class VarExpr(Expression):
    var: Var

    def __str__(self) -> str:
        return str(self.var)


@dataclass(frozen=True)
class TermExpr(Expression):
    term: Union[URI, Literal]

    def __str__(self) -> str:
        return self.term.n3()


@dataclass(frozen=True)
class BinaryExpr(Expression):
    op: str  # one of || && = != < > <= >= + - * /
    left: Expression
    right: Expression

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryExpr(Expression):
    op: str  # one of ! + -
    operand: Expression

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str  # canonical upper-case builtin name
    args: Tuple[Expression, ...]

    def __str__(self) -> str:
        args = ", ".join(str(arg) for arg in self.args)
        return f"{self.name}({args})"


@dataclass(frozen=True)
class AggregateExpr(Expression):
    name: str  # COUNT SUM AVG MIN MAX SAMPLE GROUP_CONCAT
    argument: Optional[Expression]  # None means COUNT(*)
    distinct: bool = False
    separator: str = " "

    def __str__(self) -> str:
        inner = "*" if self.argument is None else str(self.argument)
        distinct = "DISTINCT " if self.distinct else ""
        return f"{self.name}({distinct}{inner})"


@dataclass
class ExistsExpr(Expression):
    """``EXISTS { ... }`` / ``NOT EXISTS { ... }`` filter expressions.

    Mutable dataclass (the pattern is a mutable group) but never mutated
    after parsing.
    """

    pattern: "GroupGraphPattern"
    negated: bool = False

    def __str__(self) -> str:
        keyword = "NOT EXISTS" if self.negated else "EXISTS"
        return f"{keyword} {self.pattern}"

    def __hash__(self) -> int:  # allow use inside frozen parents
        return id(self)


@dataclass(frozen=True)
class InExpr(Expression):
    """``expr IN (…)`` / ``expr NOT IN (…)``."""

    operand: Expression
    choices: Tuple[Expression, ...]
    negated: bool = False

    def __str__(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        choices = ", ".join(str(choice) for choice in self.choices)
        return f"({self.operand} {keyword} ({choices}))"


# ----------------------------------------------------------------------
# Graph patterns
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TriplePatternNode:
    subject: TermOrVar
    predicate: PredicateOrPath
    object: TermOrVar

    def __iter__(self):
        return iter((self.subject, self.predicate, self.object))

    def variables(self) -> set:
        return {t.name for t in (self.subject, self.predicate, self.object) if isinstance(t, Var)}

    def __str__(self) -> str:
        def show(term) -> str:
            if isinstance(term, (Var, PathExpr)):
                return str(term)
            return term.n3()

        return f"{show(self.subject)} {show(self.predicate)} {show(self.object)} ."


@dataclass
class GroupGraphPattern:
    """A ``{ ... }`` group: ordered child patterns."""

    children: List["PatternNode"] = field(default_factory=list)

    def __str__(self) -> str:
        inner = " ".join(str(child) for child in self.children)
        return f"{{ {inner} }}"


@dataclass
class OptionalPattern:
    pattern: GroupGraphPattern

    def __str__(self) -> str:
        return f"OPTIONAL {self.pattern}"


@dataclass
class UnionPattern:
    alternatives: List[GroupGraphPattern]

    def __str__(self) -> str:
        return " UNION ".join(str(alt) for alt in self.alternatives)


@dataclass
class MinusPattern:
    pattern: GroupGraphPattern

    def __str__(self) -> str:
        return f"MINUS {self.pattern}"


@dataclass
class FilterPattern:
    expression: Expression

    def __str__(self) -> str:
        return f"FILTER({self.expression})"


@dataclass
class BindPattern:
    expression: Expression
    var: Var

    def __str__(self) -> str:
        return f"BIND({self.expression} AS {self.var})"


@dataclass
class ValuesPattern:
    variables: List[Var]
    rows: List[Tuple[Optional[Union[URI, Literal]], ...]]

    def __str__(self) -> str:
        vars_text = " ".join(str(v) for v in self.variables)
        return f"VALUES ({vars_text}) {{ ... }}"


@dataclass
class SubSelectPattern:
    query: "SelectQuery"

    def __str__(self) -> str:
        return f"{{ {self.query} }}"


PatternNode = Union[
    TriplePatternNode,
    GroupGraphPattern,
    OptionalPattern,
    UnionPattern,
    MinusPattern,
    FilterPattern,
    BindPattern,
    ValuesPattern,
    SubSelectPattern,
]


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    """One SELECT item: a plain variable or ``(expr AS ?var)``."""

    var: Var
    expression: Optional[Expression] = None

    def __str__(self) -> str:
        if self.expression is None:
            return str(self.var)
        return f"({self.expression} AS {self.var})"


@dataclass(frozen=True)
class OrderCondition:
    expression: Expression
    descending: bool = False

    def __str__(self) -> str:
        keyword = "DESC" if self.descending else "ASC"
        return f"{keyword}({self.expression})"


@dataclass
class SelectQuery:
    projections: Optional[List[Projection]]  # None means SELECT *
    where: GroupGraphPattern
    distinct: bool = False
    reduced: bool = False
    group_by: List[Union[Expression, Projection]] = field(default_factory=list)
    having: List[Expression] = field(default_factory=list)
    order_by: List[OrderCondition] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0

    def __str__(self) -> str:
        head = "SELECT "
        if self.distinct:
            head += "DISTINCT "
        if self.projections is None:
            head += "*"
        else:
            head += " ".join(str(p) for p in self.projections)
        parts = [head, f"WHERE {self.where}"]
        if self.group_by:
            parts.append(
                "GROUP BY " + " ".join(str(g) for g in self.group_by)
            )
        if self.having:
            parts.append("HAVING " + " ".join(f"({h})" for h in self.having))
        if self.order_by:
            parts.append("ORDER BY " + " ".join(str(o) for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)


@dataclass
class AskQuery:
    where: GroupGraphPattern

    def __str__(self) -> str:
        return f"ASK {self.where}"


@dataclass
class ConstructQuery:
    """``CONSTRUCT { template } WHERE { ... }``.

    The template is a list of triple patterns instantiated once per
    solution; blank nodes in the template are freshened per solution.
    """

    template: List[TriplePatternNode]
    where: GroupGraphPattern
    limit: Optional[int] = None
    offset: int = 0

    def __str__(self) -> str:
        template = " ".join(str(t) for t in self.template)
        parts = [f"CONSTRUCT {{ {template} }} WHERE {self.where}"]
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)


Query = Union[SelectQuery, AskQuery, ConstructQuery]
