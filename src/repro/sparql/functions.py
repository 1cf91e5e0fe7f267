"""SPARQL expression evaluation: operators, builtins, and aggregates.

Implements the SPARQL 1.1 operator semantics needed by the engine:
effective boolean value, numeric type promotion, RDF term equality and
ordering, and the common string/term builtins.  Expression errors raise
:class:`repro.sparql.errors.ExpressionError` which callers treat per the
spec (FILTER -> false, aggregates -> skip).
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, Optional, Sequence, Union
from urllib.parse import quote

from ..rdf.terms import (
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    BNode,
    Literal,
    Term,
    URI,
)
from .ast import (
    AggregateExpr,
    ExistsExpr,
    BinaryExpr,
    Expression,
    FunctionCall,
    InExpr,
    TermExpr,
    UnaryExpr,
    VarExpr,
)
from .errors import ExpressionError

__all__ = [
    "Binding",
    "evaluate_expression",
    "effective_boolean_value",
    "term_order_key",
    "evaluate_aggregate",
]

#: A solution mapping: variable name -> bound term.
Binding = Dict[str, Term]

_TRUE = Literal("true", datatype=XSD_BOOLEAN)
_FALSE = Literal("false", datatype=XSD_BOOLEAN)


def _bool_literal(value: bool) -> Literal:
    return _TRUE if value else _FALSE


def _numeric_value(term: Term) -> Union[int, float]:
    if isinstance(term, Literal) and term.is_numeric:
        try:
            if term.datatype == XSD_INTEGER or (
                term.datatype and term.datatype.endswith(
                    ("integer", "long", "int", "short", "byte")
                )
            ):
                return int(term.lexical)
            return float(term.lexical)
        except ValueError as exc:
            raise ExpressionError(f"bad numeric lexical: {term.lexical!r}") from exc
    raise ExpressionError(f"not a numeric literal: {term!r}")


def _numeric_literal(value: Union[int, float]) -> Literal:
    if isinstance(value, bool):
        return _bool_literal(value)
    if isinstance(value, int):
        return Literal(str(value), datatype=XSD_INTEGER)
    # xsd:double spells these NaN / INF / -INF, not repr's nan / inf.
    if math.isnan(value):
        return Literal("NaN", datatype=XSD_DOUBLE)
    if math.isinf(value):
        return Literal("INF" if value > 0 else "-INF", datatype=XSD_DOUBLE)
    return Literal(repr(value), datatype=XSD_DOUBLE)


def _string_value(term: Term) -> str:
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, URI):
        return term.value
    raise ExpressionError(f"not a string-valued term: {term!r}")


def _plain_string(term: Term) -> Literal:
    if not isinstance(term, Literal) or (
        term.datatype not in (None, XSD_STRING) and term.language is None
    ):
        if isinstance(term, Literal) and term.language is not None:
            return term
        raise ExpressionError(f"expected a string literal: {term!r}")
    return term


def effective_boolean_value(term: Term) -> bool:
    """SPARQL effective boolean value (EBV) of a term."""
    if isinstance(term, Literal):
        if term.datatype == XSD_BOOLEAN:
            return term.lexical in ("true", "1")
        if term.is_numeric:
            try:
                return _numeric_value(term) != 0
            except ExpressionError:
                return False
        if term.datatype in (None, XSD_STRING) or term.language is not None:
            return len(term.lexical) > 0
    raise ExpressionError(f"no effective boolean value for {term!r}")


def _terms_equal(left: Term, right: Term) -> bool:
    """SPARQL ``=``: value equality for numerics, term equality otherwise."""
    if (
        isinstance(left, Literal)
        and isinstance(right, Literal)
        and left.is_numeric
        and right.is_numeric
    ):
        return _numeric_value(left) == _numeric_value(right)
    if left == right:
        return True
    if isinstance(left, Literal) and isinstance(right, Literal):
        # Unknown datatypes with identical form already matched above;
        # distinct unknown datatypes are an error per spec.
        known = (None, XSD_STRING, XSD_BOOLEAN)
        left_known = left.datatype in known or left.language or left.is_numeric
        right_known = right.datatype in known or right.language or right.is_numeric
        if not (left_known and right_known):
            raise ExpressionError("incomparable literals")
    return False


def _compare(left: Term, right: Term) -> int:
    """Three-way comparison for ``< > <= >=``; errors when incomparable."""
    if isinstance(left, Literal) and isinstance(right, Literal):
        if left.is_numeric and right.is_numeric:
            lv, rv = _numeric_value(left), _numeric_value(right)
            return (lv > rv) - (lv < rv)
        left_str = left.datatype in (None, XSD_STRING) or left.language
        right_str = right.datatype in (None, XSD_STRING) or right.language
        if left_str and right_str:
            return (left.lexical > right.lexical) - (left.lexical < right.lexical)
        if left.datatype == XSD_BOOLEAN and right.datatype == XSD_BOOLEAN:
            lv2, rv2 = left.lexical == "true", right.lexical == "true"
            return (lv2 > rv2) - (lv2 < rv2)
        if left.datatype == right.datatype:
            return (left.lexical > right.lexical) - (left.lexical < right.lexical)
    raise ExpressionError(f"incomparable terms: {left!r} vs {right!r}")


def term_order_key(term: Optional[Term]):
    """Total order key for ORDER BY: unbound < bnode < URI < literal,
    numerics compared by value within literals."""
    if term is None:
        return (0, "", 0.0, "")
    if isinstance(term, BNode):
        return (1, term.id, 0.0, "")
    if isinstance(term, URI):
        return (2, term.value, 0.0, "")
    assert isinstance(term, Literal)
    if term.is_numeric:
        try:
            return (3, "", float(_numeric_value(term)), term.lexical)
        except ExpressionError:
            pass
    return (4, term.lexical, 0.0, term.datatype or term.language or "")


def extreme_order_key(term: Term):
    """The key MIN / MAX rank by: :func:`term_order_key`, with value
    ties (``"0.25"^^xsd:decimal`` vs ``"0.25"^^xsd:double``) broken by
    the term's own ``sort_key()`` — so the extreme of a group does not
    depend on the order its members were scanned or merged in."""
    return (term_order_key(term), term.sort_key())


# ----------------------------------------------------------------------
# Builtins
# ----------------------------------------------------------------------


def _fn_str(args: Sequence[Term]) -> Term:
    term = args[0]
    if isinstance(term, URI):
        return Literal(term.value)
    if isinstance(term, Literal):
        return Literal(term.lexical)
    raise ExpressionError("STR of blank node")


def _fn_lang(args: Sequence[Term]) -> Term:
    term = args[0]
    if isinstance(term, Literal):
        return Literal(term.language or "")
    raise ExpressionError("LANG of non-literal")


def _fn_langmatches(args: Sequence[Term]) -> Term:
    tag = _string_value(args[0]).lower()
    pattern = _string_value(args[1]).lower()
    if pattern == "*":
        return _bool_literal(bool(tag))
    return _bool_literal(tag == pattern or tag.startswith(pattern + "-"))


def _fn_datatype(args: Sequence[Term]) -> Term:
    term = args[0]
    if isinstance(term, Literal):
        if term.language:
            return URI("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString")
        return URI(term.datatype or XSD_STRING)
    raise ExpressionError("DATATYPE of non-literal")


def _fn_iri(args: Sequence[Term]) -> Term:
    term = args[0]
    if isinstance(term, URI):
        return term
    if isinstance(term, Literal):
        return URI(term.lexical)
    raise ExpressionError("IRI of blank node")


def _fn_bnode(args: Sequence[Term]) -> Term:
    if args:
        return BNode(_string_value(args[0]))
    return BNode()


def _fn_abs(args: Sequence[Term]) -> Term:
    return _numeric_literal(abs(_numeric_value(args[0])))


def _rounding(rounding: Callable[[float], float]):
    def function(args: Sequence[Term]) -> Term:
        value = _numeric_value(args[0])
        # NaN and the infinities round to themselves (int() would raise).
        return _numeric_literal(
            int(rounding(value)) if math.isfinite(value) else value
        )

    return function


_fn_ceil = _rounding(math.ceil)
_fn_floor = _rounding(math.floor)
_fn_round = _rounding(lambda value: math.floor(value + 0.5))


def _fn_concat(args: Sequence[Term]) -> Term:
    return Literal("".join(_string_value(arg) for arg in args))


def _fn_substr(args: Sequence[Term]) -> Term:
    source = _plain_string(args[0])
    start = int(_numeric_value(args[1]))
    if len(args) == 3:
        length = int(_numeric_value(args[2]))
        text = source.lexical[start - 1 : start - 1 + length]
    else:
        text = source.lexical[start - 1 :]
    if source.language:
        return Literal(text, language=source.language)
    return Literal(text)


def _fn_strlen(args: Sequence[Term]) -> Term:
    return _numeric_literal(len(_string_value(args[0])))


def _fn_replace(args: Sequence[Term]) -> Term:
    source = _plain_string(args[0])
    pattern = _string_value(args[1])
    replacement = _string_value(args[2])
    flags = _regex_flags(_string_value(args[3])) if len(args) == 4 else 0
    try:
        text = re.sub(pattern, replacement, source.lexical, flags=flags)
    except re.error as exc:
        raise ExpressionError(f"bad regex: {exc}") from exc
    if source.language:
        return Literal(text, language=source.language)
    return Literal(text)


def _fn_ucase(args: Sequence[Term]) -> Term:
    source = _plain_string(args[0])
    if source.language:
        return Literal(source.lexical.upper(), language=source.language)
    return Literal(source.lexical.upper())


def _fn_lcase(args: Sequence[Term]) -> Term:
    source = _plain_string(args[0])
    if source.language:
        return Literal(source.lexical.lower(), language=source.language)
    return Literal(source.lexical.lower())


def _fn_contains(args: Sequence[Term]) -> Term:
    return _bool_literal(_string_value(args[1]) in _string_value(args[0]))


def _fn_strstarts(args: Sequence[Term]) -> Term:
    return _bool_literal(_string_value(args[0]).startswith(_string_value(args[1])))


def _fn_strends(args: Sequence[Term]) -> Term:
    return _bool_literal(_string_value(args[0]).endswith(_string_value(args[1])))


def _fn_strbefore(args: Sequence[Term]) -> Term:
    haystack, needle = _string_value(args[0]), _string_value(args[1])
    index = haystack.find(needle)
    return Literal(haystack[:index] if index >= 0 else "")


def _fn_strafter(args: Sequence[Term]) -> Term:
    haystack, needle = _string_value(args[0]), _string_value(args[1])
    index = haystack.find(needle)
    return Literal(haystack[index + len(needle) :] if index >= 0 else "")


def _fn_encode_for_uri(args: Sequence[Term]) -> Term:
    return Literal(quote(_string_value(args[0]), safe=""))


def _fn_sameterm(args: Sequence[Term]) -> Term:
    return _bool_literal(args[0] == args[1])


def _fn_isiri(args: Sequence[Term]) -> Term:
    return _bool_literal(isinstance(args[0], URI))


def _fn_isblank(args: Sequence[Term]) -> Term:
    return _bool_literal(isinstance(args[0], BNode))


def _fn_isliteral(args: Sequence[Term]) -> Term:
    return _bool_literal(isinstance(args[0], Literal))


def _fn_isnumeric(args: Sequence[Term]) -> Term:
    term = args[0]
    return _bool_literal(isinstance(term, Literal) and term.is_numeric)


def _regex_flags(flag_text: str) -> int:
    flags = 0
    for char in flag_text:
        if char == "i":
            flags |= re.IGNORECASE
        elif char == "s":
            flags |= re.DOTALL
        elif char == "m":
            flags |= re.MULTILINE
        elif char == "x":
            flags |= re.VERBOSE
        else:
            raise ExpressionError(f"unknown regex flag: {char!r}")
    return flags


def _fn_regex(args: Sequence[Term]) -> Term:
    text = _string_value(args[0])
    pattern = _string_value(args[1])
    flags = _regex_flags(_string_value(args[2])) if len(args) == 3 else 0
    try:
        return _bool_literal(re.search(pattern, text, flags=flags) is not None)
    except re.error as exc:
        raise ExpressionError(f"bad regex: {exc}") from exc


_BUILTINS: Dict[str, Callable[[Sequence[Term]], Term]] = {
    "STR": _fn_str,
    "LANG": _fn_lang,
    "LANGMATCHES": _fn_langmatches,
    "DATATYPE": _fn_datatype,
    "IRI": _fn_iri,
    "BNODE": _fn_bnode,
    "ABS": _fn_abs,
    "CEIL": _fn_ceil,
    "FLOOR": _fn_floor,
    "ROUND": _fn_round,
    "CONCAT": _fn_concat,
    "SUBSTR": _fn_substr,
    "STRLEN": _fn_strlen,
    "REPLACE": _fn_replace,
    "UCASE": _fn_ucase,
    "LCASE": _fn_lcase,
    "CONTAINS": _fn_contains,
    "STRSTARTS": _fn_strstarts,
    "STRENDS": _fn_strends,
    "STRBEFORE": _fn_strbefore,
    "STRAFTER": _fn_strafter,
    "ENCODE_FOR_URI": _fn_encode_for_uri,
    "SAMETERM": _fn_sameterm,
    "ISIRI": _fn_isiri,
    "ISBLANK": _fn_isblank,
    "ISLITERAL": _fn_isliteral,
    "ISNUMERIC": _fn_isnumeric,
    "REGEX": _fn_regex,
}


# ----------------------------------------------------------------------
# Expression evaluation
# ----------------------------------------------------------------------


def evaluate_expression(
    expression: Expression,
    binding: Binding,
    group: Optional[List[Binding]] = None,
    context: Optional[object] = None,
) -> Term:
    """Evaluate ``expression`` against ``binding``.

    ``group`` supplies the member solutions when the expression contains
    aggregates (grouped queries).  ``context`` is the execution context
    hosting EXISTS pattern checks (anything with an
    ``exists(pattern, binding)`` method).  Raises :class:`ExpressionError` on evaluation errors
    (unbound variable, type error, ...).
    """
    if isinstance(expression, VarExpr):
        value = binding.get(expression.var.name)
        if value is None:
            raise ExpressionError(f"unbound variable: ?{expression.var.name}")
        return value
    if isinstance(expression, TermExpr):
        return expression.term
    if isinstance(expression, UnaryExpr):
        return _evaluate_unary(expression, binding, group, context)
    if isinstance(expression, BinaryExpr):
        return _evaluate_binary(expression, binding, group, context)
    if isinstance(expression, InExpr):
        return _evaluate_in(expression, binding, group, context)
    if isinstance(expression, FunctionCall):
        return _evaluate_call(expression, binding, group, context)
    if isinstance(expression, AggregateExpr):
        if group is None:
            raise ExpressionError("aggregate outside a grouped query")
        return evaluate_aggregate(expression, group)
    if isinstance(expression, ExistsExpr):
        if context is None or not hasattr(context, "exists"):
            raise ExpressionError("EXISTS requires an evaluation context")
        matched = bool(context.exists(expression.pattern, binding))
        return _bool_literal(matched != expression.negated)
    raise ExpressionError(f"unknown expression node: {expression!r}")


def _evaluate_unary(
    expression: UnaryExpr,
    binding: Binding,
    group: Optional[List[Binding]],
    context: Optional[object] = None,
) -> Term:
    if expression.op == "!":
        value = effective_boolean_value(
            evaluate_expression(expression.operand, binding, group, context)
        )
        return _bool_literal(not value)
    operand = _numeric_value(evaluate_expression(expression.operand, binding, group, context))
    if expression.op == "-":
        return _numeric_literal(-operand)
    return _numeric_literal(operand)


def _evaluate_binary(
    expression: BinaryExpr,
    binding: Binding,
    group: Optional[List[Binding]],
    context: Optional[object] = None,
) -> Term:
    op = expression.op
    if op == "||":
        # SPARQL logical-or error handling: error || true = true.
        left_error: Optional[ExpressionError] = None
        try:
            if effective_boolean_value(
                evaluate_expression(expression.left, binding, group, context)
            ):
                return _TRUE
        except ExpressionError as exc:
            left_error = exc
        right = effective_boolean_value(
            evaluate_expression(expression.right, binding, group, context)
        )
        if right:
            return _TRUE
        if left_error is not None:
            raise left_error
        return _FALSE
    if op == "&&":
        left_error = None
        try:
            if not effective_boolean_value(
                evaluate_expression(expression.left, binding, group, context)
            ):
                return _FALSE
        except ExpressionError as exc:
            left_error = exc
        right = effective_boolean_value(
            evaluate_expression(expression.right, binding, group, context)
        )
        if not right:
            return _FALSE
        if left_error is not None:
            raise left_error
        return _TRUE
    left = evaluate_expression(expression.left, binding, group, context)
    right = evaluate_expression(expression.right, binding, group, context)
    if op == "=":
        return _bool_literal(_terms_equal(left, right))
    if op == "!=":
        return _bool_literal(not _terms_equal(left, right))
    if op in ("<", ">", "<=", ">="):
        cmp = _compare(left, right)
        result = {
            "<": cmp < 0,
            ">": cmp > 0,
            "<=": cmp <= 0,
            ">=": cmp >= 0,
        }[op]
        return _bool_literal(result)
    left_num = _numeric_value(left)
    right_num = _numeric_value(right)
    if op == "+":
        return _numeric_literal(left_num + right_num)
    if op == "-":
        return _numeric_literal(left_num - right_num)
    if op == "*":
        return _numeric_literal(left_num * right_num)
    if op == "/":
        if right_num == 0:
            raise ExpressionError("division by zero")
        value = left_num / right_num
        if isinstance(left_num, int) and isinstance(right_num, int) and left_num % right_num == 0:
            return _numeric_literal(left_num // right_num)
        return _numeric_literal(value)
    raise ExpressionError(f"unknown operator: {op}")


def _evaluate_in(
    expression: InExpr,
    binding: Binding,
    group: Optional[List[Binding]],
    context: Optional[object] = None,
) -> Term:
    operand = evaluate_expression(expression.operand, binding, group, context)
    found = False
    error: Optional[ExpressionError] = None
    for choice in expression.choices:
        try:
            if _terms_equal(operand, evaluate_expression(choice, binding, group, context)):
                found = True
                break
        except ExpressionError as exc:
            error = exc
    if not found and error is not None:
        raise error
    return _bool_literal(found != expression.negated)


def _evaluate_call(
    expression: FunctionCall,
    binding: Binding,
    group: Optional[List[Binding]],
    context: Optional[object] = None,
) -> Term:
    name = expression.name
    if name == "BOUND":
        arg = expression.args[0]
        if not isinstance(arg, VarExpr):
            raise ExpressionError("BOUND expects a variable")
        return _bool_literal(arg.var.name in binding)
    if name == "IF":
        condition = effective_boolean_value(
            evaluate_expression(expression.args[0], binding, group, context)
        )
        chosen = expression.args[1] if condition else expression.args[2]
        return evaluate_expression(chosen, binding, group, context)
    if name == "COALESCE":
        for arg in expression.args:
            try:
                return evaluate_expression(arg, binding, group, context)
            except ExpressionError:
                continue
        raise ExpressionError("all COALESCE branches errored")
    function = _BUILTINS.get(name)
    if function is None:
        raise ExpressionError(f"unknown function: {name}")
    args = [evaluate_expression(arg, binding, group, context) for arg in expression.args]
    return function(args)


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------


def evaluate_aggregate(aggregate: AggregateExpr, group: List[Binding]) -> Term:
    """Evaluate an aggregate over the member solutions of one group."""
    name = aggregate.name
    if name == "COUNT" and aggregate.argument is None:
        if aggregate.distinct:
            distinct_rows = {
                tuple(sorted((k, v) for k, v in member.items()))
                for member in group
            }
            return _numeric_literal(len(distinct_rows))
        return _numeric_literal(len(group))
    values: List[Term] = []
    for member in group:
        try:
            values.append(
                evaluate_expression(aggregate.argument, member)  # type: ignore[arg-type]
            )
        except ExpressionError:
            continue
    if aggregate.distinct:
        seen: set = set()
        deduped: List[Term] = []
        for value in values:
            if value not in seen:
                seen.add(value)
                deduped.append(value)
        values = deduped
    if name == "COUNT":
        return _numeric_literal(len(values))
    if name == "SAMPLE":
        if not values:
            raise ExpressionError("SAMPLE of empty group")
        return values[0]
    if name == "GROUP_CONCAT":
        return Literal(aggregate.separator.join(_string_value(v) for v in values))
    if not values:
        if name == "SUM":
            return _numeric_literal(0)
        raise ExpressionError(f"{name} of empty group")
    if name in ("MIN", "MAX"):
        return (min if name == "MIN" else max)(values, key=extreme_order_key)
    numbers = [_numeric_value(v) for v in values]
    if name == "SUM":
        total = sum(numbers)
        return _numeric_literal(total)
    if name == "AVG":
        return _numeric_literal(sum(numbers) / len(numbers))
    raise ExpressionError(f"unknown aggregate: {name}")
