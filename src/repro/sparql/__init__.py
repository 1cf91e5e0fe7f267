"""A from-scratch SPARQL 1.1 SELECT/ASK engine over :mod:`repro.rdf`.

Pipeline: :func:`tokenize` -> :func:`parse_query` -> algebra translation
(:func:`translate_query`) -> optimization -> physical planning
(:mod:`.planner`) -> suspendable ID-space operators (:mod:`.physical`)
driven by the executor; :func:`evaluate` is all of it in one call.
The engine substitutes for the Virtuoso SPARQL endpoints the paper runs
against; it executes every query shape eLinda generates, including the
nested GROUP BY aggregate query of Section 4.
"""

from .ast import AskQuery, Query, SelectQuery, Var
from .errors import ExpressionError, SparqlError, SparqlEvalError, SparqlSyntaxError
from .evaluator import EvalStats, Evaluator, evaluate
from .lexer import Token, TokenType, tokenize
from .parser import parse_query
from .algebra import translate_query
from .results import AskResult, GraphResult, SelectResult, results_from_json, results_to_json
from .physical import PhysicalOperator, PlanStateError
from .planner import PhysicalPlan, PhysicalPlanFactory, build_physical_plan
from .executor import (
    ExpiredTokenError,
    InvalidBudgetError,
    MalformedTokenError,
    Page,
    RoundRobinScheduler,
    TokenVersionError,
    decode_continuation,
    encode_continuation,
    restore_plan,
    run_quantum,
    run_to_completion,
)

__all__ = [
    "tokenize",
    "Token",
    "TokenType",
    "parse_query",
    "translate_query",
    "Query",
    "SelectQuery",
    "AskQuery",
    "Var",
    "Evaluator",
    "EvalStats",
    "evaluate",
    "SelectResult",
    "AskResult",
    "GraphResult",
    "results_to_json",
    "results_from_json",
    "SparqlError",
    "SparqlSyntaxError",
    "SparqlEvalError",
    "ExpressionError",
    "PhysicalOperator",
    "PlanStateError",
    "PhysicalPlan",
    "PhysicalPlanFactory",
    "build_physical_plan",
    "Page",
    "RoundRobinScheduler",
    "MalformedTokenError",
    "TokenVersionError",
    "ExpiredTokenError",
    "InvalidBudgetError",
    "encode_continuation",
    "decode_continuation",
    "restore_plan",
    "run_quantum",
    "run_to_completion",
]
