"""The execution context of the SPARQL engine, and its uncached entry.

There is one engine: algebra trees compile
(:mod:`repro.sparql.planner`) into suspendable ID-space operator trees
(:mod:`repro.sparql.physical`) that the executor
(:mod:`repro.sparql.executor`) drives — to completion when no budget is
given, a quantum at a time otherwise.  This module holds what every such
execution shares:

* :class:`EvalStats` — the work counters every operator counts into,
  which the simulated endpoint's cost model
  (:mod:`repro.endpoint.cost`) converts into simulated latency.  This
  is how the reproduction makes the paper's "heavy queries" (Section 4,
  Fig. 4) measurably heavy without a billion-triple store.
* :class:`Evaluator` — the per-execution context a
  :class:`~repro.sparql.planner.PhysicalPlan` hangs off its operators
  (graph, term dictionary, stats, ``EXISTS`` support), which doubles as
  the "compile and run to completion" entry behind :func:`evaluate` for
  callers that hold no plan cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..rdf.graph import Graph
from .algebra import AlgebraNode, translate_pattern, translate_query
from .ast import Query
from .functions import Binding
from .parser import parse_query

__all__ = ["EvalStats", "Evaluator", "evaluate"]


@dataclass
class EvalStats:
    """Work counters collected during evaluation.

    ``intermediate_bindings`` is the total number of solution mappings
    produced by all operators — the proxy for the "hundreds of millions of
    tuples as an intermediate result" the paper attributes to the heavy
    property-expansion query (Section 4).
    """

    intermediate_bindings: int = 0
    pattern_scans: int = 0
    results: int = 0
    groups: int = 0

    def merge(self, other: "EvalStats") -> None:
        self.intermediate_bindings += other.intermediate_bindings
        self.pattern_scans += other.pattern_scans
        self.results += other.results
        self.groups += other.groups


class Evaluator:
    """One execution's shared context over one :class:`Graph`.

    Operators read ``graph``, encode/decode through ``dictionary``,
    count into ``stats``, and pass the instance as the expression
    ``context`` so ``EXISTS { ... }`` reaches :meth:`exists`.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.dictionary = getattr(graph, "dictionary", None)
        self.stats = EvalStats()
        #: EXISTS group pattern (by identity) -> compiled operator
        #: factory.  Lives as long as the execution, never serialised:
        #: a resumed plan recompiles on first use.
        self._exists_plans: Dict[int, object] = {}
        #: Where ``PhysicalPlan.save`` / ``load`` keep the encoded chunks
        #: of finished sorts while the operators save or claim them.
        self.segments: list = []

    # The planner and executor import this module for the context class
    # and the counters, so the entry points below import them lazily.

    def run(self, query: Query):
        """Evaluate a parsed query; returns a SelectResult, AskResult,
        or GraphResult (CONSTRUCT)."""
        return self.run_translated(query, translate_query(query))

    def run_translated(self, query: Query, algebra: AlgebraNode):
        """Compile ``algebra`` and run it to completion, uncached.

        The run's work is added to ``self.stats`` (which the result
        carries), so one instance can total several queries.
        """
        from . import executor
        from .planner import PhysicalPlanFactory

        plan = PhysicalPlanFactory(query, algebra).instantiate(self.graph)
        result = executor.run_to_completion(plan)
        self.stats.merge(plan.stats)
        result.stats = self.stats
        return result

    def exists(self, pattern, binding: Binding) -> bool:
        """Whether the group pattern has a solution compatible with
        ``binding`` (a term-space row) — the semantics of ``EXISTS``.

        The pattern is compiled once per execution; each call pulls a
        fresh sub-plan one row at a time and stops at the first
        compatible solution.  The sub-plan shares this context, so its
        work lands in the same ``stats``; it runs inside one operator
        step and is the one island a quantum cannot suspend.
        """
        make = self._exists_plans.get(id(pattern))
        if make is None:
            from .planner import compile_node

            make = self._exists_plans[id(pattern)] = compile_node(
                translate_pattern(pattern)
            )
        decode = self.dictionary.decode
        root = make(self)
        while not root.done:
            for candidate in root.next(1):
                if all(
                    decode(value) == binding[name]
                    for name, value in candidate.items()
                    if name in binding
                ):
                    return True
        return False


def evaluate(graph: Graph, query_text: str):
    """Parse and evaluate a SPARQL query over ``graph``.

    Returns a :class:`~repro.sparql.results.SelectResult`,
    :class:`~repro.sparql.results.AskResult` or
    :class:`~repro.sparql.results.GraphResult`.
    """
    return Evaluator(graph).run(parse_query(query_text))
