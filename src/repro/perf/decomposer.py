"""The eLinda decomposer (Section 4).

"eLinda detects heavy queries ... and map[s] the SPARQL queries to a
decomposition of SQL queries that utilizes the indexes and prevents
heavy and redundant SPARQL computations.  Unlike the eLinda HVS, the
eLinda decomposer can be used for *all* property expansion queries."

The decomposer is the ladder rung with the paper's semantics: property
expansions only (the nested-aggregation shape
:func:`repro.core.queries.property_chart_query` generates, the paper's
Section 4 example query), answered from build-once specialised indexes
at the decomposition's cost — an index probe per member plus per-row
assembly.  The indexes are a :class:`~repro.perf.views.MaterializedViews`
(``track=False`` for the paper's build-once behaviour); the shape
matcher and the answer body are the views module's.
"""

from __future__ import annotations

from typing import Optional

from ..endpoint.base import EndpointResponse, observe_response
from ..endpoint.clock import SimClock
from ..endpoint.cost import DECOMPOSER_PROFILE, CostModel
from ..obs.metrics import REGISTRY
from .views import (
    MaterializedViews,
    PropertyExpansionSpec,
    match_property_expansion,
    property_expansion_result,
)

__all__ = ["PropertyExpansionSpec", "match_property_expansion", "Decomposer"]

_DECOMPOSER_REQUESTS_TOTAL = REGISTRY.counter(
    "repro_decomposer_requests_total",
    "Queries offered to the decomposer, by whether the rewrite applied",
    labelnames=("outcome",),
)
_DECOMPOSER_REWRITTEN = _DECOMPOSER_REQUESTS_TOTAL.labels(outcome="rewritten")
_DECOMPOSER_SKIPPED = _DECOMPOSER_REQUESTS_TOTAL.labels(outcome="skipped")


class Decomposer:
    """Answers recognised property expansions from the indexes."""

    def __init__(
        self,
        indexes: MaterializedViews,
        clock: Optional[SimClock] = None,
        cost_model: CostModel = DECOMPOSER_PROFILE,
    ):
        self.indexes = indexes
        self.clock = clock or SimClock()
        self.cost_model = cost_model
        self.hits = 0
        self.misses = 0

    def try_answer(self, query_text: str, query=None) -> Optional[EndpointResponse]:
        """Answer the query from the indexes, or None when out of scope.

        ``query`` is the text's AST when the caller already has it (the
        router's door); without one the matcher parses the text.
        """
        spec = match_property_expansion(query_text, query=query)
        rows = None
        if spec is not None:
            rows = self.indexes.property_expansion(
                list(spec.classes), spec.direction
            )
        if rows is None:
            self.misses += 1
            _DECOMPOSER_SKIPPED.inc()
            return None
        self.hits += 1
        _DECOMPOSER_REWRITTEN.inc()
        result = property_expansion_result(spec, rows)
        # Simulated latency: an index probe per member (the SQL-side
        # subject-type scan) plus per-row result assembly.
        probes = min(
            (self.indexes.instance_count(cls) for cls in spec.classes),
            default=0,
        )
        elapsed = self.cost_model.simulate_ms(
            intermediate_bindings=0,
            pattern_scans=probes,
            result_rows=len(result.rows),
        )
        self.clock.advance(elapsed)
        response = EndpointResponse(
            result=result,
            elapsed_ms=elapsed,
            source="decomposer",
            query_text=query_text,
            stats=None,
        )
        observe_response(response)
        return response
