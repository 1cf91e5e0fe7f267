"""Incremental evaluation over a remote endpoint (compatibility mode).

Section 4: "we also allow eLinda to work with a remote Virtuoso endpoint
... Naturally, in this mode responsiveness is lower than the above local
mode.  Yet, the aforementioned incremental evaluation is applicable (and
applied) even in the remote mode, allowing for effective latency."

Remotely there is no graph object to window, so windows are carved with
SPARQL itself: the chart query's inner triple scan is wrapped in an
ORDER BY + LIMIT/OFFSET sub-select, and the frontend merges the partial
aggregates exactly as the local incremental evaluator does.  Pagination
by (subject, predicate, object) order keeps windows disjoint and
subject-aligned *per page boundary in the stable total order*, so the
merged chart converges to the one-shot result when all pages are
consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..core.model import Direction, count_value
from ..core.queries import MemberPattern
from ..endpoint.base import Endpoint
from ..rdf.terms import Literal, Term
from ..sparql.results import SelectResult
from .incremental import INCREMENTAL_WINDOWS_TOTAL, PartialResult

__all__ = ["RemoteIncrementalConfig", "RemoteIncrementalEvaluator"]

_WINDOWS_REMOTE = INCREMENTAL_WINDOWS_TOTAL.labels(mode="remote")

_XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"


@dataclass(frozen=True)
class RemoteIncrementalConfig:
    """N (triples per page) and k (page cap) for remote windows."""

    window_size: int = 2000
    max_steps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if self.max_steps is not None and self.max_steps <= 0:
            raise ValueError("max_steps must be positive when given")


def _windowed_property_chart_query(
    pattern: MemberPattern,
    direction: Direction,
    limit: int,
    offset: int,
) -> str:
    """The property-expansion chart computed on one page of the member
    triples (page = ORDER BY ?s ?p ?o + LIMIT/OFFSET)."""
    if direction is Direction.OUTGOING:
        edge = "?s ?p ?o ."
    else:
        edge = "?o ?p ?s ."
    return (
        "SELECT ?p (COUNT(?p) AS ?count) (SUM(?sp) AS ?triples) WHERE {\n"
        "  { SELECT ?s ?p (COUNT(*) AS ?sp) WHERE {\n"
        "      { SELECT ?s ?p ?o WHERE {\n"
        f"{pattern.render(indent='          ')}\n"
        f"          {edge}\n"
        "        } ORDER BY ?s ?p ?o "
        f"LIMIT {limit} OFFSET {offset} }}\n"
        "    } GROUP BY ?s ?p }\n"
        "}\nGROUP BY ?p"
    )


class RemoteIncrementalEvaluator:
    """Pages a property-expansion chart out of a remote endpoint.

    The merge is exact for the COUNT column only when a subject's
    triples do not straddle a page boundary; the final merged ``count``
    may over-count a subject split across two pages by at most the
    number of page boundaries — the same approximation the paper's raw
    triple windows make.  ``triples`` sums are always exact.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        config: Optional[RemoteIncrementalConfig] = None,
    ):
        self.endpoint = endpoint
        self.config = config or RemoteIncrementalConfig()

    def run(
        self,
        pattern: MemberPattern,
        direction: Direction = Direction.OUTGOING,
    ) -> Iterator[PartialResult]:
        """Yield one merged partial chart per remote page."""
        merged: Dict[Term, List[int]] = {}
        cumulative = 0.0
        step = 0
        while True:
            step += 1
            offset = (step - 1) * self.config.window_size
            query = _windowed_property_chart_query(
                pattern, direction, self.config.window_size, offset
            )
            response = self.endpoint.query(query)
            result = response.result
            assert isinstance(result, SelectResult)
            cumulative += response.elapsed_ms
            page_triples = 0
            for row in result.rows:
                prop = row.get("p")
                count = count_value(row.get("count"))
                triples = count_value(row.get("triples"))
                page_triples += triples
                if prop is None:
                    continue
                slot = merged.setdefault(prop, [0, 0])
                slot[0] += count
                slot[1] += triples
            complete = page_triples < self.config.window_size
            _WINDOWS_REMOTE.inc()
            yield PartialResult(
                result=self._merged_result(merged),
                step=step,
                windows_consumed=step,
                complete=complete,
                elapsed_ms=response.elapsed_ms,
                cumulative_ms=cumulative,
            )
            if complete:
                return
            if (
                self.config.max_steps is not None
                and step >= self.config.max_steps
            ):
                return

    def run_to_completion(
        self,
        pattern: MemberPattern,
        direction: Direction = Direction.OUTGOING,
    ) -> PartialResult:
        """Consume all pages (up to k); returns the final merge."""
        last: Optional[PartialResult] = None
        for partial in self.run(pattern, direction):
            last = partial
        assert last is not None
        return last

    @staticmethod
    def _merged_result(merged: Dict[Term, List[int]]) -> SelectResult:
        rows = [
            {
                "p": prop,
                "count": Literal(str(counts[0]), datatype=_XSD_INTEGER),
                "triples": Literal(str(counts[1]), datatype=_XSD_INTEGER),
            }
            for prop, counts in merged.items()
        ]
        rows.sort(key=lambda row: (-int(row["count"].lexical), row["p"].sort_key()))
        return SelectResult(["p", "count", "triples"], rows)

