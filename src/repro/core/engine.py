"""Endpoint-backed chart computation.

Where :mod:`repro.core.expansions` computes expansions directly on an
in-memory graph, the :class:`ChartEngine` drives them the way the real
tool does — by generating SPARQL (:mod:`repro.core.queries`) and sending
it to an :class:`repro.endpoint.base.Endpoint`.  Every bar it returns
carries its :class:`repro.core.queries.MemberPattern`, so drill-downs
compose and "the SPARQL query it was generated from" is always
available to the user.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from ..endpoint.base import Endpoint
from ..rdf.terms import Literal, URI
from .model import Bar, BarChart, BarType, Direction, count_value
from .queries import (
    MemberPattern,
    count_query,
    members_query,
    object_chart_query,
    property_chart_query,
    subclass_chart_query,
)

__all__ = ["ChartEngine"]


def _supports_paging(endpoint) -> bool:
    """Whether ``endpoint.query`` accepts the continuation-paging kwargs.

    Detected from the signature (or an explicit ``supports_paging``
    attribute) instead of probing with a call and catching TypeError —
    catching would also swallow genuine TypeErrors raised *inside* the
    endpoint's evaluation.
    """
    declared = getattr(endpoint, "supports_paging", None)
    if declared is not None:
        return bool(declared)
    import inspect

    try:
        parameters = inspect.signature(endpoint.query).parameters
    except (TypeError, ValueError):
        return False
    if any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    ):
        return True
    return {"page_size", "continuation"} <= set(parameters)


class ChartEngine:
    """Builds bar charts by querying a SPARQL endpoint.

    ``page_size`` / ``quantum_ms`` turn on time-sliced fetching: every
    chart query is paged through the endpoint's continuation-token
    protocol instead of running to completion in one request, so a
    heavy property expansion never holds the engine for longer than one
    quantum at a time.  Endpoints without a paged ``query()`` (the
    router, test doubles) transparently fall back to one-shot
    execution — the chart is identical either way, paging only changes
    *when* the work happens.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        root_class: URI,
        page_size: Optional[int] = None,
        quantum_ms: Optional[float] = None,
    ):
        self.endpoint = endpoint
        self.root_class = root_class
        self.page_size = page_size
        self.quantum_ms = quantum_ms
        #: Pages fetched through the continuation protocol (observability).
        self.pages_fetched = 0
        # Paging-capability cache; resolved on first paged select.
        self._paged: Optional[bool] = None

    def _select(self, query_text: str):
        """One chart query's full result, paged when configured."""
        if self.page_size is None and self.quantum_ms is None:
            return self.endpoint.select(query_text)
        if self._paged is None:
            self._paged = _supports_paging(self.endpoint)
        if not self._paged:
            # The endpoint's query() takes no paging parameters.
            return self.endpoint.select(query_text)
        response = self.endpoint.query(
            query_text,
            page_size=self.page_size,
            quantum_ms=self.quantum_ms,
        )
        self.pages_fetched += 1
        rows = list(response.result.rows)
        variables = response.result.vars
        while not response.complete:
            response = self.endpoint.query(
                query_text,
                page_size=self.page_size,
                quantum_ms=self.quantum_ms,
                continuation=response.continuation,
            )
            self.pages_fetched += 1
            rows.extend(response.result.rows)
        from ..sparql.results import SelectResult

        return SelectResult(variables, rows)

    # ------------------------------------------------------------------
    # Roots
    # ------------------------------------------------------------------

    def root_bar(self) -> Bar:
        """The predefined root bar (all instances of the root class)."""
        pattern = MemberPattern.of_type(self.root_class)
        count = count_value(self.endpoint.select(count_query(pattern)).scalar())
        return Bar(
            label=self.root_class,
            type=BarType.CLASS,
            count=count,
            pattern=pattern,
        )

    def initial_chart(self) -> BarChart:
        """``B0``: the subclass expansion of the root bar (Section 2)."""
        return self.subclass_chart(self.root_bar())

    # ------------------------------------------------------------------
    # Expansions
    # ------------------------------------------------------------------

    def _pattern_of(self, bar: Bar) -> MemberPattern:
        pattern = bar.pattern
        if isinstance(pattern, MemberPattern):
            return pattern
        if bar.uris is not None:
            return MemberPattern.of_values(sorted(bar.uris, key=lambda u: u.value))
        raise ValueError(
            "bar carries neither a member pattern nor materialised URIs"
        )

    def subclass_chart(self, bar: Bar) -> BarChart:
        """Subclass expansion through the endpoint."""
        if bar.type is not BarType.CLASS:
            raise ValueError("subclass expansion needs a class bar")
        pattern = self._pattern_of(bar)
        result = self._select(subclass_chart_query(pattern, bar.label))
        bars: Dict[URI, Bar] = {}
        for row in result:
            subclass = row.get("sub")
            if not isinstance(subclass, URI):
                continue
            bars[subclass] = Bar(
                label=subclass,
                type=BarType.CLASS,
                count=count_value(row.get("count")),
                pattern=pattern.and_type(subclass),
            )
        return BarChart(bars)

    def property_chart(
        self, bar: Bar, direction: Direction = Direction.OUTGOING
    ) -> BarChart:
        """Property expansion through the endpoint (the heavy query)."""
        if bar.type is not BarType.CLASS:
            raise ValueError("property expansion needs a class bar")
        pattern = self._pattern_of(bar)
        total = bar.size if (bar.count is not None or bar.uris is not None) else 0
        if not total:
            total = count_value(self.endpoint.select(count_query(pattern)).scalar())
        result = self._select(property_chart_query(pattern, direction))
        bars: Dict[URI, Bar] = {}
        for row in result:
            prop = row.get("p")
            if not isinstance(prop, URI):
                continue
            count = count_value(row.get("count"))
            bars[prop] = Bar(
                label=prop,
                type=BarType.PROPERTY,
                count=count,
                coverage=(count / total) if total else 0.0,
                direction=direction,
                pattern=pattern.and_property(prop, direction),
            )
        return BarChart(bars)

    def object_chart(
        self, bar: Bar, direction: Direction = Direction.OUTGOING
    ) -> BarChart:
        """Object expansion through the endpoint (Connections tab).

        ``bar`` must be a property bar; its members are the subjects
        featuring the property, and the produced bars group the
        *connected* nodes by type.  ``direction`` must match the
        direction the property bar was created with.
        """
        if bar.type is not BarType.PROPERTY:
            raise ValueError("object expansion needs a property bar")
        pattern = self._pattern_of(bar)
        result = self._select(
            object_chart_query(pattern, bar.label, direction)
        )
        bars: Dict[URI, Bar] = {}
        for row in result:
            cls = row.get("type")
            if not isinstance(cls, URI):
                continue
            bars[cls] = Bar(
                label=cls,
                type=BarType.CLASS,
                count=count_value(row.get("count")),
                pattern=pattern.reroot_via(
                    bar.label, direction, new_type=cls
                ),
            )
        return BarChart(bars)

    # ------------------------------------------------------------------
    # Materialisation and provenance
    # ------------------------------------------------------------------

    def materialise(self, bar: Bar, limit: Optional[int] = None) -> Bar:
        """Fetch the bar's members from the endpoint."""
        if bar.uris is not None:
            return bar
        pattern = self._pattern_of(bar)
        result = self._select(members_query(pattern, limit=limit))
        members = frozenset(
            term for term in result.column("s") if isinstance(term, URI)
        )
        return bar.with_uris(members)

    def refresh_count(self, bar: Bar) -> Bar:
        """Recompute the bar's height from the endpoint."""
        pattern = self._pattern_of(bar)
        count = count_value(self.endpoint.select(count_query(pattern)).scalar())
        return replace(bar, count=count)

    def sparql_for(self, bar: Bar) -> str:
        """The SPARQL query extracting the bar's members — what eLinda
        shows when the user asks for the code behind a bar."""
        return members_query(self._pattern_of(bar))

    def export_bar(self, bar: Bar):
        """CONSTRUCT the subgraph of the bar's members (all their
        outgoing triples) — detailed RDF data on demand."""
        from .queries import bar_subgraph_query

        return self.endpoint.construct(bar_subgraph_query(self._pattern_of(bar)))

    def property_chart_incremental(
        self,
        bar: Bar,
        direction: Direction = Direction.OUTGOING,
        window_size: int = 2000,
        max_steps: Optional[int] = None,
    ):
        """Progressive property chart: yields a growing :class:`BarChart`
        per remote page (the paper's incremental evaluation surfaced at
        the chart level; works against any endpoint, including remote
        compatibility mode).

        The final chart's coverage values match :meth:`property_chart`
        up to page-boundary over-counts (see
        :mod:`repro.perf.remote_incremental`).
        """
        from ..perf.remote_incremental import (
            RemoteIncrementalConfig,
            RemoteIncrementalEvaluator,
        )

        if bar.type is not BarType.CLASS:
            raise ValueError("property expansion needs a class bar")
        pattern = self._pattern_of(bar)
        total = bar.size if (bar.count is not None or bar.uris is not None) else 0
        if not total:
            total = count_value(self.endpoint.select(count_query(pattern)).scalar())
        evaluator = RemoteIncrementalEvaluator(
            self.endpoint,
            RemoteIncrementalConfig(window_size=window_size, max_steps=max_steps),
        )
        for partial in evaluator.run(pattern, direction):
            bars: Dict[URI, Bar] = {}
            for row in partial.result.rows:
                prop = row.get("p")
                if not isinstance(prop, URI):
                    continue
                count = count_value(row.get("count"))
                bars[prop] = Bar(
                    label=prop,
                    type=BarType.PROPERTY,
                    count=count,
                    coverage=(count / total) if total else 0.0,
                    direction=direction,
                    pattern=pattern.and_property(prop, direction),
                )
            yield BarChart(bars), partial

    def filtered_bar(self, bar: Bar, values: Dict[URI, URI | Literal]) -> Bar:
        """The filter expansion: restrict a class bar to members with the
        given property values, as a new bar over ``S_f``."""
        pattern = self._pattern_of(bar)
        for prop, value in sorted(values.items(), key=lambda kv: kv[0].value):
            pattern = pattern.and_value(prop, value)
        count = count_value(self.endpoint.select(count_query(pattern)).scalar())
        return Bar(
            label=bar.label,
            type=bar.type,
            count=count,
            pattern=pattern,
            direction=bar.direction,
        )
