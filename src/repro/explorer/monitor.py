"""Query-log monitoring.

The demo's second exploration kind presents "explorations that entail
heavy queries ... with the discussed solutions turned on and off"
(Section 5); this monitor summarises an endpoint's query log so that
effect is visible: how many queries each component answered, their
simulated latencies, and which queries crossed the heaviness threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..endpoint.base import Endpoint, QueryLogEntry
from ..perf.hvs import DEFAULT_HEAVY_THRESHOLD_MS

__all__ = ["SourceSummary", "OperatorBreakdown", "QueryMonitor"]


@dataclass(frozen=True)
class SourceSummary:
    """Aggregate statistics for one answer source."""

    source: str
    queries: int
    total_ms: float
    min_ms: float
    max_ms: float

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.queries if self.queries else 0.0


@dataclass(frozen=True)
class OperatorBreakdown:
    """Aggregate per-operator cost across traced log entries."""

    operator: str
    rows: int
    wall_ms: float
    invocations: int
    queries: int


class QueryMonitor:
    """Summarises an endpoint's query log."""

    def __init__(
        self,
        endpoint: Endpoint,
        heavy_threshold_ms: float = DEFAULT_HEAVY_THRESHOLD_MS,
    ):
        self.endpoint = endpoint
        self.heavy_threshold_ms = heavy_threshold_ms
        self._mark = 0
        self._mark_sentinel: Optional[QueryLogEntry] = None

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------

    def _mark_position(self) -> int:
        """The effective mark, robust against log truncation.

        The mark is a position *plus* the identity of the entry just
        before it.  If the endpoint's log was cleared (or rebuilt) since
        ``mark()``, the position alone would silently re-attribute old
        positions to new entries; detecting the sentinel mismatch resets
        the window to the whole log instead.
        """
        log = self.endpoint.query_log
        if self._mark == 0:
            return 0
        if self._mark > len(log) or log[self._mark - 1] is not self._mark_sentinel:
            return 0
        return self._mark

    def entries(self, since_mark: bool = False) -> List[QueryLogEntry]:
        """The log entries (optionally only those after the last mark)."""
        log = self.endpoint.query_log
        return log[self._mark_position() :] if since_mark else list(log)

    def mark(self) -> int:
        """Remember the current log position; ``entries(since_mark=True)``
        then reports only newer activity."""
        log = self.endpoint.query_log
        self._mark = len(log)
        self._mark_sentinel = log[-1] if log else None
        return self._mark

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def by_source(self, since_mark: bool = False) -> Dict[str, SourceSummary]:
        """Per-source query counts and latency aggregates."""
        buckets: Dict[str, List[QueryLogEntry]] = {}
        for entry in self.entries(since_mark):
            buckets.setdefault(entry.source, []).append(entry)
        return {
            source: SourceSummary(
                source=source,
                queries=len(group),
                total_ms=sum(e.elapsed_ms for e in group),
                min_ms=min(e.elapsed_ms for e in group),
                max_ms=max(e.elapsed_ms for e in group),
            )
            for source, group in buckets.items()
        }

    def heavy_queries(self, since_mark: bool = False) -> List[QueryLogEntry]:
        """Entries that crossed the heaviness threshold, slowest first."""
        heavy = [
            entry
            for entry in self.entries(since_mark)
            if entry.elapsed_ms > self.heavy_threshold_ms
        ]
        heavy.sort(key=lambda entry: -entry.elapsed_ms)
        return heavy

    def slowest(self, count: int = 5, since_mark: bool = False) -> List[QueryLogEntry]:
        """The ``count`` slowest queries."""
        ordered = sorted(
            self.entries(since_mark), key=lambda entry: -entry.elapsed_ms
        )
        return ordered[:count]

    def total_simulated_ms(self, since_mark: bool = False) -> float:
        return sum(entry.elapsed_ms for entry in self.entries(since_mark))

    def by_operator(
        self, since_mark: bool = False
    ) -> Dict[str, OperatorBreakdown]:
        """Latency broken down by algebra operator, across traced entries.

        Only entries whose endpoint ran with tracing enabled (e.g.
        ``LocalEndpoint(trace=True)``) carry operator aggregates; others
        are skipped.  ``wall_ms`` is real self-time measured by the
        probe, not simulated latency.
        """
        rows: Dict[str, List[int]] = {}
        wall: Dict[str, float] = {}
        invocations: Dict[str, int] = {}
        queries: Dict[str, int] = {}
        for entry in self.entries(since_mark):
            if not entry.operators:
                continue
            for summary in entry.operators:
                name = summary.operator
                rows.setdefault(name, []).append(summary.rows)
                wall[name] = wall.get(name, 0.0) + summary.wall_ms
                invocations[name] = (
                    invocations.get(name, 0) + summary.invocations
                )
                queries[name] = queries.get(name, 0) + 1
        return {
            name: OperatorBreakdown(
                operator=name,
                rows=sum(rows[name]),
                wall_ms=wall[name],
                invocations=invocations[name],
                queries=queries[name],
            )
            for name in rows
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self, since_mark: bool = False) -> str:
        """A plain-text dashboard of the log."""
        summaries = sorted(
            self.by_source(since_mark).values(), key=lambda s: -s.total_ms
        )
        lines = [
            "Query monitor",
            "=============",
            f"{'source':<12} {'queries':>8} {'total sim ms':>14} "
            f"{'mean sim ms':>12} {'max sim ms':>12}",
        ]
        for summary in summaries:
            lines.append(
                f"{summary.source:<12} {summary.queries:>8} "
                f"{summary.total_ms:>14.1f} {summary.mean_ms:>12.1f} "
                f"{summary.max_ms:>12.1f}"
            )
        heavy = self.heavy_queries(since_mark)
        lines.append(
            f"heavy queries (>{self.heavy_threshold_ms:.0f} sim ms): {len(heavy)}"
        )
        for entry in heavy[:3]:
            first_line = entry.query_text.strip().splitlines()[0]
            lines.append(f"  {entry.elapsed_ms:>12.1f} sim ms  {first_line[:60]}")
        operators = sorted(
            self.by_operator(since_mark).values(), key=lambda b: -b.wall_ms
        )
        if operators:
            lines.append("")
            lines.append(
                f"{'operator':<16} {'rows':>10} {'wall ms':>10} {'calls':>8}"
            )
            for breakdown in operators:
                lines.append(
                    f"{breakdown.operator:<16} {breakdown.rows:>10} "
                    f"{breakdown.wall_ms:>10.2f} {breakdown.invocations:>8}"
                )
        return "\n".join(lines)
