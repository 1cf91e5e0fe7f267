"""Version-aware LRU cache of parsed and optimized query plans.

Parsing and optimizing a SPARQL query costs real wall time per request;
exploration frontends (the paper's Section 3 UI) re-issue the same
parameterised chart queries constantly.  The plan cache memoises the
full front half of the engine — query text → AST → algebra → optimized
algebra — keyed by whitespace-normalised query text (the same
:func:`~repro.perf.hvs.normalize_query` canonicalisation the HVS uses).

Optimized plans embed statistics-driven decisions (join order), so each
entry remembers the graph ``version`` it was planned against and is
re-derived — never served stale — once the graph changes.  Entries whose
plan is purely structural (no graph supplied at planning time) have
``stats_version is None`` and survive updates.

An entry is always a whole plan.  A caller that only wants the AST (the
router's ladder matches chart shapes on it) reads ``.query`` off the
entry its endpoint executes; there is no AST-only lookup, because an
unoptimized entry stored under the same key would be served to the
executing endpoint in place of the optimized plan.

Hits, misses, evictions, and invalidations are exported through the
metrics registry (``repro metrics``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..obs.metrics import REGISTRY
from ..sparql.algebra import AlgebraNode, translate_query
from ..sparql.ast import Query
from ..sparql.parser import parse_query
from .hvs import normalize_query

__all__ = ["CachedPlan", "PlanCache", "build_plan"]

_REQUESTS_TOTAL = REGISTRY.counter(
    "repro_plancache_requests_total",
    "Plan-cache lookups by outcome",
    labelnames=("outcome",),
)
_HITS = _REQUESTS_TOTAL.labels(outcome="hit")
_MISSES = _REQUESTS_TOTAL.labels(outcome="miss")
_EVICTIONS_TOTAL = REGISTRY.counter(
    "repro_plancache_evictions_total",
    "Plan-cache entries evicted by LRU capacity pressure",
)
_INVALIDATIONS_TOTAL = REGISTRY.counter(
    "repro_plancache_invalidations_total",
    "Plan-cache entries re-derived because the graph version moved on",
)
_SIZE = REGISTRY.gauge("repro_plancache_size", "Plans currently cached")


@dataclass
class CachedPlan:
    """One cached front-half result for a query text.

    ``algebra`` is the plan to execute (optimized when an optimizer ran,
    the direct translation otherwise); for a CONSTRUCT it describes the
    solution sequence the template is applied to.  ``notes`` are the
    optimizer's ``(pass, detail)`` annotations, which EXPLAIN lists.
    ``stats_version`` is the graph version the plan's cost-based
    decisions were derived from, or None when no statistics were
    consulted.
    """

    query: Query
    algebra: AlgebraNode
    stats_version: Optional[int]
    notes: Tuple[Tuple[str, str], ...] = ()
    #: Lazily compiled physical-plan factory (see :meth:`physical_factory`).
    physical: Optional[object] = None

    def physical_factory(self):
        """The compiled physical plan for this entry, built on first use.

        Compilation (BGP ordering, filter slots, join-key analysis) runs
        once per cached plan; every execution — each one-shot request,
        each page of a paginated one — then instantiates a fresh
        operator tree from the same factory.  The factory shares the
        entry's lifetime, so graph-version invalidation of the entry
        also drops the physical plan.
        """
        if self.physical is None:
            from ..sparql.planner import PhysicalPlanFactory

            self.physical = PhysicalPlanFactory(self.query, self.algebra)
        return self.physical


class PlanCache:
    """LRU query-text → plan cache with graph-version invalidation."""

    def __init__(self, capacity: int = 128):
        if capacity <= 0:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        # An empty cache is still a cache; never collapse to falsy.
        return True

    def __contains__(self, query_text: str) -> bool:
        return normalize_query(query_text) in self._entries

    def clear(self) -> None:
        self._entries.clear()
        _SIZE.set(0)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, query_text: str, graph=None, optimize: bool = True) -> CachedPlan:
        """The (possibly cached) plan for ``query_text``.

        ``graph`` supplies both the statistics for cost-based planning
        and the version stamp for invalidation; with ``optimize=False``
        (or no graph) the cached plan is the raw translation.
        """
        key = normalize_query(query_text)
        entry = self._entries.get(key)
        if entry is not None:
            if (
                entry.stats_version is not None
                and graph is not None
                and entry.stats_version != graph.version
            ):
                # Planned against a graph state that no longer exists.
                del self._entries[key]
                _INVALIDATIONS_TOTAL.inc()
            else:
                self._entries.move_to_end(key)
                _HITS.inc()
                return entry
        _MISSES.inc()
        entry = build_plan(query_text, graph, optimize)
        self._entries[key] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            _EVICTIONS_TOTAL.inc()
        _SIZE.set(len(self._entries))
        return entry


def build_plan(query_text: str, graph=None, optimize: bool = True) -> CachedPlan:
    """Parse, translate, and (optionally) optimize one query text.

    The uncached front half of the engine; :class:`PlanCache` memoises
    this function, and cache-less callers use it directly.
    """
    query = parse_query(query_text)
    raw = translate_query(query)
    if not optimize:
        return CachedPlan(query, raw, None)
    from ..sparql.optimizer import optimize as run_optimizer

    optimized, report = run_optimizer(raw, graph=graph)
    return CachedPlan(
        query,
        optimized,
        graph.version if graph is not None else None,
        tuple(report.notes),
    )
