"""Engine observability: metrics registry, per-operator tracing, EXPLAIN.

Three pieces, layered bottom-up:

* :mod:`repro.obs.metrics` — a dependency-free prometheus-style registry
  (:data:`REGISTRY`) that every engine layer emits counters, gauges, and
  histograms into; the metric-name catalogue is ``docs/OBSERVABILITY.md``.
* :mod:`repro.obs.tracing` — the flat per-operator aggregates
  (:func:`operator_summaries`) read off an executed plan's own row /
  call / wall-time counters.
* :mod:`repro.obs.explain` — ``EXPLAIN`` / ``EXPLAIN ANALYZE``: the
  physical operator tree the endpoints run, with the optimizer's
  estimated vs. actual per-operator cardinalities and wall time (the
  same counters), exportable as a span tree or JSON lines, surfaced by
  the ``repro explain`` CLI subcommand.

``explain_physical`` is imported lazily (PEP 562) because it depends on
the engine, which itself emits metrics through this package.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    REGISTRY,
    get_registry,
)
from .tracing import OperatorSummary, operator_summaries

__all__ = [
    "REGISTRY",
    "get_registry",
    "MetricsRegistry",
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "OperatorSummary",
    "operator_summaries",
    "ExplainResult",
    "PlanNode",
    "explain_physical",
]

_LAZY = {"ExplainResult", "PlanNode", "explain_physical"}


def __getattr__(name: str):
    if name in _LAZY:
        from . import explain

        return getattr(explain, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
