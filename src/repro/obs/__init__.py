"""Engine observability: metrics registry, per-operator tracing, EXPLAIN.

Three pieces, layered bottom-up:

* :mod:`repro.obs.metrics` — a dependency-free prometheus-style registry
  (:data:`REGISTRY`) that every engine layer emits counters, gauges, and
  histograms into; the metric-name catalogue is ``docs/OBSERVABILITY.md``.
* :mod:`repro.obs.tracing` — operator naming, and the flat
  per-operator aggregates (:func:`operator_summaries`) read off an
  executed plan's own row / call / wall-time counters.
* :mod:`repro.obs.explain` — ``EXPLAIN`` / ``EXPLAIN ANALYZE``: the
  algebra plan with estimated vs. actual per-operator cardinalities and
  wall time (the same counters), exportable as a span tree or JSON
  lines, surfaced by the ``repro explain`` CLI subcommand.

``explain`` is imported lazily (PEP 562) because it depends on the
engine, which itself emits metrics through this package.
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
    "explain",
    "explain_physical",
    "estimate_cardinality",
]

_LAZY = {
    "ExplainResult",
    "PlanNode",
    "explain",
    "explain_physical",
    "estimate_cardinality",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(".explain", __name__)
        # Rebind all lazy names, including ``explain`` itself — the
        # submodule import binds the *module* over the package attribute,
        # and the function must win (use ``repro.obs.explain`` via
        # sys.modules / a from-import to reach the module).
        for attr in _LAZY:
            globals()[attr] = getattr(module, attr)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
