"""A process-wide metrics registry (prometheus-client style, zero deps).

Every layer of the query path emits counters, gauges, and histograms into
one :data:`REGISTRY` so that a single ``repro metrics`` call (or a test)
can see where work happened: index lookups in :mod:`repro.rdf.graph`,
bindings and join strategies in :mod:`repro.sparql.executor` and
:mod:`repro.sparql.physical`, simulated
latency per source in :mod:`repro.endpoint`, and cache/rewrite decisions
in :mod:`repro.perf`.

The metric *names* are a stable public contract — the full catalogue
lives in ``docs/OBSERVABILITY.md`` and a test asserts the two stay in
sync.  Conventions follow Prometheus: ``*_total`` counters only go up,
gauges go both ways, histograms expose cumulative buckets plus ``_sum``
and ``_count``.

Instrumented hot paths pre-bind their label children once at import time
(e.g. ``_SPO = LOOKUPS.labels(index="spo")``) so the per-event cost is a
single integer addition.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "DEFAULT_LATENCY_BUCKETS_MS",
]


class MetricError(ValueError):
    """Invalid metric definition or use (bad name, labels, cardinality)."""


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for simulated-latency metrics (milliseconds).
DEFAULT_LATENCY_BUCKETS_MS = (
    1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 30000.0, 120000.0,
)

#: Safety valve against unbounded label explosion (e.g. a label set keyed
#: on raw query text by mistake).  Exceeding it raises, loudly.
DEFAULT_MAX_LABEL_SETS = 1000


class _Metric:
    """Common machinery: name/label validation and child management."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
    ):
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name: {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name: {label!r}")
        if len(set(labelnames)) != len(labelnames):
            raise MetricError(f"duplicate label names: {labelnames!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.max_label_sets = max_label_sets
        self._children: Dict[Tuple[str, ...], "_Metric"] = {}
        self._lock = threading.Lock()

    # -- labelling ------------------------------------------------------

    def labels(self, **labelvalues: str) -> "_Metric":
        """The child series for one label-value combination."""
        if not self.labelnames:
            raise MetricError(f"{self.name} takes no labels")
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"{self.name} requires labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if len(self._children) >= self.max_label_sets:
                        raise MetricError(
                            f"{self.name}: label cardinality limit "
                            f"({self.max_label_sets}) exceeded"
                        )
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _make_child(self) -> "_Metric":
        return type(self)(self.name, self.help)

    def _check_unlabelled(self) -> None:
        if self.labelnames:
            raise MetricError(
                f"{self.name} has labels {self.labelnames}; "
                "call .labels(...) first"
            )

    # -- introspection --------------------------------------------------

    def samples(self) -> Iterator[Tuple[str, Dict[str, str], float]]:
        """Yield ``(sample_name, labels, value)`` rows."""
        if self.labelnames:
            for key, child in sorted(self._children.items()):
                labels = dict(zip(self.labelnames, key))
                for name, sub_labels, value in child.samples():
                    merged = dict(labels)
                    merged.update(sub_labels)
                    yield name, merged, value
        else:
            yield from self._own_samples()

    def _own_samples(self) -> Iterator[Tuple[str, Dict[str, str], float]]:
        raise NotImplementedError

    def reset(self) -> None:
        """Zero the metric and every label child, in place.

        Children are zeroed rather than dropped because instrumented
        modules pre-bind child objects at import time; dropping them
        would orphan those references and silently lose future counts.
        """
        for child in self._children.values():
            child.reset()
        self._reset_own()

    def _reset_own(self) -> None:
        pass

    # -- cross-process transfer -----------------------------------------

    def export_state(self) -> Dict:
        """A JSON-able snapshot of this metric's values (all children)."""
        return {
            "children": [
                [list(key), child.export_state()]
                for key, child in sorted(self._children.items())
            ],
            "own": self._export_own(),
        }

    def merge_state(self, state: Dict, previous: Optional[Dict] = None) -> None:
        """Fold another process's :meth:`export_state` into this metric.

        ``previous`` is the last snapshot already merged from the same
        source; only the delta since then is applied, so the caller can
        poll a live worker repeatedly without double counting.  Label
        children unseen in this process are created on demand.
        """
        prev_children: Dict[Tuple[str, ...], Dict] = {}
        if previous:
            prev_children = {
                tuple(key): child_state
                for key, child_state in previous.get("children", ())
            }
        for key_list, child_state in state.get("children", ()):
            key = tuple(key_list)
            child = self.labels(**dict(zip(self.labelnames, key)))
            child.merge_state(child_state, prev_children.get(key))
        self._merge_own(
            state.get("own"), previous.get("own") if previous else None
        )

    def _export_own(self):
        return None

    def _merge_own(self, own, previous_own) -> None:
        pass


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self._check_unlabelled()
        if amount < 0:
            raise MetricError(f"{self.name}: counters cannot decrease")
        self._value += amount

    @property
    def value(self) -> float:
        self._check_unlabelled()
        return self._value

    def _own_samples(self):
        yield self.name, {}, self._value

    def _reset_own(self) -> None:
        self._value = 0.0

    def _export_own(self):
        return self._value

    def _merge_own(self, own, previous_own) -> None:
        if own is None:
            return
        delta = float(own) - float(previous_own or 0.0)
        if delta > 0:
            self._value += delta


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._check_unlabelled()
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._check_unlabelled()
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        self._check_unlabelled()
        return self._value

    def _own_samples(self):
        yield self.name, {}, self._value

    def _reset_own(self) -> None:
        self._value = 0.0

    def _export_own(self):
        return self._value

    def _merge_own(self, own, previous_own) -> None:
        # Gauges merge additively by delta: fleet gauges (active
        # sessions, queue depths) sum naturally; point-in-time gauges
        # drift toward the sum of sources, which the catalogue accepts
        # as the fleet-wide reading.
        if own is None:
            return
        self._value += float(own) - float(previous_own or 0.0)


class Histogram(_Metric):
    """Cumulative-bucket histogram with ``_sum`` and ``_count``."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
    ):
        super().__init__(name, help, labelnames, max_label_sets)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise MetricError(f"{name}: at least one bucket required")
        if len(set(bounds)) != len(bounds):
            raise MetricError(f"{name}: duplicate bucket bounds")
        self.buckets = bounds
        self._bucket_counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, buckets=self.buckets)

    def observe(self, value: float) -> None:
        self._check_unlabelled()
        value = float(value)
        self._sum += value
        self._count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self._bucket_counts[index] += 1

    @property
    def count(self) -> int:
        self._check_unlabelled()
        return self._count

    @property
    def sum(self) -> float:
        self._check_unlabelled()
        return self._sum

    def bucket_counts(self) -> Dict[float, int]:
        """Cumulative count per upper bound (plus ``+Inf`` = count)."""
        self._check_unlabelled()
        cumulative = dict(zip(self.buckets, self._bucket_counts))
        cumulative[float("inf")] = self._count
        return cumulative

    def _own_samples(self):
        for bound, cumulative in self.bucket_counts().items():
            label = "+Inf" if bound == float("inf") else _format_value(bound)
            yield f"{self.name}_bucket", {"le": label}, float(cumulative)
        yield f"{self.name}_sum", {}, self._sum
        yield f"{self.name}_count", {}, float(self._count)

    def _reset_own(self) -> None:
        self._bucket_counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0

    def _export_own(self):
        return {
            "buckets": list(self.buckets),
            "bucket_counts": list(self._bucket_counts),
            "sum": self._sum,
            "count": self._count,
        }

    def _merge_own(self, own, previous_own) -> None:
        if own is None:
            return
        if tuple(own.get("buckets", ())) != self.buckets:
            raise MetricError(
                f"{self.name}: cannot merge histogram with different buckets"
            )
        prev_counts = (
            previous_own.get("bucket_counts") if previous_own else None
        ) or [0] * len(self.buckets)
        for index, count in enumerate(own["bucket_counts"]):
            self._bucket_counts[index] += count - prev_counts[index]
        self._sum += own["sum"] - (previous_own["sum"] if previous_own else 0.0)
        self._count += own["count"] - (
            previous_own["count"] if previous_own else 0
        )


def _format_value(value: float) -> str:
    return f"{int(value)}" if float(value).is_integer() else repr(value)


class MetricsRegistry:
    """Holds every metric of the process; renders the exposition text."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if (
                    type(existing) is not type(metric)
                    or existing.labelnames != metric.labelnames
                ):
                    raise MetricError(
                        f"metric {metric.name!r} already registered with a "
                        "different type or label set"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        """Register (or fetch the identically-shaped existing) counter."""
        metric = self._register(Counter(name, help, labelnames))
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        metric = self._register(Gauge(name, help, labelnames))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> Histogram:
        metric = self._register(Histogram(name, help, labelnames, buckets))
        assert isinstance(metric, Histogram)
        return metric

    # -- introspection --------------------------------------------------

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: object) -> bool:
        return name in self._metrics

    def collect(self) -> Iterator[_Metric]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def reset(self) -> None:
        """Zero every metric (keeps registrations); for tests and the
        CLI's ``metrics --exercise``."""
        for metric in self._metrics.values():
            metric.reset()

    # -- cross-process transfer -----------------------------------------

    def export_state(self) -> Dict[str, Dict]:
        """JSON-able snapshot of every metric, for shipping over a pipe.

        A pool worker calls this on its own registry and sends the
        result to the parent over the control pipe; the parent folds it
        in with :meth:`merge_exported` so ``repro metrics`` reports
        fleet-wide numbers.
        """
        return {
            name: metric.export_state()
            for name, metric in sorted(self._metrics.items())
        }

    def merge_exported(
        self,
        state: Dict[str, Dict],
        previous: Optional[Dict[str, Dict]] = None,
    ) -> None:
        """Fold a worker's :meth:`export_state` into this registry.

        ``previous`` must be the snapshot from the *same source* that
        was last merged (or ``None`` for its first report): counters
        and histograms apply only the delta since then, so repeated
        polls of a live worker never double count.  Metric names this
        process has not registered are skipped — the worker imports the
        same instrumented modules, so a missing name means a module the
        parent never loaded, not data loss that matters here.
        """
        previous = previous or {}
        for name, metric_state in state.items():
            metric = self._metrics.get(name)
            if metric is None:
                continue
            metric.merge_state(metric_state, previous.get(name))

    # -- rendering ------------------------------------------------------

    def render(self, include_empty: bool = True) -> str:
        """The Prometheus text exposition format."""
        lines: List[str] = []
        for metric in self.collect():
            samples = list(metric.samples())
            if not samples and not include_empty:
                continue
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample_name, labels, value in samples:
                if labels:
                    rendered = ",".join(
                        f'{key}="{_escape(str(val))}"'
                        for key, val in sorted(labels.items())
                    )
                    lines.append(
                        f"{sample_name}{{{rendered}}} {_format_value(value)}"
                    )
                else:
                    lines.append(f"{sample_name} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


#: The process-wide default registry every instrumented module writes to.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (one level of indirection for tests)."""
    return REGISTRY
