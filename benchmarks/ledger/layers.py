"""Per-layer metrics: how a traced run reads each one.

Three sources, all outside ``src/``:

* **spans** the recorder (:mod:`trace`) wraps around public callables
  for the duration of the traced run (:func:`install`);
* **deltas of the public ``repro.obs.metrics.REGISTRY`` counters** over
  the timed regions only (:class:`CounterWindow` is closed while the
  harness computes a reference answer through the same engine);
* **probes**: direct timed calls into one layer on fixed inputs (index
  scans, wire encode/decode, ``explain_physical``, a views build, the
  pool on one worker and in-process).

Names are ``<package>.<module>.<metric>``, declared in ``/BENCHMARK.json``
(:mod:`spec`).  A layer the workload never calls reports 0 — zero calls,
zero time.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, Iterable, List, Sequence, Tuple

import repro.endpoint.virtuoso as virtuoso_module
import repro.perf.plancache as plancache_module
import repro.sparql.executor as executor_module
import repro.sparql.optimizer as optimizer_module
from repro.core.engine import ChartEngine
from repro.core.statistics import StatisticsService
from repro.endpoint import LocalEndpoint, RemoteEndpoint, SimulatedVirtuosoServer
from repro.endpoint.wire import decode_page, encode_success
from repro.explorer import ExplorerSession, Pane
from repro.obs.explain import explain_physical
from repro.obs.metrics import REGISTRY
from repro.perf.decomposer import Decomposer
from repro.perf.hvs import HeavyQueryStore
from repro.perf.router import ElindaEndpoint
from repro.perf.views import MaterializedViews
from repro.rdf.snapshot import open_snapshot
from repro.rdf.stats import GraphStatistics
from repro.rdf.vocab import RDF
from repro.serve import PoolFrontend, ServeFrontend
from repro.sparql.evaluator import Evaluator
from repro.sparql.planner import PhysicalPlanFactory, build_physical_plan

from . import harness
from . import workloads as wl
from .spec import PER_LAYER
from .trace import Recorder, Span, totals_by_name

__all__ = [
    "CounterWindow",
    "install",
    "collect",
    "ladder_boundary",
]

#: ``explain_physical`` operator label -> the ``sparql.physical`` module
#: that implements it (Materialize, the plan-root decode, counts as rows).
_OPERATOR_MODULE = {
    "Singleton": "scan", "Values": "scan", "PatternScan": "scan",
    "PathScan": "ppath",
    "Filter": "rows", "Extend": "rows", "Project": "rows",
    "Distinct": "rows", "Reduced": "rows", "Slice": "rows",
    "Materialize": "rows",
    "Union": "join", "HashJoin": "join", "LeftJoin": "join", "Minus": "join",
    "Aggregation": "aggregate", "OrderBy": "aggregate", "TopK": "aggregate",
}


# ----------------------------------------------------------------------
# REGISTRY deltas
# ----------------------------------------------------------------------


def _registry_counts() -> Dict[Tuple[str, Tuple], float]:
    counts = {}
    for metric in REGISTRY.collect():
        for sample_name, labels, value in metric.samples():
            counts[(sample_name, tuple(sorted(labels.items())))] = value
    return counts


class CounterWindow:
    """Sums REGISTRY deltas over the intervals it is open."""

    def __init__(self) -> None:
        self.totals: Dict[Tuple[str, Tuple], float] = {}
        self._opened = None

    def open(self) -> None:
        self._opened = _registry_counts()

    def close(self) -> None:
        if self._opened is None:
            return
        now = _registry_counts()
        for key, value in now.items():
            moved = value - self._opened.get(key, 0.0)
            if moved:
                self.totals[key] = self.totals.get(key, 0.0) + moved
        self._opened = None

    def get(self, name: str, **labels: str) -> float:
        """Total movement of ``name`` over the samples matching ``labels``."""
        wanted = set(labels.items())
        return sum(
            value
            for (sample, sample_labels), value in self.totals.items()
            if sample == name and wanted <= set(sample_labels)
        )


# ----------------------------------------------------------------------
# Patches
# ----------------------------------------------------------------------


def _answered(response) -> int:
    return 0 if response is None else 1


def install(recorder: Recorder) -> CounterWindow:
    """Wrap every layer boundary a click can cross; returns the counter
    window, wired to close while the recorder is suspended."""
    patch = recorder.patch
    # Front half (a plan-cache miss runs the three below inside get()).
    patch(plancache_module.PlanCache, "get", "perf.plancache.get")
    patch(plancache_module, "parse_query", "sparql.parser.parse")
    patch(plancache_module, "translate_query", "sparql.algebra.translate")
    patch(optimizer_module, "optimize", "sparql.optimizer.optimize")
    patch(GraphStatistics, "build", "rdf.stats.build")
    # The two engines.
    patch(Evaluator, "run_translated", "sparql.evaluator.run")
    patch(plancache_module.CachedPlan, "physical_factory", "sparql.planner.factory")
    patch(PhysicalPlanFactory, "instantiate", "sparql.planner.instantiate")
    patch(executor_module, "run_quantum", "sparql.executor.run_quantum")
    patch(executor_module, "encode_continuation", "sparql.executor.encode_token", len)
    patch(executor_module, "decode_continuation", "sparql.executor.decode_token")
    patch(executor_module, "restore_plan", "sparql.executor.restore_plan")
    # Endpoints and the wire (virtuoso.py imported the codecs by name).
    patch(virtuoso_module, "encode_success", "endpoint.wire.encode", lambda r: len(r.body))
    patch(virtuoso_module, "decode_page", "endpoint.wire.decode")
    patch(SimulatedVirtuosoServer, "handle", "endpoint.virtuoso.handle")
    patch(RemoteEndpoint, "query", "endpoint.remote.query")
    patch(LocalEndpoint, "query", "endpoint.local.query")
    # The perf ladder.
    patch(ElindaEndpoint, "query", "perf.router.query")
    patch(HeavyQueryStore, "lookup", "perf.hvs.lookup", _answered)
    patch(HeavyQueryStore, "record", "perf.hvs.record")
    patch(MaterializedViews, "try_answer", "perf.views.try_answer", _answered)
    patch(Decomposer, "try_answer", "perf.decomposer.try_answer", _answered)
    # Explorer.
    for method in ("subclass_chart", "property_chart", "object_chart",
                   "materialise", "refresh_count"):
        patch(ChartEngine, method, f"core.engine.{method}")
    for method in ("instance_count", "direct_subclasses", "all_subclasses"):
        patch(StatisticsService, method, f"core.statistics.{method}")
    for method in ("__init__", "subclass_chart", "property_chart",
                   "connections_chart", "corner_statistics"):
        patch(Pane, method, f"explorer.pane.{method.strip('_')}")
    for method in ("open_class_pane", "close_pane"):
        patch(ExplorerSession, method, f"explorer.session.{method}")
    # Serving.
    patch(PoolFrontend, "run", "serve.pool.run")
    patch(ServeFrontend, "run", "serve.frontend.run")
    window = CounterWindow()
    recorder.on_suspend.append(window.close)
    recorder.on_resume.append(window.open)
    return window


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------


def scan_probe(graph) -> float:
    """Index-scan throughput in million triples per second: drain
    ``(?, rdf:type, ?)``, then ``(s, ?, ?)`` for the first 1,000
    subjects it produced."""
    type_id = graph.dictionary.lookup(RDF.term("type"))
    subjects: List[int] = []
    seen = set()
    drained = 0
    started = perf_counter()
    for s, _p, _o in graph.triples_ids(None, type_id, None):
        drained += 1
        if len(subjects) < 1000 and s not in seen:
            seen.add(s)
            subjects.append(s)
    for s in subjects:
        for _ in graph.triples_ids(s, None, None):
            drained += 1
    return drained / (perf_counter() - started) / 1e6


def wire_probe(graph, texts: Iterable[str]) -> Dict[str, float]:
    """SPARQL-JSON encode/decode cost on the full results of ``texts``."""
    rows = 0
    body_bytes = 0
    encode_s = 0.0
    decode_s = 0.0
    for text in texts:
        result = executor_module.run_to_completion(build_physical_plan(graph, text))
        started = perf_counter()
        response = encode_success(result, elapsed_ms=0.0)
        encoded = perf_counter()
        decoded, _token, _complete = decode_page(response)
        decode_s += perf_counter() - encoded
        encode_s += encoded - started
        if len(decoded.rows) != len(result.rows):
            raise AssertionError("wire round trip lost rows")
        rows += len(result.rows)
        body_bytes += len(response.body)
    if not rows:
        return {}
    return {
        "endpoint.wire.encode_ms_per_krow": encode_s * 1e6 / rows,
        "endpoint.wire.decode_ms_per_krow": decode_s * 1e6 / rows,
        "endpoint.wire.body_bytes_per_row": body_bytes / rows,
    }


def physical_shares(graph, texts: Iterable[str]) -> Dict[str, float]:
    """Operator self time by ``sparql.physical`` module, as shares of the
    total, from ``explain_physical(analyze=True)`` run page by page."""
    by_module: Dict[str, float] = {}
    for text in texts:
        explained = explain_physical(
            graph, text, analyze=True, page_size=harness.PAGE_SIZE
        )
        for node in explained.plan.walk():
            module = _OPERATOR_MODULE[node.label]
            by_module[module] = by_module.get(module, 0.0) + (node.self_wall_ms or 0.0)
    total = sum(by_module.values())
    if not total:
        return {}
    return {
        f"sparql.physical.{module}_self_share": by_module.get(module, 0.0) / total
        for module in ("scan", "join", "aggregate", "rows", "ppath")
    }


# ----------------------------------------------------------------------
# Reading spans
# ----------------------------------------------------------------------


class _Spans:
    """Convenience views over one traced run's spans."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = list(spans)
        self.by_name = totals_by_name(self.spans)

    def count(self, name: str) -> int:
        totals = self.by_name.get(name)
        return totals.count if totals else 0

    def total_s(self, *names: str) -> float:
        return sum(self.by_name[n].total_s for n in names if n in self.by_name)

    def mean_ms(self, name: str) -> float:
        totals = self.by_name.get(name)
        return totals.total_s / totals.count * 1e3 if totals else 0.0

    def mean_self_ms(self, name: str) -> float:
        totals = self.by_name.get(name)
        return totals.self_s / totals.count * 1e3 if totals else 0.0

    def self_s_with_prefix(self, *prefixes: str) -> float:
        return sum(
            totals.self_s
            for name, totals in self.by_name.items()
            if name.startswith(prefixes)
        )

    def durations(self, name: str, clicks=None, value=None) -> List[float]:
        return [
            span.duration
            for span in self.spans
            if span.name == name
            and (clicks is None or span.click in clicks)
            and (value is None or span.value == value)
        ]

    def leaf_durations(self, name: str) -> List[float]:
        """Durations of ``name`` spans that have no child span."""
        parents = {span.parent for span in self.spans}
        return [
            span.duration
            for index, span in enumerate(self.spans)
            if span.name == name and index not in parents
        ]

    def first_and_rest(self, name: str, clicks) -> Tuple[List[float], List[float]]:
        """Durations of ``name`` spans split into the first one of each
        click in ``clicks`` and every other one (any click)."""
        seen = set()
        first: List[float] = []
        rest: List[float] = []
        for span in self.spans:
            if span.name != name:
                continue
            if span.click not in seen:
                seen.add(span.click)
                if span.click in clicks:
                    first.append(span.duration)
            else:
                rest.append(span.duration)
        return first, rest


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ladder_boundary(spans: Sequence[Span], property_clicks: set) -> float:
    """Percentile of explore_ladder property-chart latency at which the
    views-answered clicks end and the backend-answered ones begin."""
    reached_backend = {
        span.click for span in spans if span.name == "endpoint.local.query"
    } & property_clicks
    return 100.0 * (1.0 - _ratio(len(reached_backend), len(property_clicks)))


# ----------------------------------------------------------------------
# The per-layer record of one traced run
# ----------------------------------------------------------------------


def collect(workload, result, recorder: Recorder, window: CounterWindow,
            build_steps: Dict[str, float], reference_graph) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json -> value for this traced run.

    Call after the run, while the patches are still installed: the
    workload may make further traced passes first (pool_serve does)."""
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    values.update(build_steps)
    workload.comparison_passes(result, recorder, reference_graph)
    spans = _Spans(recorder.spans)
    clicks = max(result.completed, 1)

    # Front half and plan cache: wherever a plan cache was consulted.
    hits = window.get("repro_plancache_requests_total", outcome="hit")
    misses = window.get("repro_plancache_requests_total", outcome="miss")
    values["perf.plancache.hit_ratio"] = _ratio(hits, hits + misses)
    values["perf.plancache.hit_us"] = _mean(spans.leaf_durations("perf.plancache.get")) * 1e6
    values["perf.plancache.invalidations"] = window.get("repro_plancache_invalidations_total")
    values["sparql.parser.parse_ms"] = spans.mean_ms("sparql.parser.parse")
    values["sparql.algebra.translate_ms"] = spans.mean_ms("sparql.algebra.translate")
    values["sparql.optimizer.optimize_ms"] = spans.mean_ms("sparql.optimizer.optimize")
    values["rdf.stats.build_ms"] = spans.mean_ms("rdf.stats.build")
    fresh_instantiations = [
        span.duration
        for span in spans.spans
        if span.name == "sparql.planner.instantiate"
        and spans.spans[span.parent].name != "sparql.executor.restore_plan"
    ]
    values["sparql.planner.build_ms"] = _ratio(
        (spans.total_s("sparql.planner.factory") + sum(fresh_instantiations)) * 1e3,
        spans.count("sparql.parser.parse"),
    )

    # Recursive evaluator.
    property_clicks = workload.property_click_ids
    values["sparql.evaluator.exec_ms"] = (
        _mean(spans.durations("sparql.evaluator.run", clicks=property_clicks)) * 1e3
    )
    bindings = window.get("repro_eval_bindings_total")
    values["sparql.evaluator.bindings"] = bindings
    values["sparql.evaluator.pattern_scans"] = window.get("repro_eval_pattern_scans_total")
    values["sparql.evaluator.us_per_binding"] = _ratio(
        spans.total_s("sparql.evaluator.run") * 1e6, bindings
    )
    values["endpoint.local.self_ms"] = spans.mean_self_ms("endpoint.local.query")

    # Physical executor and tokens.
    first, rest = spans.first_and_rest("sparql.executor.run_quantum", property_clicks)
    values["sparql.executor.first_quantum_ms"] = _mean(first) * 1e3
    values["sparql.executor.quantum_ms"] = _mean(rest) * 1e3
    values["sparql.executor.pages_per_click"] = _ratio(result.pages, clicks)
    values["sparql.executor.operator_steps"] = window.get("repro_exec_operator_steps_total")
    values["sparql.executor.token_encode_ms"] = spans.mean_ms("sparql.executor.encode_token")
    values["sparql.executor.token_restore_ms"] = _ratio(
        spans.total_s("sparql.executor.decode_token", "sparql.executor.restore_plan") * 1e3,
        spans.count("sparql.executor.restore_plan"),
    )
    if result.token_bytes:
        values["sparql.executor.token_bytes_p50"] = statistics.median(result.token_bytes)
        values["sparql.executor.token_bytes_max"] = max(result.token_bytes)
    values["rdf.dictionary.decodes_per_row"] = _ratio(
        window.get("repro_dict_decode_total"), result.result_rows
    )
    values["endpoint.virtuoso.self_ms"] = spans.mean_self_ms("endpoint.virtuoso.handle")

    _PROBES[workload.name](workload, values, result, spans, window, reference_graph)
    return values


def probe_in_memory(workload, values, result, spans, window, reference_graph) -> None:
    """rdf.graph rows, shared by the two in-memory workloads (the run's
    own store is released by now; the probes read the reference store)."""
    values["rdf.graph.scan_mtriples_per_s"] = scan_probe(reference_graph)
    values["rdf.graph.index_lookups"] = _ratio(
        window.get("repro_graph_index_lookups_total"), max(result.completed, 1)
    )
    # Whole batch over its triples, listeners included: chart_oneshot's
    # graph has none attached, explore_ladder's has the views, so the
    # difference between the two workloads is view delta maintenance.
    # (A span per delta would cost more than the delta.)
    values["rdf.graph.edit_us_per_triple"] = (
        statistics.median(result.edit_ms) * 1e3 / (2 * wl.EDIT_TRIPLES)
    )


def probe_snapshot(values, snapshot) -> None:
    values["rdf.snapshot.file_bytes"] = snapshot.file_bytes()
    values["rdf.snapshot.scan_mtriples_per_s"] = scan_probe(snapshot)


def probe_chart_paged(workload, values, result, spans, window, _reference_graph) -> None:
    values["rdf.snapshot.resident_mb"] = max(
        0.0, (workload.rss_after_run - workload.rss_before_run) / 2**20
    )
    heavy = sorted(
        {
            harness.query_text(click)
            for click in workload.clicks()
            if click.is_property_chart or click.shape == "closure"
        }
    )
    snapshot = open_snapshot(workload.snapshot_path)
    try:
        probe_snapshot(values, snapshot)
        values.update(physical_shares(snapshot, heavy))
        values.update(
            wire_probe(snapshot, [text for text in heavy if "GROUP BY" in text])
        )
    finally:
        snapshot.close()


def probe_explore_ladder(workload, values, result, spans, window, reference_graph) -> None:
    probe_in_memory(workload, values, result, spans, window, reference_graph)
    edits = max(len(result.edit_ms), 1)
    routes = {
        route: window.get("repro_router_queries_total", route=route)
        for route in ("hvs", "views", "decomposer", "backend")
    }
    routed = sum(routes.values())
    for route, count in routes.items():
        values[f"perf.router.share_{route}"] = _ratio(count, routed)
    values["perf.router.self_us"] = spans.mean_self_ms("perf.router.query") * 1e3
    hvs_hits = window.get("repro_hvs_lookups_total", outcome="hit")
    hvs_misses = window.get("repro_hvs_lookups_total", outcome="miss")
    values["perf.hvs.hit_ratio"] = _ratio(hvs_hits, hvs_hits + hvs_misses)
    values["perf.hvs.lookup_us"] = spans.mean_ms("perf.hvs.lookup") * 1e3
    values["perf.hvs.invalidations"] = window.get("repro_hvs_invalidations_total")
    started = perf_counter()
    MaterializedViews(reference_graph, track=False)
    values["perf.views.build_s"] = perf_counter() - started
    values["perf.views.answer_us"] = _mean(spans.durations("perf.views.try_answer", value=1.0)) * 1e6
    values["perf.views.miss_us"] = _mean(spans.durations("perf.views.try_answer", value=0.0)) * 1e6
    values["perf.views.deltas_per_edit"] = _ratio(window.get("repro_view_deltas_total"), edits)
    values["perf.views.connection_rebuilds"] = window.get(
        "repro_view_rebuilds_total", reason="connection"
    )
    values["perf.decomposer.rewritten_share"] = _ratio(
        window.get("repro_decomposer_requests_total", outcome="rewritten"), routed
    )
    clicks = max(result.completed, 1)
    values["core.engine.self_ms"] = spans.self_s_with_prefix("core.engine.") * 1e3 / clicks
    values["explorer.session.self_ms"] = (
        spans.self_s_with_prefix("explorer.", "core.statistics.") * 1e3 / clicks
    )


def probe_pool_serve(workload, values, result, spans, window, _reference_graph) -> None:
    snapshot = open_snapshot(workload.snapshot_path)
    try:
        probe_snapshot(values, snapshot)
    finally:
        snapshot.close()
    values["serve.pool.quanta_per_s"] = _ratio(result.pages, workload.serve_wall_s)
    dispatches = {
        route: window.get("repro_pool_dispatches_total", route=route)
        for route in ("affinity", "steal", "respawn_requeue")
    }
    values["serve.pool.steal_share"] = _ratio(dispatches["steal"], sum(dispatches.values()))
    values["serve.pool.restarts"] = window.get("repro_pool_worker_restarts_total")
    values["serve.frontend.retry_turns"] = window.get("repro_serve_turns_total", result="retry")
    values["serve.frontend.wait_turns"] = window.get("repro_serve_turns_total", result="wait")
    values["serve.pool.scaling_2w_over_1w"] = _ratio(
        workload.one_worker_wall_s, workload.serve_wall_s
    )
    values["serve.pool.ipc_overhead_ratio"] = _ratio(
        workload.one_worker_wall_s, workload.in_process_wall_s
    )


_PROBES = {
    "chart_oneshot": probe_in_memory,
    "chart_paged": probe_chart_paged,
    "explore_ladder": probe_explore_ladder,
    "pool_serve": probe_pool_serve,
}
