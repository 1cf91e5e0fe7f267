"""E3 / Fig. 3 — the basic system architecture.

Fig. 3 is a wiring diagram (browser <-> eLinda endpoint <-> Virtuoso,
with HVS and decomposer inside the eLinda endpoint); we regenerate it as
a routing trace and measure the router's overhead on top of a direct
backend call."""

from repro.core import MemberPattern, property_chart_query
from repro.datasets.dbpedia import OWL_THING
from repro.endpoint import LocalEndpoint, SimClock
from repro.perf import (
    Decomposer,
    ElindaEndpoint,
    HeavyQueryStore,
    MaterializedViews,
)

HEAVY = property_chart_query(MemberPattern.of_type(OWL_THING))
LIGHT = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"


def _stack(graph):
    clock = SimClock()
    return ElindaEndpoint(
        LocalEndpoint(graph, clock=clock),
        hvs=HeavyQueryStore(clock=clock, threshold_ms=0.01),
        decomposer=Decomposer(MaterializedViews(graph, track=False), clock=clock),
    )


def test_fig3_routing_trace(benchmark, dbpedia_graph, report):
    def run_trace():
        stack = _stack(dbpedia_graph)
        stack.query(HEAVY)          # decomposer
        stack.use_decomposer = False
        stack.query(HEAVY)          # backend, then cached (low threshold)
        stack.query(HEAVY)          # hvs
        stack.use_decomposer = True
        stack.query(LIGHT)          # backend (not decomposable)
        return stack

    stack = benchmark(run_trace)
    rows = [("step", "routed to", "simulated ms")]
    for index, entry in enumerate(stack.query_log, start=1):
        rows.append((index, entry.source, f"{entry.elapsed_ms:.2f}"))
    report("fig3_architecture", "Fig. 3 - eLinda endpoint routing", rows)

    sources = [entry.source for entry in stack.query_log]
    assert sources == ["decomposer", "local", "hvs", "local"]


def test_fig3_router_overhead_on_light_queries(benchmark, dbpedia_graph):
    """Routing a light query through the full stack adds only the cache
    probe + detector parse on top of the direct call."""
    stack = _stack(dbpedia_graph)
    direct = LocalEndpoint(dbpedia_graph, clock=SimClock())

    def routed_light():
        return stack.query(LIGHT).result

    result = benchmark(routed_light)
    assert result.rows
    # Same answer directly.
    assert len(direct.query(LIGHT).result.rows) == len(result.rows)
