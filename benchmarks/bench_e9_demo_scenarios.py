"""E9 — the Section 5 demonstration scenarios, scripted end-to-end:

1. understanding a large unfamiliar dataset;
2. a sophisticated exploration path (people influencing philosophers);
3. performance with the solutions turned on and off;
4. erroneous-data detection (people born in resources of type food).
"""

from repro.core import Direction, MemberPattern, property_chart_query
from repro.datasets import generate_dbpedia, inject_birthplace_errors
from repro.datasets.dbpedia import OWL_THING
from repro.endpoint import LocalEndpoint, SimClock
from repro.explorer import ExplorerSession, Tab
from repro.perf import Decomposer, ElindaEndpoint, HeavyQueryStore, MaterializedViews
from repro.rdf import DBO


def test_e9_scenario1_overview(benchmark, dbpedia_graph, report):
    """'Examine the bar chart showing the first-level classes' and
    'analyze the twenty most significant properties of the largest
    class'."""

    def run():
        session = ExplorerSession(LocalEndpoint(dbpedia_graph, clock=SimClock()))
        first_level = session.current_pane.subclass_chart()
        largest = first_level.sorted_bars()[0]
        pane = session.open_subclass_pane(session.current_pane, largest.label)
        pane.switch_tab(Tab.PROPERTY_DATA)
        top20 = pane.property_chart(Direction.OUTGOING).top(20)
        return first_level, largest, top20

    first_level, largest, top20 = benchmark(run)
    rows = [("largest class", largest.label.local_name, largest.size)]
    rows += [
        (f"property #{i+1}", bar.label.local_name, f"{bar.coverage:.0%}")
        for i, bar in enumerate(top20[:5])
    ]
    report("e9_scenario1", "E9.1 - overview of an unfamiliar dataset", rows)
    assert len(first_level) == 49
    assert len(top20) == 20


def test_e9_scenario2_influence_path(benchmark, dbpedia_graph):
    """'The types of people that influenced philosophers.'"""

    def run():
        session = ExplorerSession(LocalEndpoint(dbpedia_graph, clock=SimClock()))
        pane = session.panes[0]
        for cls in ("Agent", "Person", "Philosopher"):
            pane = session.open_subclass_pane(pane, DBO.term(cls))
        pane.switch_tab(Tab.CONNECTIONS)
        return pane.connections_chart(DBO.term("influencedBy"))

    chart = benchmark(run)
    types = {bar.label.local_name for bar in chart if bar.size > 0}
    assert {"Philosopher", "Scientist"} <= types


def test_e9_scenario3_solutions_on_off(benchmark, dbpedia_graph, dbpedia_config, report):
    """'Explorations that entail heavy queries ... with the discussed
    solutions turned on and off.'

    The mirror holds (an emulation of) the full knowledge base, so its
    cost model is scaled to the emulated dataset size — that is what
    makes the query heavy when both solutions are off."""
    from repro.datasets.dbpedia import recommended_scale
    from repro.endpoint import LOCAL_PROFILE

    heavy = property_chart_query(MemberPattern.of_type(OWL_THING))
    scaled = LOCAL_PROFILE.scaled(recommended_scale(dbpedia_config))

    def run():
        clock = SimClock()
        stack = ElindaEndpoint(
            LocalEndpoint(dbpedia_graph, clock=clock, cost_model=scaled),
            hvs=HeavyQueryStore(clock=clock, threshold_ms=0.01),
            decomposer=Decomposer(MaterializedViews(dbpedia_graph, track=False), clock=clock),
            use_hvs=False,
            use_decomposer=False,
        )
        off = stack.query(heavy).elapsed_ms
        stack.use_decomposer = True
        decomposer_on = stack.query(heavy).elapsed_ms
        stack.use_hvs = True
        stack.query(heavy)  # decomposer again (HVS still empty)
        stack.use_decomposer = False
        stack.query(heavy)  # backend -> cached
        hvs_on = stack.query(heavy).elapsed_ms
        return off, decomposer_on, hvs_on

    off, decomposer_on, hvs_on = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "e9_scenario3",
        "E9.3 - heavy query with solutions on/off (simulated ms)",
        [
            ("all solutions off", f"{off:.1f}"),
            ("decomposer on", f"{decomposer_on:.1f}"),
            ("hvs hit", f"{hvs_on:.1f}"),
        ],
    )
    assert off > decomposer_on > hvs_on


def test_e9_scenario4_error_detection(benchmark, dbpedia_config, report):
    """'People who are indicated to be born in resources of type food.'"""

    def run():
        dataset = generate_dbpedia(dbpedia_config)
        planted = inject_birthplace_errors(dataset, count=5)
        session = ExplorerSession(LocalEndpoint(dataset.graph, clock=SimClock()))
        pane = session.panes[0]
        pane = session.open_subclass_pane(pane, DBO.term("Agent"))
        pane = session.open_subclass_pane(pane, DBO.term("Person"))
        pane.switch_tab(Tab.CONNECTIONS)
        chart = pane.connections_chart(DBO.term("birthPlace"))
        food_bar = chart.get(DBO.term("Food"))
        suspicious = session.engine.materialise(food_bar)
        return planted, suspicious

    planted, suspicious = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "e9_scenario4",
        "E9.4 - erroneous birthPlace detection",
        [("planted errors", len(planted)), ("foods surfaced", len(suspicious.uris))],
    )
    assert suspicious.uris == frozenset(food for _p, food in planted)
