"""The Section 4 performance story (Fig. 4), interactively.

Runs the level-zero property expansions — the heaviest queries eLinda
issues — against three store configurations and prints the simulated
latencies next to the paper's, then demonstrates incremental evaluation
in remote compatibility mode.

Run:  python examples/performance_modes.py
"""

from repro.core import Direction, MemberPattern, property_chart_query
from repro.datasets import DBpediaConfig, generate_dbpedia, recommended_scale
from repro.datasets.dbpedia import OWL_THING
from repro.endpoint import (
    REMOTE_VIRTUOSO_PROFILE,
    RemoteEndpoint,
    SimClock,
    SimulatedVirtuosoServer,
)
from repro.perf import (
    Decomposer,
    ElindaEndpoint,
    HeavyQueryStore,
    IncrementalConfig,
    IncrementalEvaluator,
    MaterializedViews,
)

PAPER = {
    ("virtuoso", "outgoing"): 454_000,
    ("virtuoso", "incoming"): 124_000,
    ("decomposer", "outgoing"): 1_500,
    ("decomposer", "incoming"): 1_200,
    ("hvs", "outgoing"): 80,
    ("hvs", "incoming"): 80,
}


def fmt(ms: float) -> str:
    return f"{ms / 1000:8.2f} s" if ms >= 1000 else f"{ms:7.1f} ms"


def main() -> None:
    config = DBpediaConfig()
    dataset = generate_dbpedia(config)
    graph = dataset.graph
    clock = SimClock()

    profile = REMOTE_VIRTUOSO_PROFILE.scaled(recommended_scale(config))
    server = SimulatedVirtuosoServer(graph, clock=clock, cost_model=profile)
    remote = RemoteEndpoint(server)
    decomposer = Decomposer(MaterializedViews(graph, track=False), clock=clock)
    hvs = HeavyQueryStore(clock=clock)

    queries = {
        "outgoing": property_chart_query(MemberPattern.of_type(OWL_THING)),
        "incoming": property_chart_query(
            MemberPattern.of_type(OWL_THING), Direction.INCOMING
        ),
    }

    print("Fig. 4 — level-zero property expansions (simulated time)")
    print(f"{'configuration':<14} {'direction':<10} {'paper':>10} {'measured':>12}")
    for direction, query in queries.items():
        response = remote.query(query)
        hvs.record(query, response.result, response.elapsed_ms, 0)
        cells = {
            "virtuoso": response.elapsed_ms,
            "decomposer": decomposer.try_answer(query).elapsed_ms,
            "hvs": hvs.lookup(query, 0).elapsed_ms,
        }
        for configuration, measured in cells.items():
            paper = PAPER[(configuration, direction)]
            print(
                f"{configuration:<14} {direction:<10} "
                f"{fmt(paper):>10} {fmt(measured):>12}"
            )

    # --- the routed eLinda endpoint does all of this transparently ----
    print("\nRouting the outgoing query through the eLinda endpoint twice:")
    stack = ElindaEndpoint(remote, hvs=HeavyQueryStore(clock=clock), decomposer=decomposer)
    for attempt in (1, 2):
        response = stack.query(queries["outgoing"])
        print(
            f"  attempt {attempt}: answered by {response.source:<10} "
            f"in {fmt(response.elapsed_ms)}"
        )

    # --- incremental evaluation (remote compatibility mode) -----------
    print(
        "\nIncremental evaluation of the outgoing chart "
        "(N = 2000 triples per window):"
    )
    evaluator = IncrementalEvaluator(
        graph, IncrementalConfig(window_size=2000), clock=SimClock()
    )
    for partial in evaluator.run(queries["outgoing"]):
        print(
            f"  window {partial.step:>2}: {len(partial.result.rows):>5} chart rows"
            f"  (+{partial.elapsed_ms:7.2f} ms, total {partial.cumulative_ms:8.2f} ms)"
        )
        if partial.step >= 8 and not partial.complete:
            print("  ... (continues until the full chart is computed)")
            break


if __name__ == "__main__":
    main()
