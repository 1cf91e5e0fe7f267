"""Seeded click, session and edit generators for the ledger's workloads.

Pure Python on purpose: nothing here imports ``repro``, so the program
under test only ever receives what :mod:`harness` renders from these
records (SPARQL text or explorer calls), the generator is testable
without a dataset, and no change under ``src/`` (``repro.datasets.zipf``
has a Zipf allocator too) can move the benchmark's inputs.

**Exact quotas, seeded order.**  Shapes, classes, ladder depths and
``via`` properties are *apportioned* (largest remainder over the stated
weights; round robin for ``via``), not drawn: every seed yields the
same multiset of clicks in a different order.  A percentile over
property-chart clicks therefore refers to the same population for every
seed, and a run does the same amount of work; drawing the class at
random instead makes the median jump between the owl:Thing cluster
(~700 ms) and the small classes (~2 ms) from one seed to the next, and
drawing ``via`` at random moved explore_ladder's throughput by 12 %.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "SHAPES",
    "CLASSES",
    "VIA_PROPERTIES",
    "SCENARIOS",
    "LONG_SCENARIOS",
    "PROPERTY_SHAPES",
    "Click",
    "Sizes",
    "apportion",
    "zipf_weights",
    "sizes_for",
    "chart_clicks",
    "ladder_clicks",
    "pool_sessions",
    "solo_clicks",
    "edit_batches",
]

#: (shape, percent).  "Property-chart clicks" are the first two.
SHAPES: Tuple[Tuple[str, int], ...] = (
    ("prop_out", 25),
    ("prop_in", 25),
    ("subclass", 20),
    ("connections", 10),
    ("table", 10),
    ("closure", 10),
)
PROPERTY_SHAPES = ("prop_out", "prop_in")

#: Zipf(1.0) rank order: owl:Thing, then ten populated DBO classes.
CLASSES: Tuple[str, ...] = (
    "Thing", "Agent", "Person", "Place", "Work", "Organisation",
    "Species", "Philosopher", "Politician", "Scientist", "Athlete",
)

#: Outgoing properties of each class that composite clicks go through
#: (connections chart, depth-2 ``and_property``, depth-3 ``reroot_via``).
#: Pinned here so a click is fully described without consulting the
#: dataset; the harness checks each one exists in the pinned graph.
VIA_PROPERTIES: Dict[str, Tuple[str, ...]] = {
    "Thing": ("isPartOf", "starring", "birthPlace"),
    "Agent": ("birthPlace", "deathPlace", "location"),
    "Person": ("birthPlace", "deathPlace", "residence"),
    "Place": ("isPartOf", "country"),
    "Work": ("starring", "author", "publisher"),
    "Organisation": ("location", "headquarter"),
    "Species": ("conservationStatus",),
    "Philosopher": ("birthPlace", "influencedBy", "deathPlace"),
    "Politician": ("birthPlace", "country", "spouse"),
    "Scientist": ("birthPlace", "deathPlace", "almaMater"),
    "Athlete": ("birthPlace", "deathPlace", "almaMater"),
}

#: ``demo_scenarios`` names in their Zipf rank order (the order
#: :func:`repro.serve.loadgen.demo_scenarios` returns them in).
SCENARIOS: Tuple[str, ...] = (
    "overview", "influence_path", "heavy_aggregation",
    "error_detection", "hierarchy_walk",
)

#: The walks that contain the outgoing property chart (the paper's heavy
#: query); ~3x the cost of the others.
LONG_SCENARIOS = ("overview", "heavy_aggregation")

#: explore_ladder depth shares (percent).  A depth-1 property chart is
#: answered by the views in O(bars); a composite pattern (depth 2, 3)
#: falls through to the backend and costs ~50x more.  With 75 % at depth
#: 1 the views/backend boundary sits at the 75th percentile of
#: property-chart latency: 25 points above the median, 15 below p90, so
#: neither reported percentile can hop between the two clusters.
LADDER_DEPTHS: Tuple[Tuple[int, int], ...] = ((1, 75), (2, 15), (3, 10))

#: One edit batch after this many explore_ladder clicks.
EDIT_EVERY = 50
#: Triples added and triples removed per edit batch.
EDIT_TRIPLES = 200


@dataclass(frozen=True)
class Click:
    """One exploration click: what the user pressed, not how it is run."""

    id: int
    shape: str
    cls: str
    depth: int = 1
    #: The via property (a local name from VIA_PROPERTIES[cls]) for
    #: connections clicks and for depth 2/3; "" when unused.
    via: str = ""

    @property
    def is_property_chart(self) -> bool:
        return self.shape in PROPERTY_SHAPES

    @property
    def is_fig4(self) -> bool:
        """The paper's Fig. 4 click: the level-zero (root class, depth 1)
        outgoing property chart."""
        return self.shape == "prop_out" and self.cls == CLASSES[0] and self.depth == 1


@dataclass(frozen=True)
class Sizes:
    """Work per run, derived from ``--seconds`` (see :func:`sizes_for`)."""

    chart_clicks: int
    ladder_clicks: int
    pool_sessions: int
    solo_clicks: int
    edit_probes: int


#: Work per second of ``--seconds``, calibrated on the 2-core reference
#: box so a run's timed phase lasts about ``--seconds`` (chart_paged, by
#: design the same clicks as chart_oneshot, takes ~1.6x that).
CHART_CLICKS_PER_S = 7.0
LADDER_CLICKS_PER_S = 37.0
POOL_SESSIONS_PER_S = 1.4


def sizes_for(seconds: float) -> Sizes:
    """The fixed amount of work a run of ``seconds`` measures.

    A run is a fixed click count, not a deadline: counts repeat exactly
    for a seed, and a percentile always covers the same population.
    """
    return Sizes(
        chart_clicks=max(20, round(CHART_CLICKS_PER_S * seconds)),
        ladder_clicks=max(100, round(LADDER_CLICKS_PER_S * seconds)),
        pool_sessions=max(5, round(POOL_SESSIONS_PER_S * seconds)),
        solo_clicks=3,
        edit_probes=7,
    )


def zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


def apportion(total: int, weights: Sequence[float]) -> List[int]:
    """Split ``total`` into integer counts proportional to ``weights``
    (largest remainder; ties go to the earlier index)."""
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    counts = [int(value) for value in exact]
    order = sorted(
        range(len(weights)), key=lambda i: (-(exact[i] - counts[i]), i)
    )
    for index in order[: total - sum(counts)]:
        counts[index] += 1
    return counts


def _cells(total: int) -> List[Tuple[Tuple[str, str], int]]:
    """((shape, class), count) with exact shape and class quotas."""
    cells: List[Tuple[Tuple[str, str], int]] = []
    shape_counts = apportion(total, [percent for _, percent in SHAPES])
    class_weights = zipf_weights(len(CLASSES))
    for (shape, _), count in zip(SHAPES, shape_counts):
        for cls, n in zip(CLASSES, apportion(count, class_weights)):
            if n:
                cells.append(((shape, cls), n))
    return cells


def _via(cls: str, k: int) -> str:
    """The via property of the ``k``-th composite click of a cell."""
    names = VIA_PROPERTIES[cls]
    return names[k % len(names)]


def _seeded_order(seed_key: str, records: list) -> List[Click]:
    """``records`` of (shape, cls, depth, via) as Clicks in seeded order."""
    random.Random(seed_key).shuffle(records)
    return [
        Click(id=index, shape=shape, cls=cls, depth=depth, via=via)
        for index, (shape, cls, depth, via) in enumerate(records)
    ]


def chart_clicks(seed: int, total: int) -> List[Click]:
    """The depth-1 click list shared by chart_oneshot and chart_paged."""
    records = [
        (shape, cls, 1, _via(cls, k) if shape == "connections" else "")
        for (shape, cls), count in _cells(total)
        for k in range(count)
    ]
    return _seeded_order(f"chart:{seed}", records)


def ladder_clicks(seed: int, total: int) -> List[Click]:
    """explore_ladder clicks: the chart mix at depths 1-3.

    Depth is apportioned *within* each (shape, class) cell so every cell
    keeps the stated depth shares up to rounding.  A connections click
    needs a pane whose members have the via property, which a re-rooted
    (depth-3) pane's members do not: its depth-3 share goes to depth 2.
    """
    depth_weights = [percent for _, percent in LADDER_DEPTHS]
    connection_weights = depth_weights[:1] + [sum(depth_weights[1:])]
    records: List[Tuple[str, str, int, str]] = []
    for (shape, cls), count in _cells(total):
        weights = connection_weights if shape == "connections" else depth_weights
        composite = 0
        for (depth, _), n in zip(LADDER_DEPTHS, apportion(count, weights)):
            for _k in range(n):
                if depth > 1 or shape == "connections":
                    records.append((shape, cls, depth, _via(cls, composite)))
                    composite += 1
                else:
                    records.append((shape, cls, depth, ""))
    return _seeded_order(f"ladder:{seed}", records)


def pool_sessions(seed: int, total: int) -> List[str]:
    """Scenario name per session: Zipf quotas over SCENARIOS; the long
    walks first, seeded order within the long and within the short ones.

    A finite batch ends with a tail in which one worker idles, and how
    long that tail is depends on which walks come last: fully random
    orders moved the batch's wall time by 10 % at this size.  A closed
    loop with explorers arriving for ever has no tail; submitting the
    long walks first keeps the batch close to that.
    """
    rng = random.Random(f"pool:{seed}")
    counts = dict(zip(SCENARIOS, apportion(total, zipf_weights(len(SCENARIOS)))))
    long_walks = [n for n in SCENARIOS if n in LONG_SCENARIOS for _ in range(counts[n])]
    short_walks = [n for n in SCENARIOS if n not in LONG_SCENARIOS for _ in range(counts[n])]
    rng.shuffle(long_walks)
    rng.shuffle(short_walks)
    return long_walks + short_walks


def solo_clicks(total: int) -> List[Click]:
    """The Fig. 4 click, ``total`` times, for sending one at a time
    through the idle pool (nothing for a seed to vary)."""
    return [Click(id=index, shape="prop_out", cls=CLASSES[0]) for index in range(total)]


def edit_batches(seed: int, batches: int, pool_size: int) -> List[List[int]]:
    """Indices (into a pool of editable triples) each batch removes.

    Batch ``k`` removes ``result[k]`` and adds back what batch ``k-1``
    removed, so the graph stays EDIT_TRIPLES short of the pinned dataset
    throughout; ``result[0]`` is removed untimed during set-up.
    Consecutive batches are disjoint, so every add and every remove is a
    real change.
    """
    if pool_size < 2 * EDIT_TRIPLES:
        raise ValueError("edit pool too small for disjoint consecutive batches")
    rng = random.Random(f"edit:{seed}")
    result: List[List[int]] = []
    previous: set = set()
    for _ in range(batches + 1):
        chosen: List[int] = []
        taken = set(previous)
        while len(chosen) < EDIT_TRIPLES:
            index = rng.randrange(pool_size)
            if index not in taken:
                taken.add(index)
                chosen.append(index)
        result.append(chosen)
        previous = set(chosen)
    return result
