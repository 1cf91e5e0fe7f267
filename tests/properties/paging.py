"""Suspension schedules shared by the paged ≡ one-shot suites.

The physical engine works a block at a time (``next(limit)``, one
``BLOCK`` constant), so the interesting suspension points are the block
boundaries: row budgets of exactly ``BLOCK`` and its neighbours, and
deadlines that fire after a single block step — wherever that leaves
the plan (an aggregation with part of a block absorbed, a scan in the
middle of an outer row's candidates, a join between build blocks).
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.rdf import Graph, URI
from repro.sparql.evaluator import EvalStats
from repro.sparql.executor import (
    decode_continuation,
    encode_continuation,
    restore_plan,
    run_quantum,
)
from repro.sparql.physical import BLOCK

#: The smallest row budget and the ones around the block boundary.
BOUNDARY_PAGE_SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1)

#: A deadline that is already past when the first block step returns:
#: the quantum is exactly one ``root.next(limit)`` call, so a run of
#: these suspends (and round-trips a token) at *every* step of every
#: build phase — deterministically, whatever the machine's speed.
ONE_STEP = {"quantum_ms": 1e-9}

#: EXISTS shapes for the paged ≡ one-shot and oracle suites, over three
#: predicates ``{p0}`` ``{p1}`` ``{p2}`` (N3).  Each runs a physical
#: sub-plan per outer row inside one operator step.
EXISTS_SHAPES = [
    "SELECT ?s ?o WHERE {{ ?s {p0} ?o FILTER EXISTS {{ ?o {p1} ?x }} }}",
    "SELECT ?s ?o WHERE {{ ?s {p0} ?o FILTER NOT EXISTS {{ ?s {p1} ?o }} }}",
    # The EXISTS is the OPTIONAL's join condition; its pattern reaches
    # for a variable (?s) only the outer side binds.
    "SELECT ?s ?v WHERE {{ ?s {p0} ?o OPTIONAL {{ ?o {p1} ?v "
    "FILTER EXISTS {{ ?v {p2} ?s }} }} }} ORDER BY ?s",
    "SELECT ?s (COUNT(*) AS ?n) WHERE {{ ?s {p0} ?o "
    "FILTER (EXISTS {{ ?o {p1} ?x }} || NOT EXISTS {{ ?s {p2} ?y }}) }} GROUP BY ?s",
]

#: Extra vocabulary for :func:`wide_graphs`.
WIDE_TERMS = [URI(f"http://ex.org/w{i}") for i in range(40)]


def page_sizes(small: int):
    """Row budgets: the suites' small ones plus the block boundary."""
    return st.one_of(
        st.integers(min_value=1, max_value=small),
        st.sampled_from(BOUNDARY_PAGE_SIZES),
    )


def budgets():
    """One quantum's budget: rows, a one-step deadline, or both."""
    rows = page_sizes(6).map(lambda size: {"page_size": size})
    return st.one_of(
        rows,
        st.just(ONE_STEP),
        rows.map(lambda budget: {**budget, **ONE_STEP}),
    )


def schedules():
    """Budgets applied round-robin, one per quantum."""
    return st.lists(budgets(), min_size=1, max_size=6)


@st.composite
def wide_graphs(draw, subjects, predicates, objects) -> Graph:
    """A few hundred triples (seeded — one draw, not one per triple):
    enough rows that scans, builds and emits cross block boundaries.
    The given vocabulary is widened with :data:`WIDE_TERMS`."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    subjects = list(subjects) + WIDE_TERMS
    objects = list(objects) + WIDE_TERMS
    graph = Graph()
    with graph.bulk():
        for _ in range(rng.randint(BLOCK + 2, 2 * BLOCK + BLOCK // 2)):
            graph.add(
                rng.choice(subjects),
                rng.choice(predicates),
                rng.choice(objects),
            )
    return graph


def run_paged(factory, store, text, schedule):
    """Run a query quantum by quantum, round-tripping the continuation
    token into a brand-new operator tree at every suspension.

    Returns ``(rows, stats, pages)`` — ``stats`` is the sum of the
    per-page ``EvalStats`` deltas, which must equal a one-shot run's.
    """
    plan = factory.instantiate(store)
    rows = []
    stats = EvalStats()
    for turn in range(100_000):
        budget = schedule[turn % len(schedule)]
        page = run_quantum(plan, **budget)
        assert len(page.rows) <= budget.get("page_size", BLOCK)
        rows.extend(page.rows)
        stats.merge(page.stats)
        if page.complete:
            return rows, stats, turn + 1
        token = encode_continuation(plan, store, text)
        plan = restore_plan(factory, store, decode_continuation(token))
    raise AssertionError("paged execution did not terminate")


def stats_tuple(stats):
    return (
        stats.intermediate_bindings,
        stats.pattern_scans,
        stats.groups,
        stats.results,
    )
