"""Property-based tests for PR 9: materialized chart views and the
incremental aggregate-merge fixes.

Two invariants:

* **Delta ≡ rebuild** — after any random sequence of ``add``/``remove``
  mutations, a listener-tracked :class:`MaterializedViews` holds exactly
  the tables a from-scratch rebuild over the final graph would build.
* **Merged ≡ one-shot** — incremental evaluation of SUM/MIN/MAX over
  ``xsd:decimal``/``xsd:double`` literals converges to the one-shot
  engine answer at every window size, under both windowing policies.
  Literal values are binary-exact multiples of 0.25 so float summation
  is order-independent and the comparison is exact, not approximate.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Direction
from repro.perf import IncrementalConfig, IncrementalEvaluator, MaterializedViews
from repro.rdf import Graph, Literal, RDF, RDFS, URI
from repro.sparql import evaluate

_RDF_TYPE = RDF.term("type")
_SUBCLASS = RDFS.term("subClassOf")

_CLASSES = [URI(f"http://ex/C{i}") for i in range(4)]
_PROPS = [URI(f"http://ex/p{i}") for i in range(3)]
_NODES = [URI(f"http://ex/n{i}") for i in range(8)]

_XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"
_XSD_DOUBLE = "http://www.w3.org/2001/XMLSchema#double"


# ----------------------------------------------------------------------
# Delta maintenance ≡ from-scratch rebuild
# ----------------------------------------------------------------------


@st.composite
def random_triples(draw):
    """A random triple in the small class/property/node universe."""
    kind = draw(st.sampled_from(["type", "subclass", "edge"]))
    if kind == "type":
        return (
            draw(st.sampled_from(_NODES)),
            _RDF_TYPE,
            draw(st.sampled_from(_CLASSES)),
        )
    if kind == "subclass":
        return (
            draw(st.sampled_from(_CLASSES)),
            _SUBCLASS,
            draw(st.sampled_from(_CLASSES)),
        )
    return (
        draw(st.sampled_from(_NODES)),
        draw(st.sampled_from(_PROPS)),
        draw(st.sampled_from(_NODES)),
    )


@st.composite
def mutation_scripts(draw):
    """A base graph plus a mixed add/remove mutation sequence."""
    base = draw(st.lists(random_triples(), max_size=20))
    script = draw(
        st.lists(
            st.tuples(st.sampled_from(["add", "remove"]), random_triples()),
            max_size=25,
        )
    )
    return base, script


class TestDeltaEqualsRebuild:
    @settings(max_examples=60, deadline=None)
    @given(mutation_scripts())
    def test_tracked_views_match_fresh_rebuild(self, case):
        base, script = case
        graph = Graph()
        for s, p, o in base:
            graph.add(s, p, o)
        views = MaterializedViews(graph)
        for op, (s, p, o) in script:
            if op == "add":
                graph.add(s, p, o)
            else:
                graph.remove(s, p, o)
        assert views.is_fresh
        rebuilt = MaterializedViews(graph, track=False)
        assert views.table_state() == rebuilt.table_state()

    @settings(max_examples=30, deadline=None)
    @given(mutation_scripts())
    def test_tracked_views_answer_like_rebuild(self, case):
        base, script = case
        graph = Graph()
        for s, p, o in base:
            graph.add(s, p, o)
        views = MaterializedViews(graph)
        for op, (s, p, o) in script:
            if op == "add":
                graph.add(s, p, o)
            else:
                graph.remove(s, p, o)
        rebuilt = MaterializedViews(graph, track=False)
        for cls in _CLASSES:
            assert views.instance_count(cls) == rebuilt.instance_count(cls)
            for direction in (Direction.OUTGOING, Direction.INCOMING):
                assert views.property_expansion(
                    [cls], direction
                ) == rebuilt.property_expansion([cls], direction)


# ----------------------------------------------------------------------
# Incremental merge ≡ one-shot over non-integer numerics
# ----------------------------------------------------------------------

_VALUE_PROP = "http://ex/value"

_SUM_QUERY = f"SELECT (SUM(?v) AS ?total) WHERE {{ ?s <{_VALUE_PROP}> ?v }}"
_MINMAX_QUERY = (
    f"SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi)"
    f" WHERE {{ ?s <{_VALUE_PROP}> ?v }}"
)
_GROUPED_SUM = (
    f"SELECT ?s (SUM(?v) AS ?total)"
    f" WHERE {{ ?s <{_VALUE_PROP}> ?v }} GROUP BY ?s"
)


@st.composite
def numeric_value_graphs(draw):
    """A graph of subject→value edges with exact decimal/double literals.

    Values are multiples of 0.25 in a small range: every partial sum is
    exactly representable in binary floating point, so the incremental
    merge and the one-shot engine must agree bit-for-bit.
    """
    count = draw(st.integers(min_value=1, max_value=14))
    graph = Graph()
    for index in range(count):
        subject = URI(f"http://ex/s{draw(st.integers(0, 4))}")
        quarters = draw(st.integers(min_value=-200, max_value=200))
        value = quarters / 4.0
        datatype = draw(st.sampled_from([_XSD_DECIMAL, _XSD_DOUBLE]))
        if datatype == _XSD_DOUBLE:
            lexical = repr(value)
        else:
            lexical = f"{value:.2f}"
        graph.add(
            URI(f"http://ex/s{index}_{subject.value.rsplit('/', 1)[-1]}"),
            URI(_VALUE_PROP),
            Literal(lexical, datatype=datatype),
        )
    return graph


def _term_key(term):
    # Aggregate columns compare by numeric identity with the datatype
    # included (widening must match the engine); group keys are URIs.
    if isinstance(term, Literal):
        return (term.datatype, float(term.lexical))
    return term.n3()


def _normalized(rows):
    """Rows keyed for order-independent comparison."""
    return sorted(
        tuple(sorted((name, _term_key(term)) for name, term in row.items()))
        for row in rows
    )


def _value_tie_graph(first, second):
    """Two members whose values are equal but not the same term."""
    graph = Graph()
    for index, datatype in enumerate((first, second)):
        graph.add(
            URI(f"http://ex/s{index}_s0"),
            URI(_VALUE_PROP),
            Literal("0.25", datatype=datatype),
        )
    return graph


class TestIncrementalMergeEqualsOneShot:
    @settings(max_examples=40, deadline=None)
    @given(
        numeric_value_graphs(),
        st.integers(min_value=1, max_value=6),
        st.booleans(),
        st.sampled_from([_SUM_QUERY, _MINMAX_QUERY, _GROUPED_SUM]),
    )
    # The once-rare flake, pinned: MIN/MAX over "0.25"^^decimal and
    # "0.25"^^double used to return whichever member the scan (one
    # shot) or the window merge met first/last, so the two disagreed
    # whenever the tie straddled a window boundary.
    @example(_value_tie_graph(_XSD_DECIMAL, _XSD_DOUBLE), 1, False, _MINMAX_QUERY)
    @example(_value_tie_graph(_XSD_DOUBLE, _XSD_DECIMAL), 1, True, _MINMAX_QUERY)
    def test_final_merge_matches_engine(
        self, graph, window_size, by_subject, query
    ):
        evaluator = IncrementalEvaluator(
            graph,
            IncrementalConfig(window_size=window_size, by_subject=by_subject),
        )
        final = evaluator.run_to_completion(query)
        assert final.complete
        assert _normalized(final.result.rows) == _normalized(
            evaluate(graph, query).rows
        )
