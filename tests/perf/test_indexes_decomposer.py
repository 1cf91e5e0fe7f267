"""Unit tests for the specialised indexes and the decomposer."""

import pytest

from repro.core import Direction, MemberPattern, property_chart_query
from repro.datasets.dbpedia import OWL_THING
from repro.endpoint import LocalEndpoint, SimClock
from repro.perf import Decomposer, MaterializedViews, match_property_expansion
from repro.rdf import DBO


def canon(result):
    return sorted(
        tuple(sorted((name, term.n3()) for name, term in row.items()))
        for row in result.rows
    )


@pytest.fixture(scope="module")
def indexes(dbpedia_graph):
    return MaterializedViews(dbpedia_graph, track=False)


class TestSpecializedIndexes:
    def test_instance_counts_match_graph(self, indexes, dbpedia):
        philosopher = dbpedia.facts["philosopher"]
        assert indexes.instance_count(philosopher) == dbpedia.instance_count(
            philosopher
        )

    def test_unknown_class_is_empty(self, indexes):
        assert indexes.instances(DBO.term("NoSuchClass")) == frozenset()
        assert indexes.instance_count(DBO.term("NoSuchClass")) == 0

    def test_property_expansion_counts_match_reference(
        self, indexes, dbpedia, dbpedia_graph
    ):
        from repro.core import BarType, property_expansion, root_bar

        philosopher = dbpedia.facts["philosopher"]
        bar = root_bar(dbpedia_graph, philosopher)
        reference = property_expansion(dbpedia_graph, bar, Direction.OUTGOING)
        rows = indexes.property_expansion([philosopher], Direction.OUTGOING)
        by_prop = {row.prop: row.subject_count for row in rows}
        assert by_prop == {bar.label: bar.size for bar in reference}

    def test_triple_counts_exceed_subject_counts(self, indexes, dbpedia):
        rows = indexes.property_expansion(
            [dbpedia.facts["philosopher"]], Direction.OUTGOING
        )
        assert all(row.triple_count >= row.subject_count for row in rows)

    def test_rows_sorted_by_support(self, indexes):
        rows = indexes.property_expansion([OWL_THING], Direction.OUTGOING)
        counts = [row.subject_count for row in rows]
        assert counts == sorted(counts, reverse=True)

    def test_subclass_chain_uses_smallest_class(self, indexes, dbpedia):
        # Thing + Agent + Person + Philosopher intersect to Philosopher.
        chain = [
            OWL_THING,
            dbpedia.facts["agent"],
            dbpedia.facts["person"],
            dbpedia.facts["philosopher"],
        ]
        rows_chain = indexes.property_expansion(chain, Direction.OUTGOING)
        rows_direct = indexes.property_expansion(
            [dbpedia.facts["philosopher"]], Direction.OUTGOING
        )
        assert [
            (r.prop, r.subject_count) for r in rows_chain
        ] == [(r.prop, r.subject_count) for r in rows_direct]

    def test_non_nested_classes_fall_through(self, indexes, dbpedia):
        # Philosopher and Food instance sets do not nest.
        rows = indexes.property_expansion(
            [dbpedia.facts["philosopher"], dbpedia.facts["food"]],
            Direction.OUTGOING,
        )
        assert rows is None

    def test_unknown_class_in_list_falls_through(self, indexes):
        assert (
            indexes.property_expansion(
                [DBO.term("NoSuchClass")], Direction.INCOMING
            )
            is None
        )

    def test_entries_touched_accumulates(self, dbpedia_graph):
        local = MaterializedViews(dbpedia_graph, track=False)
        assert local.entries_touched == 0
        local.property_expansion([OWL_THING], Direction.OUTGOING)
        assert local.entries_touched > 0


class TestDetector:
    def test_matches_generated_outgoing_query(self):
        query = property_chart_query(MemberPattern.of_type(OWL_THING))
        spec = match_property_expansion(query)
        assert spec is not None
        assert spec.classes == (OWL_THING,)
        assert spec.direction is Direction.OUTGOING

    def test_matches_generated_incoming_query(self):
        query = property_chart_query(
            MemberPattern.of_type(OWL_THING), Direction.INCOMING
        )
        spec = match_property_expansion(query)
        assert spec.direction is Direction.INCOMING

    def test_matches_subclass_chain_pattern(self, dbpedia):
        pattern = (
            MemberPattern.of_type(OWL_THING)
            .and_type(dbpedia.facts["agent"])
            .and_type(dbpedia.facts["person"])
        )
        spec = match_property_expansion(property_chart_query(pattern))
        assert len(spec.classes) == 3

    def test_rejects_values_restricted_pattern(self, dbpedia):
        # Filter expansions (VALUES sets) are outside decomposer scope.
        pattern = MemberPattern.of_values(list(dbpedia.facts["philosophers"])[:3])
        assert match_property_expansion(property_chart_query(pattern)) is None

    def test_rejects_property_constrained_pattern(self):
        pattern = MemberPattern.of_type(OWL_THING).and_property(
            DBO.term("birthPlace")
        )
        assert match_property_expansion(property_chart_query(pattern)) is None

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT ?s WHERE { ?s ?p ?o }",
            "ASK { ?s ?p ?o }",
            "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
            "not even sparql",
        ],
    )
    def test_rejects_other_queries(self, query):
        assert match_property_expansion(query) is None


class TestDecomposer:
    def test_answers_match_engine_exactly(self, dbpedia_graph, indexes):
        endpoint = LocalEndpoint(dbpedia_graph)
        decomposer = Decomposer(indexes)
        for direction in (Direction.OUTGOING, Direction.INCOMING):
            query = property_chart_query(
                MemberPattern.of_type(OWL_THING), direction
            )
            via_engine = endpoint.select(query)
            via_decomposer = decomposer.try_answer(query)
            assert via_decomposer is not None
            assert canon(via_decomposer.result) == canon(via_engine)

    def test_answers_subclass_chain(self, dbpedia_graph, indexes, dbpedia):
        endpoint = LocalEndpoint(dbpedia_graph)
        decomposer = Decomposer(indexes)
        pattern = MemberPattern.of_type(OWL_THING).and_type(
            dbpedia.facts["politician"]
        )
        query = property_chart_query(pattern)
        assert canon(decomposer.try_answer(query).result) == canon(
            endpoint.select(query)
        )

    def test_out_of_scope_returns_none_and_counts_miss(self, indexes):
        decomposer = Decomposer(indexes)
        assert decomposer.try_answer("SELECT ?s WHERE { ?s ?p ?o }") is None
        assert decomposer.misses == 1

    def test_latency_is_seconds_not_minutes(self, indexes):
        clock = SimClock()
        decomposer = Decomposer(indexes, clock=clock)
        query = property_chart_query(MemberPattern.of_type(OWL_THING))
        response = decomposer.try_answer(query)
        assert 100 < response.elapsed_ms < 10_000
        assert response.source == "decomposer"
        assert clock.now_ms == response.elapsed_ms

    def test_hit_counter(self, indexes):
        decomposer = Decomposer(indexes)
        query = property_chart_query(MemberPattern.of_type(OWL_THING))
        decomposer.try_answer(query)
        assert decomposer.hits == 1
