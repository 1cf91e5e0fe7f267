"""Unit tests for the algebra optimizer passes and the TopK operator."""

import pytest

from repro.rdf import RDF, Graph, Literal, URI
from repro.sparql.algebra import (
    BGP,
    AlgebraNode,
    Distinct,
    Filter,
    Join,
    LeftJoin,
    OrderBy,
    Slice,
    TopK,
    Union,
    ValuesTable,
    translate_query,
)
from repro.sparql.ast import TriplePatternNode, Var
from repro.sparql.evaluator import Evaluator
from repro.sparql.physical import MaterializeOp, drain
from repro.sparql.planner import compile_node
from repro.sparql.optimizer import PASS_NAMES, optimize
from repro.sparql.parser import parse_query

EX = "http://example.org/"


def _walk(node):
    yield node
    for name in ("input", "left", "right"):
        child = getattr(node, name, None)
        if isinstance(child, AlgebraNode):
            yield from _walk(child)
    for child in getattr(node, "branches", None) or []:
        yield from _walk(child)


def _find(node, kind):
    return [n for n in _walk(node) if isinstance(n, kind)]


def _plan(query_text, graph=None, passes=None):
    raw = translate_query(parse_query(query_text))
    optimized, report = optimize(raw, graph=graph, passes=passes)
    return raw, optimized, report


@pytest.fixture
def graph():
    g = Graph()
    for i in range(10):
        g.add(URI(f"{EX}s{i}"), URI(f"{EX}common"), Literal(str(i)))
    g.add(URI(f"{EX}s0"), URI(f"{EX}rare"), URI(f"{EX}o"))
    g.add(URI(f"{EX}s1"), RDF.term("type"), URI(f"{EX}Thing"))
    return g


class TestConstantFolding:
    def test_true_filter_removed(self):
        _, optimized, report = _plan(
            f"SELECT ?s WHERE {{ ?s <{EX}common> ?o FILTER(1 = 1) }}"
        )
        assert not _find(optimized, Filter)
        assert not _find(optimized, BGP)[0].filters
        assert "constant_folding" in report.passes_applied() or (
            "filter_pushdown" in report.passes_applied()
        )

    def test_false_filter_becomes_empty_table(self, graph):
        _, optimized, _ = _plan(
            f"SELECT ?s WHERE {{ ?s <{EX}common> ?o FILTER(1 = 2) }}"
        )
        tables = _find(optimized, ValuesTable)
        assert tables and all(not t.rows for t in tables)
        query = parse_query(
            f"SELECT ?s WHERE {{ ?s <{EX}common> ?o FILTER(1 = 2) }}"
        )
        assert Evaluator(graph).run_translated(query, optimized).rows == []

    def test_folds_constant_subexpression(self):
        _, optimized, report = _plan(
            f"SELECT ?s WHERE {{ ?s <{EX}common> ?o FILTER(?o = STR(1 + 2)) }}"
        )
        assert ("constant_folding", "folded STR(1 + 2)") in report.notes or any(
            name == "constant_folding" for name, _ in report.notes
        )


class TestFilterPushdown:
    def test_filter_inlined_into_bgp(self):
        _, optimized, _ = _plan(
            f"SELECT ?s WHERE {{ ?s <{EX}common> ?o FILTER(?o = \"3\") }}"
        )
        assert not _find(optimized, Filter)
        bgp = _find(optimized, BGP)[0]
        assert len(bgp.filters) == 1

    def test_conjunction_split_and_inlined(self):
        _, optimized, _ = _plan(
            f"SELECT ?s WHERE {{ ?s <{EX}common> ?o FILTER(?o != \"1\" && ?o != \"2\") }}"
        )
        assert not _find(optimized, Filter)
        assert len(_find(optimized, BGP)[0].filters) == 2

    def test_filter_pushed_below_optional(self):
        _, optimized, _ = _plan(
            f"SELECT * WHERE {{ ?s <{EX}common> ?o "
            f"OPTIONAL {{ ?s <{EX}rare> ?x }} FILTER(?o = \"0\") }}"
        )
        left_joins = _find(optimized, LeftJoin)
        assert left_joins
        assert isinstance(left_joins[0].left, BGP)
        assert left_joins[0].left.filters
        assert not _find(optimized, Filter)

    def test_filter_distributed_over_union(self):
        _, optimized, _ = _plan(
            f"SELECT ?s WHERE {{ {{ ?s <{EX}common> ?o }} UNION "
            f"{{ ?s <{EX}rare> ?o }} FILTER(BOUND(?s)) }}"
        )
        union = _find(optimized, Union)[0]
        for branch in union.branches:
            assert _find(branch, BGP)[0].filters
        assert not _find(optimized, Filter)

    def test_exists_filter_never_moved(self):
        _, optimized, _ = _plan(
            f"SELECT ?s WHERE {{ ?s <{EX}common> ?o "
            f"FILTER(EXISTS {{ ?s <{EX}rare> ?x }}) }}"
        )
        assert _find(optimized, Filter), "EXISTS must stay a Filter operator"
        assert not _find(optimized, BGP)[0].filters

    def test_correctness_against_unoptimized(self, graph):
        query = parse_query(
            f"SELECT ?s ?o WHERE {{ ?s <{EX}common> ?o FILTER(?o > \"3\") }}"
        )
        raw = translate_query(query)
        optimized, _ = optimize(raw, graph=graph)
        before = Evaluator(graph).run_translated(query, raw)
        after = Evaluator(graph).run_translated(query, optimized)
        assert sorted(
            tuple(sorted(r.items())) for r in after.rows
        ) == sorted(tuple(sorted(r.items())) for r in before.rows)


class TestBGPMerge:
    def test_adjacent_bgps_merged(self):
        p1 = TriplePatternNode(Var("s"), URI(f"{EX}common"), Var("o"))
        p2 = TriplePatternNode(Var("s"), URI(f"{EX}rare"), Var("x"))
        node = Join(BGP((p1,)), BGP((p2,)))
        optimized, report = optimize(node, passes=["bgp_merge"])
        assert isinstance(optimized, BGP)
        assert optimized.patterns == (p1, p2)
        assert "bgp_merge" in report.passes_applied()


class TestProjectionPushdown:
    def test_projection_pushed_below_join(self):
        _, optimized, report = _plan(
            f"SELECT ?s WHERE {{ ?s <{EX}common> ?o "
            f"OPTIONAL {{ ?s <{EX}rare> ?x }} }}",
            passes=["projection_pushdown"],
        )
        assert "projection_pushdown" in report.passes_applied()

    def test_distinct_blocks_pruning(self):
        _, _, report = _plan(
            f"SELECT DISTINCT * WHERE {{ ?s <{EX}common> ?o "
            f"OPTIONAL {{ ?s <{EX}rare> ?x }} }}",
            passes=["projection_pushdown"],
        )
        assert "projection_pushdown" not in report.passes_applied()


class TestStatsReorder:
    def test_rare_pattern_runs_first(self, graph):
        _, optimized, report = _plan(
            f"SELECT ?s WHERE {{ ?s <{EX}common> ?o . ?s <{EX}rare> ?x }}",
            graph=graph,
        )
        bgp = _find(optimized, BGP)[0]
        assert bgp.preordered
        assert bgp.patterns[0].predicate == URI(f"{EX}rare")

    def test_reorder_without_graph_is_noop(self):
        _, optimized, _ = _plan(
            f"SELECT ?s WHERE {{ ?s <{EX}common> ?o . ?s <{EX}rare> ?x }}",
            passes=["stats_reorder"],
        )
        assert not _find(optimized, BGP)[0].preordered

    def test_statistics_follow_graph_version(self, graph):
        stats = graph.statistics()
        assert stats is graph.statistics(), "statistics cached per version"
        graph.add(URI(f"{EX}s9"), URI(f"{EX}rare"), URI(f"{EX}o2"))
        assert graph.statistics() is not stats, "cache dropped on update"


class TestTopKFusion:
    def test_order_limit_fuses(self):
        _, optimized, report = _plan(
            f"SELECT ?s ?o WHERE {{ ?s <{EX}common> ?o }} "
            "ORDER BY ?o LIMIT 3 OFFSET 2"
        )
        top = _find(optimized, TopK)
        assert top and top[0].limit == 3 and top[0].offset == 2
        assert not _find(optimized, OrderBy)
        assert not _find(optimized, Slice)
        assert "top_k_fusion" in report.passes_applied()

    def test_order_without_limit_does_not_fuse(self):
        _, optimized, _ = _plan(
            f"SELECT ?s WHERE {{ ?s <{EX}common> ?o }} ORDER BY ?o"
        )
        assert not _find(optimized, TopK)
        assert _find(optimized, OrderBy)

    def test_distinct_between_order_and_limit_blocks_fusion(self):
        _, optimized, _ = _plan(
            f"SELECT DISTINCT ?s WHERE {{ ?s <{EX}common> ?o }} "
            "ORDER BY ?s LIMIT 3"
        )
        assert not _find(optimized, TopK)
        assert _find(optimized, Distinct)

    def test_topk_matches_sort_and_slice_with_ties(self):
        g = Graph()
        for i in range(20):
            # Only 4 distinct keys -> plenty of ties for the heap to
            # break by arrival order, exactly like the stable sort.
            g.add(URI(f"{EX}s{i}"), URI(f"{EX}p"), Literal(str(i % 4)))
        for limit, offset in [(1, 0), (3, 2), (5, 0), (50, 3), (2, 40)]:
            text = (
                f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }} "
                f"ORDER BY ?o LIMIT {limit} OFFSET {offset}"
            )
            query = parse_query(text)
            raw = translate_query(query)
            optimized, _ = optimize(raw, passes=["top_k_fusion"])
            assert _find(optimized, TopK)
            before = Evaluator(g).run_translated(query, raw)
            after = Evaluator(g).run_translated(query, optimized)
            assert after.rows == before.rows, text

    def test_topk_limit_zero_yields_nothing(self, graph):
        query = parse_query(
            f"SELECT ?s WHERE {{ ?s <{EX}common> ?o }} ORDER BY ?o LIMIT 0"
        )
        optimized, _ = optimize(translate_query(query))
        result = Evaluator(graph).run_translated(query, optimized)
        assert result.rows == []


class TestOptimizeAPI:
    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError):
            optimize(BGP(()), passes=["not_a_pass"])

    def test_pass_names_complete(self):
        assert list(PASS_NAMES) == [
            "constant_folding",
            "bgp_merge",
            "filter_pushdown",
            "projection_pushdown",
            "stats_reorder",
            "top_k_fusion",
        ]

    def test_public_evaluate(self, graph):
        # A bare algebra tree runs through the planner's public
        # compile_node, under the plan-root decode boundary.
        bgp = BGP(
            (TriplePatternNode(Var("s"), URI(f"{EX}rare"), Var("o")),)
        )
        runtime = Evaluator(graph)
        rows = drain(MaterializeOp(runtime, compile_node(bgp)(runtime)))
        assert rows == [{"s": URI(f"{EX}s0"), "o": URI(f"{EX}o")}]


class TestDistinctKeying:
    def test_distinct_handles_heterogeneous_rows(self, graph):
        # OPTIONAL produces rows with different bound-variable sets;
        # DISTINCT must key them consistently without re-sorting each row.
        text = (
            f"SELECT DISTINCT ?s ?x WHERE {{ ?s <{EX}common> ?o "
            f"OPTIONAL {{ ?s <{EX}rare> ?x }} }}"
        )
        result = Evaluator(graph).run(parse_query(text))
        seen = [tuple(sorted(r.items())) for r in result.rows]
        assert len(seen) == len(set(seen))
        assert len(result.rows) == 10
