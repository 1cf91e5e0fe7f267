"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_dbpedia(self, capsys):
        code, out, _err = run(capsys, "stats")
        assert code == 0
        assert "triples:" in out
        assert "49 direct / 330 total" in out

    def test_lgd(self, capsys):
        code, out, _err = run(capsys, "--dataset", "lgd", "stats")
        assert code == 0
        assert "root |S|:      0" in out

    def test_yago(self, capsys):
        code, out, _err = run(capsys, "--dataset", "yago", "stats")
        assert code == 0
        assert "Thing" in out


class TestChart:
    def test_subclass_chart(self, capsys):
        code, out, _err = run(capsys, "chart", "dbo:Person", "--top", "5")
        assert code == 0
        assert "dbo:Athlete" in out or "Athlete" in out

    def test_property_chart_with_threshold(self, capsys):
        code, out, _err = run(
            capsys, "chart", "dbo:Politician", "--tab", "properties"
        )
        assert code == 0
        assert "dbo:party" in out
        assert "%" in out

    def test_ingoing_chart(self, capsys):
        code, out, _err = run(
            capsys, "chart", "dbo:Philosopher", "--tab", "ingoing", "--top", "12"
        )
        assert code == 0
        assert "dbo:author" in out

    def test_full_uri_accepted(self, capsys):
        code, out, _err = run(
            capsys, "chart", "http://dbpedia.org/ontology/Person", "--top", "3"
        )
        assert code == 0

    def test_unknown_qname_prefix_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["chart", "nope:Person"])


class TestPath:
    def test_drilldown(self, capsys):
        code, out, _err = run(
            capsys, "path", "dbo:Agent", "dbo:Person", "dbo:Philosopher"
        )
        assert code == 0
        assert "Thing -> Agent -> Person -> Philosopher" in out

    def test_bad_step_returns_error(self, capsys):
        code, _out, err = run(capsys, "path", "dbo:Philosopher")
        assert code == 1
        assert "error" in err


class TestConnectionsSearchSparql:
    def test_connections(self, capsys):
        code, out, _err = run(
            capsys, "connections", "dbo:Philosopher", "dbo:influencedBy"
        )
        assert code == 0
        assert "dbo:Scientist" in out

    def test_connections_unknown_property(self, capsys):
        code, _out, err = run(
            capsys, "connections", "dbo:Philosopher", "dbo:noSuchProp"
        )
        assert code == 1
        assert "error" in err

    def test_search(self, capsys):
        code, out, _err = run(capsys, "search", "Phil")
        assert code == 0
        assert "dbo:Philosopher" in out

    def test_search_no_match(self, capsys):
        code, out, _err = run(capsys, "search", "Zzzzz")
        assert code == 0
        assert "no matching" in out

    def test_sparql_select(self, capsys):
        code, out, _err = run(
            capsys,
            "sparql",
            "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
        )
        assert code == 0
        assert "?n" in out and "simulated ms" in out

    def test_sparql_ask(self, capsys):
        code, out, _err = run(capsys, "sparql", "ASK { ?s ?p ?o }")
        assert code == 0
        assert out.strip() == "yes"

    def test_sparql_syntax_error(self, capsys):
        code, _out, err = run(capsys, "sparql", "SELEKT nonsense")
        assert code == 1
        assert "error" in err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.dataset == "dbpedia"
        assert args.seed == 42


class TestLoadFile:
    @pytest.fixture()
    def turtle_file(self, tmp_path):
        path = tmp_path / "mini.ttl"
        path.write_text(
            "@prefix dbo: <http://dbpedia.org/ontology/> .\n"
            "@prefix dbr: <http://dbpedia.org/resource/> .\n"
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "dbo:Agent rdfs:subClassOf owl:Thing .\n"
            'dbr:A a dbo:Agent, owl:Thing ; rdfs:label "A"@en .\n'
            "dbr:B a dbo:Agent, owl:Thing .\n"
        )
        return str(path)

    def test_stats_on_loaded_turtle(self, capsys, turtle_file):
        code, out, _err = run(capsys, "--load", turtle_file, "stats")
        assert code == 0
        assert "triples:       6" in out

    def test_chart_on_loaded_turtle(self, capsys, turtle_file):
        code, out, _err = run(
            capsys, "--load", turtle_file, "chart", "owl:Thing"
        )
        assert code == 0
        assert "dbo:Agent" in out

    def test_load_ntriples(self, capsys, tmp_path):
        path = tmp_path / "mini.nt"
        path.write_text(
            "<http://x/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://www.w3.org/2002/07/owl#Thing> .\n"
        )
        code, out, _err = run(capsys, "--load", str(path), "stats")
        assert code == 0
        assert "root |S|:      1" in out

    def test_custom_root(self, capsys, turtle_file):
        code, out, _err = run(
            capsys, "--load", turtle_file, "--root", "dbo:Agent", "stats"
        )
        assert code == 0
        assert "root class:    Agent" in out


class TestDemo:
    def test_demo_walkthrough(self, capsys):
        code, out, _err = run(capsys, "demo")
        assert code == 0
        assert "Scenario 1" in out
        assert "Scenario 2" in out
        assert "influencing philosophers" in out
        assert "suspicious: 4 birth places are of type Food" in out
        assert "Query monitor" in out

    def test_fig4_table(self, capsys):
        code, out, _err = run(capsys, "fig4")
        assert code == 0
        assert "decomposer" in out
        assert "454 s" in out


class TestExplain:
    def test_plain_explain(self, capsys):
        code, out, _err = run(
            capsys, "explain", "SELECT ?s WHERE { ?s ?p ?o } LIMIT 5"
        )
        assert code == 0
        assert out.startswith("EXPLAIN\n")
        assert "Slice" in out
        assert "est_rows=" in out
        assert "rows=" not in out.replace("est_rows=", "")

    def test_explain_analyze(self, capsys):
        code, out, _err = run(
            capsys,
            "explain",
            "--analyze",
            "SELECT ?s WHERE { ?s ?p ?o } LIMIT 5",
        )
        assert code == 0
        assert out.startswith("EXPLAIN ANALYZE\n")
        assert "wall=" in out
        assert "result rows: 5" in out

    def test_explain_chart(self, capsys):
        code, out, _err = run(
            capsys, "explain", "--chart", "dbo:Person", "--analyze"
        )
        assert code == 0
        assert "Aggregation" in out
        assert "PatternScan" in out

    def test_explain_json(self, capsys):
        import json

        code, out, _err = run(
            capsys,
            "explain",
            "--json",
            "SELECT ?s WHERE { ?s ?p ?o } LIMIT 5",
        )
        assert code == 0
        document = json.loads(out)
        assert document["analyzed"] is False
        assert document["plan"]["operator"] == "Materialize"
        assert document["plan"]["children"][0]["operator"] == "Slice"

    def test_explain_analyze_json_includes_spans(self, capsys):
        import json

        code, out, _err = run(
            capsys,
            "explain",
            "--json",
            "--analyze",
            "SELECT ?s WHERE { ?s ?p ?o } LIMIT 5",
        )
        assert code == 0
        # First a JSON document, then one span per JSON line.
        document, _, span_lines = out.partition("}\n{")
        spans = [
            json.loads(line)
            for line in ("{" + span_lines).strip().splitlines()
            if line.strip().startswith("{")
        ]
        assert spans
        assert all("operator" in span for span in spans)

    def test_explain_construct(self, capsys):
        code, out, _err = run(
            capsys,
            "explain",
            "CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }",
        )
        assert code == 0
        assert "PatternScan (?s ?p ?o .)" in out

    def test_explain_requires_input(self, capsys):
        code, _out, err = run(capsys, "explain")
        assert code == 2
        assert "provide a query" in err


class TestMetrics:
    def test_metrics_dump(self, capsys):
        code, out, _err = run(capsys, "metrics")
        assert code == 0
        assert "# TYPE repro_eval_queries_total counter" in out

    def test_metrics_exercise_touches_every_layer(self, capsys):
        code, out, _err = run(capsys, "metrics", "--exercise")
        assert code == 0
        assert 'repro_router_queries_total{route="decomposer"} 1' in out
        assert 'repro_router_queries_total{route="hvs"} 1' in out
        # The chart once, and the ORDER BY … LIMIT query no rung answers.
        assert 'repro_router_queries_total{route="backend"} 2' in out
        assert 'repro_hvs_lookups_total{outcome="hit"} 1' in out
        assert 'repro_virtuoso_requests_total{status="ok"} 1' in out
        assert 'repro_incremental_windows_total{mode="local"} 2' in out
