"""Command-line interface: drive eLinda explorations from a shell.

Examples::

    python -m repro stats
    python -m repro chart dbo:Person --tab properties --top 12
    python -m repro path dbo:Agent dbo:Person dbo:Philosopher
    python -m repro connections dbo:Philosopher dbo:influencedBy
    python -m repro search Phil
    python -m repro sparql "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"
    python -m repro fig4
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core import Direction
from .datasets import (
    DBpediaConfig,
    LGDConfig,
    YagoConfig,
    generate_dbpedia,
    generate_lgd,
    generate_yago,
    recommended_scale,
)
from .endpoint import (
    LocalEndpoint,
    REMOTE_VIRTUOSO_PROFILE,
    RemoteEndpoint,
    SimClock,
    SimulatedVirtuosoServer,
)
from .explorer import ExplorerSession, SettingsForm, render_chart
from .rdf import URI, default_namespace_manager
from .sparql import SparqlError

__all__ = ["main", "build_parser"]

_MANAGER = default_namespace_manager()


def _resolve_uri(text: str) -> URI:
    """Accept a full URI, an ``<uri>``, or a known qname like dbo:Person."""
    if text.startswith("<") and text.endswith(">"):
        return URI(text[1:-1])
    if text.startswith(("http://", "https://", "urn:")):
        return URI(text)
    try:
        return _MANAGER.expand(text)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: cannot resolve {text!r} as a URI ({exc})")


def _source_graph(args):
    """The ``(graph, root_class)`` pair from ``--load`` or the synthetic
    dataset flags — the text/generator boot path."""
    if getattr(args, "load", None):
        from .rdf import OWL, load_ntriples, parse_turtle

        path = args.load
        if path.endswith((".ttl", ".turtle")):
            with open(path, encoding="utf-8") as handle:
                graph = parse_turtle(handle.read())
        else:
            graph = load_ntriples(path)
        root = (
            _resolve_uri(args.root)
            if getattr(args, "root", None)
            else OWL.term("Thing")
        )
        return graph, root
    if args.dataset == "dbpedia":
        dataset = generate_dbpedia(DBpediaConfig(scale=args.scale, seed=args.seed))
        return dataset.graph, dataset.facts["thing"]
    if args.dataset == "yago":
        dataset = generate_yago(YagoConfig(seed=args.seed))
        return dataset.graph, dataset.facts["root"]
    dataset = generate_lgd(LGDConfig(seed=args.seed))
    from .rdf import OWL

    return dataset.graph, OWL.term("Thing")


def _build_session(args) -> ExplorerSession:
    snapshot_path = getattr(args, "snapshot", None)
    if snapshot_path:
        import os

        from .rdf import OWL
        from .rdf.snapshot import open_snapshot, write_snapshot

        if os.path.exists(snapshot_path):
            # Zero-copy boot: mmap the file, skip parsing entirely.
            graph = open_snapshot(snapshot_path)
            root = (
                _resolve_uri(args.root)
                if getattr(args, "root", None)
                else OWL.term("Thing")
            )
        else:
            # First boot: build from the text/generator source, persist,
            # then serve from the snapshot we just wrote.
            source, root = _source_graph(args)
            write_snapshot(source, snapshot_path)
            graph = open_snapshot(snapshot_path)
    else:
        graph, root = _source_graph(args)
    settings = SettingsForm(root_class=root)
    endpoint = LocalEndpoint(graph, clock=SimClock())
    return ExplorerSession(endpoint, settings=settings)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_stats(args) -> int:
    session = _build_session(args)
    stats = session.dataset_statistics
    print(f"dataset:       {args.dataset}")
    print(f"triples:       {stats.total_triples:,}")
    print(f"classes:       {stats.class_count:,}")
    root = session.current_pane
    print(f"root class:    {root.pane_type.local_name}")
    print(f"root |S|:      {root.instance_count:,}")
    corner = root.corner_statistics()
    print(f"subclasses:    {corner.direct_subclasses} direct / "
          f"{corner.total_subclasses} total")
    return 0


def _cmd_chart(args) -> int:
    session = _build_session(args)
    cls = _resolve_uri(args.cls)
    pane = session.open_class_pane(cls)
    if args.tab == "subclasses":
        chart = pane.subclass_chart()
        title = f"Subclasses of {cls.local_name}"
    else:
        direction = (
            Direction.INCOMING if args.tab == "ingoing" else Direction.OUTGOING
        )
        pane.threshold_widget.set_threshold(args.threshold)
        chart = pane.significant_properties(direction)
        kind = "Ingoing" if args.tab == "ingoing" else "Outgoing"
        title = (
            f"{kind} properties of {cls.local_name} "
            f"(coverage >= {args.threshold:.0%})"
        )
    print(render_chart(chart, title=title, top=args.top))
    return 0


def _cmd_path(args) -> int:
    session = _build_session(args)
    pane = session.current_pane
    for step in args.classes:
        cls = _resolve_uri(step)
        try:
            pane = session.open_subclass_pane(pane, cls)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(session.render(top=args.top))
    return 0


def _cmd_connections(args) -> int:
    session = _build_session(args)
    cls = _resolve_uri(args.cls)
    prop = _resolve_uri(args.prop)
    pane = session.open_class_pane(cls)
    direction = Direction.INCOMING if args.incoming else Direction.OUTGOING
    try:
        chart = pane.connections_chart(prop, direction)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        render_chart(
            chart,
            title=(
                f"{cls.local_name} --{prop.local_name}--> objects by type"
                if not args.incoming
                else f"subjects by type --{prop.local_name}--> {cls.local_name}"
            ),
            top=args.top,
        )
    )
    return 0


def _cmd_search(args) -> int:
    session = _build_session(args)
    matches = session.autocomplete(args.prefix, limit=args.top)
    if not matches:
        print("(no matching classes)")
        return 0
    for entry in matches:
        qname = _MANAGER.qname(entry.cls) or entry.cls.value
        print(f"{qname:<40} {entry.instance_count:>8,} instances")
    return 0


def _cmd_sparql(args) -> int:
    session = _build_session(args)
    # Convenience: the standard prefixes are pre-declared, so qnames like
    # dbo:Person work without a prologue.  User PREFIX lines come after
    # and therefore win on conflict.
    prologue = "".join(
        f"PREFIX {prefix}: <{namespace}>\n" for prefix, namespace in _MANAGER
    )
    try:
        response = session.endpoint.query(prologue + args.query)
    except SparqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = response.result
    from .sparql import AskResult, GraphResult

    if isinstance(result, GraphResult):
        text = result.to_ntriples()
        lines = text.splitlines()
        print("\n".join(lines[: args.top]))
        if len(lines) > args.top:
            print(f"... ({len(lines) - args.top} more triples)")
        print(f"({len(result)} triples, {response.elapsed_ms:.2f} simulated ms)")
    elif isinstance(result, AskResult):
        print("yes" if result.value else "no")
    else:
        print(result.to_table(max_rows=args.top))
        print(f"({len(result.rows)} rows, {response.elapsed_ms:.2f} simulated ms)")
    return 0


def _cmd_query(args) -> int:
    """Time-sliced SELECT execution through the suspendable executor."""
    if args.self_test:
        return _executor_self_test(args)
    if not args.query:
        print("error: provide a query or --self-test", file=sys.stderr)
        return 2
    session = _build_session(args)
    endpoint = session.endpoint
    query_text = _prologue() + args.query
    quantum_ms = args.quantum_ms
    page_size = args.page_size
    if quantum_ms is None and page_size is None:
        page_size = 100
    try:
        if args.explain:
            from .obs import explain_physical

            explained = explain_physical(
                endpoint.graph,
                query_text,
                analyze=args.analyze,
                quantum_ms=quantum_ms,
                page_size=page_size,
            )
            print(explained.render())
            return 0
        rows: List[dict] = []
        variables: List[str] = []
        pages = 0
        simulated = 0.0
        response = endpoint.query(
            query_text, quantum_ms=quantum_ms, page_size=page_size
        )
        while True:
            pages += 1
            simulated += response.elapsed_ms
            rows.extend(response.result.rows)
            variables = response.result.vars
            token = response.continuation
            shown = f"{token[:24]}..." if token else "-"
            print(
                f"page {pages}: {len(response.result.rows)} rows  "
                f"complete={response.complete}  token={shown}"
            )
            if response.complete:
                break
            response = endpoint.query(
                query_text,
                quantum_ms=quantum_ms,
                page_size=page_size,
                continuation=token,
            )
    except SparqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    from .sparql import SelectResult

    result = SelectResult(variables, rows)
    print(result.to_table(max_rows=args.top))
    print(
        f"({len(rows)} rows over {pages} page(s), "
        f"{simulated:.2f} simulated ms)"
    )
    return 0


def _executor_self_test(args) -> int:
    """Executor smoke: paging equivalence, token hygiene, fair
    scheduling, and the suspension metrics (used by scripts/ci.sh)."""
    from .obs.metrics import REGISTRY
    from .sparql import executor as sparql_executor
    from .sparql.planner import build_physical_plan

    failures: List[str] = []

    def check(condition: bool, message: str) -> None:
        print(("ok: " if condition else "FAIL: ") + message)
        if not condition:
            failures.append(message)

    def counter(name: str, **labels) -> float:
        metric = REGISTRY.get(name)
        return metric.labels(**labels).value if labels else metric.value

    def multiset(rows):
        return sorted(
            tuple(sorted((k, v) for k, v in row.items())) for row in rows
        )

    session = _build_session(args)
    graph = session.endpoint.graph
    endpoint = LocalEndpoint(graph, clock=SimClock())
    query = _prologue() + (
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?s ?p2 ?o2 } LIMIT 500"
    )

    # 1. Paged execution returns exactly the one-shot answer.
    one_shot_result = endpoint.select(query)
    one_shot = one_shot_result.rows
    def run_paged(text: str, **budget):
        rows: List[dict] = []
        pages = 0
        response = endpoint.query(text, **budget)
        while True:
            pages += 1
            rows.extend(response.result.rows)
            if response.complete:
                return rows, pages
            response = endpoint.query(
                text, continuation=response.continuation, **budget
            )

    before_susp = counter("repro_exec_suspensions_total", reason="row_budget")
    before_resumes = counter("repro_exec_resumes_total")
    paged, pages = run_paged(query, page_size=64)
    check(
        multiset(paged) == multiset(one_shot),
        f"paged multiset equals one-shot ({len(paged)} rows, {pages} pages)",
    )
    check(pages > 1, f"query actually paged ({pages} pages)")
    check(
        counter("repro_exec_suspensions_total", reason="row_budget")
        > before_susp,
        "row-budget suspension counter moved",
    )
    check(
        counter("repro_exec_resumes_total") > before_resumes,
        "token resume counter moved",
    )

    # The heavy chart (Fig. 4) under a deadline that is past after one
    # operator step: a token at every block of the order-aware
    # aggregation, and still the one-shot rows in the one-shot order.
    from .core import MemberPattern, property_chart_query

    chart = property_chart_query(
        MemberPattern.of_type(session.settings.root_class), Direction.OUTGOING
    )
    stepped, quanta = run_paged(chart, quantum_ms=1e-9)
    check(
        stepped == endpoint.select(chart).rows and quanta > 10,
        f"Fig. 4 chart in one-step quanta equals one-shot, in order "
        f"({len(stepped)} rows, {quanta} quanta)",
    )

    # 2. Token hygiene: malformed, cross-query, and expired tokens all
    # fail as clean protocol errors — never silently-wrong rows.
    before_rejects = counter(
        "repro_exec_token_rejects_total", reason="malformed"
    )
    try:
        endpoint.query(query, continuation="not-a-token")
        check(False, "garbage token rejected")
    except sparql_executor.MalformedTokenError:
        check(True, "garbage token rejected as MalformedTokenError")
    check(
        counter("repro_exec_token_rejects_total", reason="malformed")
        == before_rejects + 1,
        "malformed-token reject counter moved",
    )

    response = endpoint.query(query, page_size=16)
    token = response.continuation
    check(token is not None, "suspended query minted a continuation token")
    try:
        endpoint.query(
            _prologue() + "SELECT ?x WHERE { ?x ?y ?z }", continuation=token
        )
        check(False, "cross-query token rejected")
    except sparql_executor.MalformedTokenError:
        check(True, "token replayed against a different query is rejected")

    # The acceptance scenario: suspend, mutate the graph, resume.  The
    # token must be *invalidated*, not resumed against changed data.
    from .rdf import URI as _URI

    graph.add(
        _URI("http://example.org/exec-self-test"),
        _URI("http://example.org/p"),
        _URI("http://example.org/o"),
    )
    try:
        endpoint.query(query, continuation=token)
        check(False, "token expired by graph mutation")
    except sparql_executor.ExpiredTokenError:
        check(True, "graph mutation invalidates the suspended token")
    graph.remove(
        _URI("http://example.org/exec-self-test"),
        _URI("http://example.org/p"),
        _URI("http://example.org/o"),
    )

    # 3. Fair scheduling: concurrent plans interleave and all finish
    # with the right answers.
    scheduler = sparql_executor.RoundRobinScheduler(page_size=32)
    queries = {
        "spo": query,
        "count": _prologue()
        + "SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
        "sorted": _prologue() + "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s",
    }
    for name, text in queries.items():
        scheduler.submit(name, build_physical_plan(graph, text))
    order: List[str] = []
    finished = {name: [] for name in queries}
    while len(scheduler):
        for name, page in scheduler.run_round():
            order.append(name)
            finished[name].extend(page.rows)
    check(
        len(set(order[: len(queries)])) == len(queries),
        "round-robin serves every query before repeating any",
    )
    check(
        multiset(finished["spo"]) == multiset(one_shot),
        "scheduled execution matches the one-shot answer",
    )
    check(
        all(finished[name] for name in queries),
        "all scheduled queries ran to completion",
    )

    # 4. The encoded store: dictionary round-trip, ID-space scans, and
    # late materialization (load -> query -> page -> decode).
    import itertools

    from .rdf.dictionary import kind_of_id
    from .rdf.terms import BNode as _BNode
    from .sparql.results import SelectResult, results_to_json

    dictionary = graph.dictionary
    sample = list(itertools.islice(dictionary.terms(), 256))
    check(
        all(
            dictionary.decode(dictionary.encode(term)) is term
            for term in sample
        ),
        f"dictionary round-trip is identity on {len(sample)} interned terms",
    )

    def _kind(term) -> int:
        if isinstance(term, _URI):
            return 0
        return 1 if isinstance(term, _BNode) else 2

    check(
        all(
            kind_of_id(dictionary.encode(term)) == _kind(term)
            for term in sample
        ),
        "every ID lives in its kind's range (URI < BNode < Literal)",
    )
    encoded_scan = [
        dictionary.decode_triple(ids)
        for ids in itertools.islice(graph.triples_ids(), 64)
    ]
    term_scan = [
        tuple(triple) for triple in itertools.islice(graph.triples(), 64)
    ]
    check(
        encoded_scan == term_scan,
        "decoded ID-space scan equals the term-space scan, in order",
    )
    check(
        results_to_json(SelectResult(one_shot_result.vars, paged))
        == results_to_json(one_shot_result),
        "paged rows serialise to byte-identical SPARQL-JSON",
    )

    if failures:
        print(f"executor self-test failed ({len(failures)} checks)", file=sys.stderr)
        return 1
    print("executor self-test passed")
    return 0


def _build_serve_stack(args, graph, root):
    """The full serving stack: faulty wire -> router -> frontend."""
    from .endpoint import FaultInjector
    from .perf import Decomposer, ElindaEndpoint, HeavyQueryStore, MaterializedViews
    from .serve import BackoffPolicy, CircuitBreaker, ServeConfig, ServeFrontend

    clock = SimClock()
    faults = FaultInjector(
        transient_rate=args.fault_rate,
        slow_rate=args.slow_rate,
        seed=args.seed,
    )
    server = SimulatedVirtuosoServer(graph, clock=clock, faults=faults)
    # One set of materialized tables serves both the views route and the
    # decomposer (its build-once indexes are the same tables): mutable
    # stores keep them delta-fresh, snapshot stores fall back to
    # build-once semantics automatically.
    views = MaterializedViews(graph, clock=clock)
    elinda = ElindaEndpoint(
        RemoteEndpoint(server),
        hvs=HeavyQueryStore(clock=clock),
        views=views,
        decomposer=Decomposer(views, clock=clock),
        breaker=CircuitBreaker(
            clock=clock, failure_threshold=5, recovery_ms=500.0
        ),
    )
    frontend = ServeFrontend(
        elinda,
        clock=clock,
        config=ServeConfig(
            max_active=args.max_active,
            queue_capacity=max(args.sessions, 1),
            page_size=args.page_size,
            backoff=BackoffPolicy(max_retries=args.max_retries),
            seed=args.seed,
        ),
    )
    return frontend, server, elinda, clock


def _serve_workload(root) -> List[str]:
    """One session's exploration clicks: a decomposable chart query,
    a paged member expansion, a plain triple scan, and a hierarchy
    closure walk (property path — its BFS frontier state rides the
    continuation tokens, including across pool workers)."""
    from .core import MemberPattern, members_query, property_chart_query

    return [
        property_chart_query(MemberPattern.of_type(root), Direction.OUTGOING),
        members_query(MemberPattern.of_type(root), limit=200),
        _prologue() + "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 150",
        _prologue()
        + "SELECT ?c ?super WHERE { ?c rdfs:subClassOf* ?super }",
    ]


def _pool_snapshot(args):
    """The ``(snapshot_path, root, cleanup_dir)`` triple for a worker
    pool.  Workers boot by mmap'ing a snapshot *file*, so when no
    ``--snapshot`` was given the source graph is persisted to a
    temporary one (removed by the caller afterwards)."""
    import os
    import tempfile

    from .rdf import OWL
    from .rdf.snapshot import write_snapshot

    path = getattr(args, "snapshot", None)
    if path and os.path.exists(path):
        root = (
            _resolve_uri(args.root)
            if getattr(args, "root", None)
            else OWL.term("Thing")
        )
        return path, root, None
    source, root = _source_graph(args)
    cleanup = None
    if not path:
        cleanup = tempfile.mkdtemp(prefix="repro-pool-")
        path = os.path.join(cleanup, "pool.snapshot")
    write_snapshot(source, path)
    return path, root, cleanup


def _pool_config(args):
    from .serve import BackoffPolicy, ServeConfig

    return ServeConfig(
        max_active=args.max_active,
        queue_capacity=max(args.sessions, 1),
        page_size=args.page_size,
        backoff=BackoffPolicy(max_retries=args.max_retries),
        seed=args.seed,
    )


def _submit_serve_load(frontend, root, args) -> int:
    """Fill ``frontend`` with either the fixed closed-loop workload or
    ``--loadgen`` open-loop Zipf arrivals.  Returns the session count."""
    if getattr(args, "loadgen", 0) > 0:
        from .serve import LoadGenerator, demo_scenarios

        generator = LoadGenerator(
            demo_scenarios(root),
            rate_per_s=args.arrival_rate,
            seed=args.seed,
        )
        return len(generator.schedule(frontend, args.loadgen))
    workload = _serve_workload(root)
    for index in range(args.sessions):
        frontend.submit(f"session-{index}", workload)
    return args.sessions


def _print_serve_reports(reports) -> List:
    print(
        f"{'session':<24} {'outcome':<10} {'pages':>6} {'retries':>8} "
        f"{'billed ms':>11} {'wall ms':>10}"
    )
    for key in sorted(reports, key=str):
        report = reports[key]
        print(
            f"{str(key):<24} {report.outcome:<10} {report.pages:>6} "
            f"{report.retries:>8} {report.billed_ms:>11.1f} "
            f"{report.wall_ms:>10.1f}"
        )
    return [r for r in reports.values() if r.outcome == "completed"]


def _serve_pool(args) -> int:
    """Drive the sessions through a multi-process worker pool sharing
    one mmap snapshot."""
    import shutil

    from .serve import PoolFrontend

    snapshot_path, root, cleanup = _pool_snapshot(args)
    try:
        with PoolFrontend(
            snapshot_path, workers=args.workers, config=_pool_config(args)
        ) as frontend:
            submitted = _submit_serve_load(frontend, root, args)
            reports = frontend.run()
            completed = _print_serve_reports(reports)
            quanta = sum(w.quanta.value for w in frontend._workers)
            makespan_s = frontend.clock.now_ms / 1000.0
            rate = quanta / makespan_s if makespan_s > 0 else 0.0
            print(
                f"\n{len(completed)}/{submitted} sessions completed over "
                f"{frontend.worker_count} workers; {quanta:.0f} quanta in "
                f"{frontend.clock.now_ms:.1f} simulated ms "
                f"({rate:.0f} quanta/s aggregate)"
            )
        return 0 if len(completed) == len(reports) else 1
    finally:
        if cleanup:
            shutil.rmtree(cleanup, ignore_errors=True)


def _cmd_serve(args) -> int:
    """Drive N concurrent exploration sessions through the serving
    frontend, with optional fault injection on the simulated wire."""
    if args.self_test:
        if getattr(args, "workers", 0) > 0:
            return _pool_self_test(args)
        return _serve_self_test(args)
    if getattr(args, "workers", 0) > 0:
        return _serve_pool(args)
    session = _build_session(args)
    graph = session.endpoint.graph
    root = session.settings.root_class
    frontend, server, _, clock = _build_serve_stack(args, graph, root)
    _submit_serve_load(frontend, root, args)
    reports = frontend.run()
    completed = _print_serve_reports(reports)
    latencies = sorted(r.billed_ms for r in completed)

    def pct(fraction: float) -> float:
        if not latencies:
            return 0.0
        index = min(len(latencies) - 1, round(fraction * (len(latencies) - 1)))
        return latencies[index]

    print(
        f"\n{len(completed)}/{len(reports)} sessions completed; "
        f"p50 {pct(0.5):.1f} ms, p95 {pct(0.95):.1f} ms billed; "
        f"{server.faults.injected_transient if server.faults else 0} transient / "
        f"{server.faults.injected_slow if server.faults else 0} slow faults injected; "
        f"makespan {clock.now_ms:.1f} simulated ms"
    )
    return 0 if len(completed) == len(reports) else 1


def _serve_self_test(args) -> int:
    """Serving-layer smoke: all sessions complete under injected
    faults, results are correct, and the retry/breaker/serve metrics
    move (used by scripts/ci.sh)."""
    from .obs.metrics import REGISTRY
    from .serve import BackoffPolicy, CircuitBreaker, CircuitOpenError

    failures: List[str] = []

    def check(condition: bool, message: str) -> None:
        print(("ok: " if condition else "FAIL: ") + message)
        if not condition:
            failures.append(message)

    def counter(name: str, **labels) -> float:
        metric = REGISTRY.get(name)
        return metric.labels(**labels).value if labels else metric.value

    def multiset(rows):
        return sorted(
            tuple(sorted((k, v.n3()) for k, v in row.items())) for row in rows
        )

    session = _build_session(args)
    graph = session.endpoint.graph
    root = session.settings.root_class
    args.fault_rate = max(args.fault_rate, 0.1)
    frontend, server, elinda, clock = _build_serve_stack(args, graph, root)
    workload = _serve_workload(root)
    sessions = max(args.sessions, 8)

    before_retries = counter("repro_retry_attempts_total", reason="transient")
    for index in range(sessions):
        frontend.submit(f"session-{index}", workload)
    reports = frontend.run()

    check(
        all(r.outcome == "completed" for r in reports.values()),
        f"all {len(reports)} sessions completed under "
        f"{args.fault_rate:.0%} injected transient faults",
    )
    reference = LocalEndpoint(graph, clock=SimClock())
    expected = [multiset(reference.select(query).rows) for query in workload]
    check(
        all(
            multiset(report.rows[i]) == expected[i]
            for report in reports.values()
            for i in range(len(workload))
        ),
        "every session's paged rows equal the one-shot reference rows",
    )
    check(
        server.faults.injected_transient > 0,
        f"faults were actually injected "
        f"({server.faults.injected_transient} transient)",
    )
    check(
        counter("repro_retry_attempts_total", reason="transient")
        > before_retries,
        "transient retry counter moved",
    )
    check(
        counter("repro_serve_sessions_total", outcome="completed")
        >= len(reports),
        "serve session-outcome counter moved",
    )

    # Circuit breaker: hard-fail the wire, watch it open, and check the
    # fallback ladder still answers what the HVS/decomposer can.
    server.faults.transient_rate = 1.0
    breaker = elinda.breaker
    before_opens = counter("repro_breaker_transitions_total", state="open")
    chart_query = workload[0]
    light = _prologue() + "SELECT ?s WHERE { ?s ?p ?o } LIMIT 5"
    from .endpoint import TransientWireError

    for _ in range(breaker.failure_threshold):
        try:
            elinda.query(light)
        except TransientWireError:
            pass
    check(breaker.state == "open", "breaker opens after consecutive faults")
    check(
        counter("repro_breaker_transitions_total", state="open")
        == before_opens + 1,
        "breaker open-transition counter moved",
    )
    before_short = counter("repro_breaker_short_circuits_total")
    try:
        elinda.query(light)
        check(False, "backend-only query short-circuits while open")
    except CircuitOpenError:
        check(True, "backend-only query raises CircuitOpenError while open")
    check(
        counter("repro_breaker_short_circuits_total") > before_short,
        "short-circuit counter moved",
    )
    # The fallback ladder: a decomposable query is still answered while
    # the backend is unreachable (its simulated elapsed may out-wait the
    # recovery window, which is fine — the ladder, not the clock, is
    # what this check is about).
    response = elinda.query(chart_query)
    check(
        response.source in ("views", "decomposer", "hvs"),
        f"decomposable query still answered while open (via {response.source})",
    )
    server.faults.transient_rate = 0.0
    clock.advance(breaker.recovery_ms)
    check(breaker.state == "half_open", "breaker half-opens after recovery")
    response = elinda.query(light)
    check(
        response.source == "virtuoso" and breaker.state == "closed",
        "a successful half-open probe closes the breaker",
    )

    if failures:
        print(f"serve self-test failed ({len(failures)} checks)", file=sys.stderr)
        return 1
    print("serve self-test passed")
    return 0


def _pool_self_test(args) -> int:
    """Worker-pool smoke: sessions served over forked workers produce
    byte-identical pages to single-process serving, a crashed worker is
    respawned without losing sessions, open-loop arrivals drain, and the
    pool/loadgen metrics move (used by scripts/ci.sh)."""
    import os
    import shutil
    import tempfile

    from .obs.metrics import REGISTRY
    from .rdf.snapshot import write_snapshot
    from .serve import LoadGenerator, PoolFrontend, demo_scenarios

    failures: List[str] = []

    def check(condition: bool, message: str) -> None:
        print(("ok: " if condition else "FAIL: ") + message)
        if not condition:
            failures.append(message)

    def counter(name: str, **labels) -> float:
        metric = REGISTRY.get(name)
        return metric.labels(**labels).value if labels else metric.value

    def rendered(rows):
        # Ordered, not a multiset: pool pages must be *byte-identical*
        # to the single-process reference, including row order.
        return [
            tuple(sorted((k, v.n3()) for k, v in row.items()))
            for row in rows
        ]

    source, root = _source_graph(args)
    workdir = tempfile.mkdtemp(prefix="repro-pool-selftest-")
    snapshot_path = os.path.join(workdir, "pool.snapshot")
    write_snapshot(source, snapshot_path)
    workers = max(args.workers, 2)
    workload = _serve_workload(root)
    sessions = max(args.sessions, 8)

    try:
        reference = LocalEndpoint(source, clock=SimClock())
        expected = [rendered(reference.select(query).rows) for query in workload]
        before_decodes = counter("repro_dict_decode_total")

        with PoolFrontend(
            snapshot_path, workers=workers, config=_pool_config(args)
        ) as frontend:
            check(
                frontend.alive_count() == workers,
                f"{workers} workers alive after boot",
            )
            for index in range(sessions):
                frontend.submit(f"session-{index}", workload)
            # Kill one worker before the first round: its sessions must
            # be resumed on the respawned process from their tokens.
            frontend.crash_worker(0)
            reports = frontend.run()
            check(
                all(r.outcome == "completed" for r in reports.values()),
                f"all {len(reports)} sessions completed across the crash",
            )
            check(
                all(
                    rendered(report.rows[i]) == expected[i]
                    for report in reports.values()
                    for i in range(len(workload))
                ),
                "pool pages are byte-identical to single-process serving",
            )
            check(
                counter("repro_pool_worker_restarts_total") >= 1,
                "the crashed worker was respawned",
            )
            quanta = sum(w.quanta.value for w in frontend._workers)
            check(quanta > 0, f"workers executed {quanta:.0f} quanta")
            check(
                counter("repro_pool_dispatches_total", route="affinity") > 0,
                "affinity routing dispatched quanta",
            )
            check(
                counter("repro_pool_workers") == workers,
                "pool worker gauge tracks the fleet",
            )
            check(
                counter("repro_dict_decode_total") > before_decodes,
                "worker registries merged into the parent "
                "(decode counter moved without parent-side execution)",
            )

            # Open-loop arrivals through the same pool.
            generator = LoadGenerator(
                demo_scenarios(root),
                rate_per_s=args.arrival_rate,
                seed=args.seed,
            )
            keys = generator.schedule(frontend, 12)
            reports = frontend.run()
            outcomes = [reports[key].outcome for key in keys]
            # Open loop: arrivals do not wait for capacity, so admission
            # control may shed some — but every admitted session must
            # finish, and the pool must absorb most of the offered load.
            check(
                all(o in ("completed", "rejected") for o in outcomes)
                and outcomes.count("completed") >= 8,
                f"12 open-loop Zipf arrivals: "
                f"{outcomes.count('completed')} served, "
                f"{outcomes.count('rejected')} shed by admission control, "
                f"none failed",
            )

            # Replace the snapshot file under the live mmap: every
            # worker's next heartbeat must flag it stale (they keep
            # serving the pinned pages — consistently old, never torn).
            replacement = snapshot_path + ".new"
            write_snapshot(source, replacement)
            os.replace(replacement, snapshot_path)
            health = frontend.heartbeat()
            check(
                all(state == "stale" for state in health.values()),
                "heartbeat flags a replaced snapshot as stale on "
                "every worker",
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if failures:
        print(f"pool self-test failed ({len(failures)} checks)", file=sys.stderr)
        return 1
    print("pool self-test passed")
    return 0


def _cmd_demo(args) -> int:
    """The Section 5 demonstration walkthrough, scripted."""
    from .core import equals_filter
    from .datasets import generate_dbpedia, inject_birthplace_errors
    from .explorer import QueryMonitor, Tab

    config = DBpediaConfig(scale=args.scale, seed=args.seed)
    dataset = generate_dbpedia(config)
    inject_birthplace_errors(dataset, count=4)
    session = ExplorerSession(LocalEndpoint(dataset.graph, clock=SimClock()))
    monitor = QueryMonitor(session.endpoint, heavy_threshold_ms=5.0)

    print("=== Scenario 1: understanding a large, unfamiliar dataset ===")
    stats = session.dataset_statistics
    print(f"{stats.total_triples:,} triples, {stats.class_count} classes")
    chart = session.current_pane.subclass_chart()
    print(render_chart(chart, title="First-level classes", top=8))
    largest = chart.sorted_bars()[0]
    largest_pane = session.open_subclass_pane(session.current_pane, largest.label)
    top_properties = largest_pane.property_chart(Direction.OUTGOING).top(20)
    print(
        f"\nThe 20 most significant properties of {largest.label.local_name}: "
        + ", ".join(bar.label.local_name for bar in top_properties[:8])
        + ", ..."
    )

    print("\n=== Scenario 2: a sophisticated exploration path ===")
    pane = session.panes[0]
    for cls in ("Agent", "Person", "Philosopher"):
        pane = session.open_subclass_pane(pane, _resolve_uri(f"dbo:{cls}"))
    pane.switch_tab(Tab.CONNECTIONS)
    connections = pane.connections_chart(_resolve_uri("dbo:influencedBy"))
    print(render_chart(connections, title="Types of people influencing philosophers", top=6))

    print("\n=== Scenario 3: erroneous data detection ===")
    person_pane = session.panes[2]
    birth_connections = person_pane.connections_chart(_resolve_uri("dbo:birthPlace"))
    food_bar = birth_connections.get(_resolve_uri("dbo:Food"))
    if food_bar is not None and food_bar.size:
        print(
            f"suspicious: {food_bar.size} birth places are of type Food!"
        )
        for food in sorted(
            session.engine.materialise(food_bar).uris, key=lambda uri: uri.value
        ):
            print(f"  {food.local_name}")
    else:
        print("no erroneous birth places found")

    print("\n=== Query monitor ===")
    print(monitor.render())
    return 0


def _cmd_fig4(args) -> int:
    from .core import MemberPattern, property_chart_query
    from .datasets.dbpedia import OWL_THING
    from .perf import Decomposer, HeavyQueryStore, MaterializedViews

    config = DBpediaConfig(scale=args.scale, seed=args.seed)
    dataset = generate_dbpedia(config)
    clock = SimClock()
    server = SimulatedVirtuosoServer(
        dataset.graph,
        clock=clock,
        cost_model=REMOTE_VIRTUOSO_PROFILE.scaled(recommended_scale(config)),
    )
    remote = RemoteEndpoint(server)
    decomposer = Decomposer(MaterializedViews(dataset.graph, track=False), clock=clock)
    hvs = HeavyQueryStore(clock=clock)
    paper = {
        ("virtuoso", "outgoing"): "454 s",
        ("virtuoso", "incoming"): "124 s",
        ("decomposer", "outgoing"): "1.5 s",
        ("decomposer", "incoming"): "1.2 s",
        ("hvs", "outgoing"): "~80 ms",
        ("hvs", "incoming"): "~80 ms",
    }
    print(f"{'configuration':<14} {'direction':<10} {'paper':>8} {'measured':>12}")
    for direction in (Direction.OUTGOING, Direction.INCOMING):
        query = property_chart_query(MemberPattern.of_type(OWL_THING), direction)
        response = remote.query(query)
        hvs.record(query, response.result, response.elapsed_ms, 0)
        cells = {
            "virtuoso": response.elapsed_ms,
            "decomposer": decomposer.try_answer(query).elapsed_ms,
            "hvs": hvs.lookup(query, 0).elapsed_ms,
        }
        for configuration, measured in cells.items():
            shown = (
                f"{measured / 1000:.2f} s"
                if measured >= 1000
                else f"{measured:.0f} ms"
            )
            print(
                f"{configuration:<14} {direction.value:<10} "
                f"{paper[(configuration, direction.value)]:>8} {shown:>12}"
            )
    return 0


def _prologue() -> str:
    return "".join(
        f"PREFIX {prefix}: <{namespace}>\n" for prefix, namespace in _MANAGER
    )


def _cmd_explain(args) -> int:
    """EXPLAIN / EXPLAIN ANALYZE a query's physical plan."""
    from .obs import explain_physical

    session = _build_session(args)
    graph = session.endpoint.graph
    if args.chart:
        from .core import MemberPattern, property_chart_query

        cls = _resolve_uri(args.chart)
        direction = (
            Direction.INCOMING if args.tab == "ingoing" else Direction.OUTGOING
        )
        query_text = property_chart_query(MemberPattern.of_type(cls), direction)
    elif args.query:
        query_text = _prologue() + args.query
    else:
        print("error: provide a query or --chart CLASS", file=sys.stderr)
        return 2
    try:
        explained = explain_physical(graph, query_text, analyze=args.analyze)
    except SparqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(explained.to_json())
        if args.analyze:
            print(explained.to_json_lines())
    else:
        print(explained.render())
    return 0


def _cmd_snapshot(args) -> int:
    """Build or inspect a persistent mmap snapshot file."""
    if args.self_test:
        return _snapshot_self_test(args)
    from .rdf.snapshot import snapshot_info, write_snapshot

    if args.action == "build":
        if not args.file:
            print("error: snapshot build needs an output path", file=sys.stderr)
            return 2
        graph, _ = _source_graph(args)
        file_bytes = write_snapshot(graph, args.file)
        print(
            f"wrote {args.file}: {len(graph):,} triples, "
            f"{len(graph.dictionary):,} terms, {file_bytes:,} bytes"
        )
        return 0
    if args.action == "info":
        if not args.file:
            print("error: snapshot info needs a file path", file=sys.stderr)
            return 2
        from .rdf.snapshot import SnapshotError

        try:
            info = snapshot_info(args.file)
        except (OSError, SnapshotError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        terms = info["terms"]
        print(f"path:            {info['path']}")
        print(f"format version:  {info['format_version']}")
        print(f"file bytes:      {info['file_bytes']:,}")
        print(f"payload crc32:   {info['checksum_crc32']}")
        print(f"triples:         {info['triples']:,}")
        print(
            f"terms:           {terms['uri']:,} uri / {terms['bnode']:,} "
            f"bnode / {terms['literal']:,} literal"
        )
        print(f"{'section':<16} {'offset':>12} {'bytes':>12}")
        for section in info["sections"]:
            print(
                f"{section['name']:<16} {section['offset']:>12,} "
                f"{section['bytes']:>12,}"
            )
        return 0
    print("error: provide an action (build/info) or --self-test", file=sys.stderr)
    return 2


def _snapshot_self_test(args) -> int:
    """Snapshot smoke: deterministic builds, reopen parity, byte-identical
    paged SPARQL-JSON, corruption handling, and read-only enforcement
    (used by scripts/ci.sh)."""
    import os
    import struct as _struct
    import tempfile

    from .rdf import snapshot as rdf_snapshot
    from .sparql.results import results_to_json

    failures: List[str] = []

    def check(condition: bool, message: str) -> None:
        print(("ok: " if condition else "FAIL: ") + message)
        if not condition:
            failures.append(message)

    graph, _root = _source_graph(args)

    # 1. Determinism: the same graph state serialises byte-for-byte.
    image = rdf_snapshot.build_snapshot_bytes(graph)
    check(
        image == rdf_snapshot.build_snapshot_bytes(graph),
        f"snapshot build is deterministic ({len(image):,} bytes)",
    )

    # 2. Write -> reopen parity: counts, dictionary, statistics.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "self-test.snap")
        rdf_snapshot.write_snapshot(graph, path)
        snap = rdf_snapshot.open_snapshot(path)
        check(len(snap) == len(graph), "reopened triple count matches")
        check(
            snap.dictionary.size_by_kind() == graph.dictionary.size_by_kind(),
            "reopened dictionary sizes match by kind",
        )
        mem_stats, snap_stats = graph.statistics(), snap.statistics()
        check(
            mem_stats.predicate_triples == snap_stats.predicate_triples
            and mem_stats.class_instances == snap_stats.class_instances
            and mem_stats.distinct_subjects == snap_stats.distinct_subjects,
            "reopened statistics match the in-memory build",
        )

        # 3. Paged serving parity: byte-identical SPARQL-JSON page by page.
        query = _prologue() + (
            "SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?s ?p2 ?o2 } LIMIT 400"
        )

        def pages(store) -> List[str]:
            endpoint = LocalEndpoint(store, clock=SimClock())
            out: List[str] = []
            response = endpoint.query(query, page_size=64)
            out.append(results_to_json(response.result))
            while not response.complete:
                response = endpoint.query(
                    query, page_size=64, continuation=response.continuation
                )
                out.append(results_to_json(response.result))
            return out

        mem_pages = pages(graph)
        snap_pages = pages(snap)
        check(
            mem_pages == snap_pages,
            f"paged SPARQL-JSON is byte-identical over the snapshot "
            f"({len(snap_pages)} pages)",
        )
        check(len(snap_pages) > 1, f"query actually paged ({len(snap_pages)} pages)")

        # 4. EXPLAIN runs over the snapshot unchanged.
        from .obs import explain_physical

        explained = explain_physical(snap, query, analyze=True)
        check(
            explained.plan.actual_rows is not None,
            "EXPLAIN ANALYZE executes over the snapshot",
        )

        # 5. Read-only enforcement.
        from .rdf import URI as _URI

        try:
            snap.add(_URI("e:s"), _URI("e:p"), _URI("e:o"))
            check(False, "mutation rejected on a snapshot")
        except rdf_snapshot.SnapshotReadOnlyError:
            check(True, "mutation raises SnapshotReadOnlyError")
        snap.close()

    # 6. Corruption: typed errors, never a crash or a silent wrong answer.
    bad = bytearray(image)
    bad[0] ^= 0xFF
    try:
        rdf_snapshot.SnapshotGraph.from_bytes(bytes(bad))
        check(False, "bad magic rejected")
    except rdf_snapshot.SnapshotMagicError:
        check(True, "bad magic raises SnapshotMagicError")
    try:
        rdf_snapshot.SnapshotGraph.from_bytes(image[: len(image) // 2])
        check(False, "truncated file rejected")
    except rdf_snapshot.SnapshotTruncatedError:
        check(True, "truncation raises SnapshotTruncatedError")
    bad = bytearray(image)
    bad[-1] ^= 0xFF
    try:
        rdf_snapshot.SnapshotGraph.from_bytes(bytes(bad))
        check(False, "checksum mismatch rejected")
    except rdf_snapshot.SnapshotChecksumError:
        check(True, "bit rot raises SnapshotChecksumError")
    bad = bytearray(image)
    _struct.pack_into("<I", bad, 8, rdf_snapshot.FORMAT_VERSION + 7)
    try:
        rdf_snapshot.SnapshotGraph.from_bytes(bytes(bad))
        check(False, "future version rejected")
    except rdf_snapshot.SnapshotVersionError:
        check(True, "unknown format version raises SnapshotVersionError")

    if failures:
        print(
            f"snapshot self-test failed ({len(failures)} checks)",
            file=sys.stderr,
        )
        return 1
    print("snapshot self-test passed")
    return 0


def _cmd_metrics(args) -> int:
    """Dump the process-wide metrics registry (Prometheus text format)."""
    from .obs.metrics import REGISTRY

    if args.exercise:
        from .perf import (
            Decomposer,
            ElindaEndpoint,
            HeavyQueryStore,
            IncrementalConfig,
            IncrementalEvaluator,
            MaterializedViews,
        )
        from .core import MemberPattern, property_chart_query

        REGISTRY.reset()
        session = _build_session(args)
        graph = session.endpoint.graph
        root = session.settings.root_class
        query = property_chart_query(
            MemberPattern.of_type(root), Direction.OUTGOING
        )
        clock = SimClock()
        elinda = ElindaEndpoint(
            LocalEndpoint(graph, clock=clock, trace=True),
            hvs=HeavyQueryStore(threshold_ms=0.000001, clock=clock),
            views=MaterializedViews(graph, clock=clock),
            decomposer=Decomposer(MaterializedViews(graph, track=False), clock=clock),
        )
        # Every query below is routed: the door compiles it through the
        # backend's plan cache (miss → optimizer), the backend then hits.
        elinda.query(query)                       # views hit
        elinda.query(
            "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 3"
        )                                          # no rung answers: backend
        elinda.use_views = False
        elinda.query(query)                       # decomposer rewrite
        elinda.use_decomposer = False
        elinda.query(query)                       # backend, stored as heavy
        elinda.query(query)                       # HVS hit
        server = SimulatedVirtuosoServer(graph, clock=clock)
        RemoteEndpoint(server).query(
            "SELECT ?s WHERE { ?s ?p ?o } LIMIT 5"
        )                                          # remote + wire encode
        IncrementalEvaluator(
            graph, IncrementalConfig(window_size=500, max_steps=2), clock=clock
        ).run_to_completion(query)                 # incremental windows
    print(REGISTRY.render(), end="")
    return 0


def _cmd_views(args) -> int:
    """Materialized chart views: summary, or the CI self-test."""
    if args.self_test:
        return _views_self_test(args)
    from .core.model import Direction as Dir
    from .perf import MaterializedViews

    session = _build_session(args)
    views = MaterializedViews(session.endpoint.graph)
    state = views.table_state()
    print(f"classes with instances : {len(state['instances'])}")
    print(f"typed nodes            : {len(state['types'])}")
    print(f"class/direction entries: {len(state['class_props'])}")
    print(f"superclasses tracked   : {len(state['subclasses'])}")
    root = session.settings.root_class
    rows = views.property_expansion([root], Dir.OUTGOING) or []
    print(f"root property bars     : {len(rows)} ({root.value})")
    return 0


def _views_self_test(args) -> int:
    """End-to-end smoke: every chart shape served by the views route,
    row-identical to the backend, and delta maintenance across
    add/remove/bulk_load equal to a from-scratch rebuild (used by CI)."""
    from .core import (
        MemberPattern,
        count_query,
        object_chart_query,
        property_chart_query,
        subclass_chart_query,
    )
    from .obs.metrics import REGISTRY
    from .perf import Decomposer, ElindaEndpoint, HeavyQueryStore, MaterializedViews
    from .rdf.graph import Graph
    from .rdf.terms import URI
    from .rdf.vocab import RDF

    failures: List[str] = []

    def check(condition: bool, message: str) -> None:
        print(("ok: " if condition else "FAIL: ") + message)
        if not condition:
            failures.append(message)

    def counter(name: str, **labels) -> float:
        metric = REGISTRY.get(name)
        return metric.labels(**labels).value if labels else metric.value

    def canon(result):
        return sorted(
            tuple(sorted((name, term.n3()) for name, term in row.items()))
            for row in result.rows
        )

    session = _build_session(args)
    # A mutable working copy: the self-test edits the graph, and the
    # session's graph may be a read-only snapshot.
    graph = Graph(list(session.endpoint.graph.triples()))
    root = session.settings.root_class
    clock = SimClock()
    views = MaterializedViews(graph, clock=clock)
    elinda = ElindaEndpoint(
        LocalEndpoint(graph, clock=clock),
        hvs=HeavyQueryStore(clock=clock),
        views=views,
        decomposer=Decomposer(views, clock=clock),
    )
    reference = LocalEndpoint(graph, clock=SimClock())

    pattern = MemberPattern.of_type(root)
    rdf_type = RDF.term("type")
    shapes = [
        ("property chart", property_chart_query(pattern, Direction.OUTGOING)),
        ("subclass chart", subclass_chart_query(pattern, root)),
        ("bar count", count_query(pattern)),
    ]
    conn_prop = next(
        (
            row.prop
            for row in views.property_expansion([root], Direction.OUTGOING)
            if row.prop != rdf_type
        ),
        None,
    )
    if conn_prop is not None:
        shapes.append(
            (
                "connections chart",
                object_chart_query(pattern, conn_prop, Direction.OUTGOING),
            )
        )
    for label, query in shapes:
        before = counter("repro_router_queries_total", route="views")
        response = elinda.query(query)
        check(
            response.source == "views"
            and counter("repro_router_queries_total", route="views")
            == before + 1,
            f"{label} answered by the views route",
        )
        check(
            canon(response.result) == canon(reference.select(query)),
            f"{label} rows identical to the backend",
        )

    # Interleaved mutations: the views must stay fresh and exact with
    # no full rebuild, only per-triple deltas.
    before_add = counter("repro_view_deltas_total", op="add")
    before_remove = counter("repro_view_deltas_total", op="remove")
    member = min(views.instances(root), key=lambda term: term.value)
    probe = URI("http://example.org/views-self-test#probe")
    graph.add(probe, rdf_type, root)
    graph.remove(member, rdf_type, root)
    graph.bulk_load(
        [
            (probe, conn_prop or rdf_type, member),
            (member, rdf_type, root),  # put the member back, batched
        ]
    )
    check(views.is_fresh, "views stay fresh across add/remove/bulk_load")
    check(
        counter("repro_view_deltas_total", op="add") >= before_add + 3
        and counter("repro_view_deltas_total", op="remove")
        == before_remove + 1,
        "every mutation arrived as a delta",
    )
    rebuilt = MaterializedViews(graph, track=False)
    check(
        views.table_state() == rebuilt.table_state(),
        "delta-maintained tables equal a from-scratch rebuild",
    )
    post = property_chart_query(pattern, Direction.INCOMING)
    response = elinda.query(post)
    check(
        response.source == "views",
        "post-mutation chart still served from the views (no staleness)",
    )
    check(
        canon(response.result) == canon(reference.select(post)),
        "post-mutation rows identical to the backend",
    )

    if failures:
        print(f"views self-test failed ({len(failures)} checks)", file=sys.stderr)
        return 1
    print("views self-test passed")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="eLinda — explorer for Linked Data (EDBT 2018 reproduction)",
    )
    parser.add_argument(
        "--dataset",
        choices=["dbpedia", "lgd", "yago"],
        default="dbpedia",
        help="synthetic dataset to explore (default: dbpedia)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=DBpediaConfig().scale,
        help="DBpedia instance-count scale factor",
    )
    parser.add_argument("--seed", type=int, default=42, help="generator seed")
    parser.add_argument(
        "--load",
        metavar="FILE",
        help="explore an N-Triples (.nt) or Turtle (.ttl) file instead of "
        "a synthetic dataset",
    )
    parser.add_argument(
        "--root",
        metavar="CLASS",
        help="root class for --load (default owl:Thing)",
    )
    parser.add_argument(
        "--snapshot",
        metavar="FILE",
        help="serve from a persistent mmap snapshot: an existing FILE is "
        "opened zero-copy (--load/--dataset are ignored); a missing FILE "
        "is built from them first, then served",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="dataset opening statistics")
    stats.set_defaults(func=_cmd_stats)

    chart = sub.add_parser("chart", help="render a class's chart")
    chart.add_argument("cls", help="class URI or qname (e.g. dbo:Person)")
    chart.add_argument(
        "--tab",
        choices=["subclasses", "properties", "ingoing"],
        default="subclasses",
    )
    chart.add_argument("--top", type=int, default=15)
    chart.add_argument("--threshold", type=float, default=0.2)
    chart.set_defaults(func=_cmd_chart)

    path = sub.add_parser("path", help="drill down a subclass path")
    path.add_argument("classes", nargs="+", help="subclass steps from the root")
    path.add_argument("--top", type=int, default=6)
    path.set_defaults(func=_cmd_path)

    connections = sub.add_parser(
        "connections", help="object chart for a class + property"
    )
    connections.add_argument("cls")
    connections.add_argument("prop")
    connections.add_argument("--incoming", action="store_true")
    connections.add_argument("--top", type=int, default=10)
    connections.set_defaults(func=_cmd_connections)

    search = sub.add_parser("search", help="autocomplete class names")
    search.add_argument("prefix")
    search.add_argument("--top", type=int, default=10)
    search.set_defaults(func=_cmd_search)

    sparql = sub.add_parser("sparql", help="run a SPARQL query")
    sparql.add_argument("query")
    sparql.add_argument("--top", type=int, default=25)
    sparql.set_defaults(func=_cmd_sparql)

    query = sub.add_parser(
        "query",
        help="run a SELECT through the time-sliced executor, page by page",
    )
    query.add_argument(
        "query", nargs="?", help="SPARQL query text (standard prefixes pre-declared)"
    )
    query.add_argument(
        "--quantum-ms",
        type=float,
        default=None,
        help="suspend the execution after this many milliseconds per page",
    )
    query.add_argument(
        "--page-size",
        type=int,
        default=None,
        help="suspend after this many rows per page (default 100 when "
        "no quantum is given)",
    )
    query.add_argument("--top", type=int, default=25)
    query.add_argument(
        "--explain",
        action="store_true",
        help="show the physical operator tree instead of rows",
    )
    query.add_argument(
        "--analyze",
        action="store_true",
        help="with --explain: execute and report per-operator rows/time",
    )
    query.add_argument(
        "--self-test",
        action="store_true",
        help="run the executor smoke test (used by scripts/ci.sh)",
    )
    query.set_defaults(func=_cmd_query)

    fig4 = sub.add_parser("fig4", help="regenerate the Fig. 4 table")
    fig4.set_defaults(func=_cmd_fig4)

    serve = sub.add_parser(
        "serve",
        help="drive N concurrent exploration sessions through the "
        "serving frontend, with fault injection on the simulated wire",
    )
    serve.add_argument(
        "--sessions", type=int, default=8, help="concurrent sessions to drive"
    )
    serve.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="probability a backend request fails with a retryable 503",
    )
    serve.add_argument(
        "--slow-rate",
        type=float,
        default=0.0,
        help="probability a backend response pays an extra latency penalty",
    )
    serve.add_argument(
        "--max-active",
        type=int,
        default=8,
        help="admission control: sessions sharing the rotation at once",
    )
    serve.add_argument(
        "--page-size",
        type=int,
        default=50,
        help="rows per page per session turn",
    )
    serve.add_argument(
        "--max-retries",
        type=int,
        default=25,
        help="retry budget per request before a session fails",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="serve quanta on N forked worker processes sharing one "
        "mmap snapshot (0 = in-process)",
    )
    serve.add_argument(
        "--loadgen",
        type=int,
        default=0,
        metavar="N",
        help="replace the fixed closed-loop workload with N open-loop "
        "Zipf-mixed session arrivals",
    )
    serve.add_argument(
        "--arrival-rate",
        type=float,
        default=200.0,
        help="mean --loadgen arrival rate, sessions per simulated second",
    )
    serve.add_argument(
        "--self-test",
        action="store_true",
        help="run the serving-layer smoke test (used by scripts/ci.sh); "
        "with --workers, the worker-pool smoke test",
    )
    serve.set_defaults(func=_cmd_serve)

    explain = sub.add_parser(
        "explain", help="EXPLAIN / EXPLAIN ANALYZE a SPARQL query's physical plan"
    )
    explain.add_argument(
        "query", nargs="?", help="SPARQL query text (standard prefixes pre-declared)"
    )
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the query and report actual rows and wall time",
    )
    explain.add_argument(
        "--json", action="store_true", help="emit the plan (and spans) as JSON"
    )
    explain.add_argument(
        "--chart",
        metavar="CLASS",
        help="explain the property-expansion chart query for CLASS "
        "instead of an explicit query",
    )
    explain.add_argument(
        "--tab",
        choices=["properties", "ingoing"],
        default="properties",
        help="chart direction for --chart",
    )
    explain.set_defaults(func=_cmd_explain)

    snapshot = sub.add_parser(
        "snapshot",
        help="build or inspect a persistent mmap snapshot "
        "(docs/SNAPSHOT_FORMAT.md)",
    )
    snapshot.add_argument(
        "action",
        nargs="?",
        choices=["build", "info"],
        help="build: serialize --load/--dataset to FILE; info: dump a "
        "snapshot's header and section table",
    )
    snapshot.add_argument("file", nargs="?", help="snapshot file path")
    snapshot.add_argument(
        "--self-test",
        action="store_true",
        help="run the snapshot smoke test (used by scripts/ci.sh)",
    )
    snapshot.set_defaults(func=_cmd_snapshot)

    metrics = sub.add_parser(
        "metrics", help="dump the metrics registry (Prometheus text format)"
    )
    metrics.add_argument(
        "--exercise",
        action="store_true",
        help="run a small workload through every layer first",
    )
    metrics.set_defaults(func=_cmd_metrics)

    views = sub.add_parser(
        "views",
        help="materialized chart views: table summary or CI self-test",
    )
    views.add_argument(
        "--self-test",
        action="store_true",
        help="verify view answers against the backend and delta "
        "maintenance against a rebuild",
    )
    views.set_defaults(func=_cmd_views)

    demo = sub.add_parser(
        "demo", help="the Section 5 demonstration walkthrough"
    )
    demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
