#!/usr/bin/env bash
# The checks a pull request must pass, runnable without any install step:
#   1. the order property in the EXPLAIN of the Fig. 4 chart: the
#      inner aggregation is released per ?s ?p (the scans' sorted order
#      reaches it), the outer one at the end of its input (EXPLAIN
#      ANALYZE row accounting, TopK fusion, plan-cache hit/invalidation
#      and the HVS/decomposer counters are tier-1 tests:
#      tests/obs/test_explain.py, tests/obs/test_instrumentation.py,
#      tests/perf/test_plancache.py);
#   2. the time-sliced executor smoke test (paged ≡ unpaged on the one
#      engine: the same plan run under a row budget and with none, token
#      hygiene — a suspended query resumed across a graph mutation is
#      invalidated, never silently wrong — the Fig. 4 chart suspended
#      after every operator step (quantum_ms=1e-9), round-robin fairness, and
#      the encoded-store smoke: load → query → page → decode, with the
#      dictionary round-trip and byte-identical paged SPARQL-JSON),
#      plus the property-path paging smoke (a subClassOf* closure must
#      suspend mid-traversal, resume from its token, and report its
#      BFS frontier counters in EXPLAIN ANALYZE), and the segmented-
#      token smoke: the Fig. 4 chart paged with every page on a fresh
#      endpoint equals the unpaged answer, its first continuation token
#      is `head.segment...` and its last is a head and one segment;
#   3. a plan-cache + dictionary + engine-counter metrics smoke over
#      `repro metrics --exercise`, whose chart and ORDER BY … LIMIT
#      queries are all *routed* (HVS → views → decomposer → backend; no
#      bare endpoint stands beside the router any more): routed queries
#      reach the backend, the plan compiled at the router's door is the
#      one the backend hits, the optimizer ran, and every backend
#      answer is a completed executor page that moved the repro_eval_*
#      counters (the exact once-per-text / optimized-entry assertions
#      are tier-1's tests/perf/test_router.py::TestTheDoor); then the
#      materialized-views smoke
#      (every chart shape served from the views route row-identically
#      to the backend, and delta maintenance across
#      add/remove/bulk_load equal to a from-scratch rebuild);
#   4. the serving-layer smoke test (concurrency soak under injected
#      faults, retry accounting, and the breaker's fallback ladder),
#      then the worker-pool smoke test (2 forked workers over a shared
#      mmap snapshot: byte-identical pages, crash/respawn recovery,
#      open-loop arrivals, stale-snapshot detection, metrics merge);
#   5. the snapshot-store smoke test (deterministic builds, reopen
#      parity, byte-identical paged SPARQL-JSON over the mmap store,
#      corruption → typed errors, read-only enforcement), plus a
#      build → zero-copy reopen round-trip through the CLI boot path,
#      built twice under different hash seeds and compared byte for
#      byte (a writer that leans on set or dict hash order fails here);
#   6. the benchmark ledger's smoke run (all four workloads on the
#      small dataset with their answer checks, <30 s) and its harness
#      tests, so an engine change that breaks a ledger workload fails
#      here before the benchmark gate does;
#   7. the full tier-1 test suite.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== order-aware aggregation in the physical EXPLAIN =="
chart_plan="$(python -m repro explain --chart owl:Thing)"
grep -q 'Aggregation (group by ?s ?p, released per ?s ?p)' <<< "$chart_plan" \
  || { echo "FAIL: the chart's inner aggregation is not released per ?s ?p"; exit 1; }
grep -q 'Aggregation (group by ?p, released at end)' <<< "$chart_plan" \
  || { echo "FAIL: the chart's outer aggregation claims an order it cannot have"; exit 1; }
echo "ok: inner GROUP BY ?s ?p released per partition, outer GROUP BY ?p at end"

echo
echo "== repro query --self-test =="
python -m repro query --self-test

echo
echo "== property-path paging smoke =="
# A closure query must page (tokens minted mid-traversal), finish, and
# render its frontier counters in EXPLAIN ANALYZE.
path_query='SELECT ?c ?d WHERE { ?c rdfs:subClassOf* ?d }'
# String matches, not `echo | grep -q`: under pipefail, grep -q exiting
# at the first match SIGPIPEs the echo of this multi-page output and
# fails the pipeline spuriously.
path_pages="$(python -m repro query "$path_query" --page-size 25)"
[[ "$path_pages" == *'complete=False'* ]] \
  || { echo "FAIL: path query never suspended (ran in one page)"; exit 1; }
[[ "$path_pages" == *'complete=True'* ]] \
  || { echo "FAIL: path query never completed"; exit 1; }
path_explained="$(python -m repro query "$path_query" --page-size 25 --explain --analyze)"
grep -q 'PathScan.*hops=' <<< "$path_explained" \
  || { echo "FAIL: no PathScan frontier detail in EXPLAIN ANALYZE"; exit 1; }
echo "ok: path query paged through continuation tokens with frontier detail"

echo
echo "== segmented tokens: the Fig. 4 chart, every page on a fresh endpoint =="
python - <<'PY'
from repro.core.queries import MemberPattern, property_chart_query
from repro.datasets import DBpediaConfig, generate_dbpedia
from repro.endpoint import LocalEndpoint
from repro.rdf import OWL

graph = generate_dbpedia(DBpediaConfig(scale=0.00025, seed=42)).graph
text = property_chart_query(MemberPattern.of_type(OWL.term("Thing")))
rows, tokens = [], []
response = LocalEndpoint(graph).query(text, page_size=50)
while not response.complete:
    rows += response.result.rows
    tokens.append(response.continuation)
    response = LocalEndpoint(graph).query(continuation=tokens[-1], page_size=50)
rows += response.result.rows
assert rows == LocalEndpoint(graph).query(text).result.rows, "paged != unpaged"
parts = [len(token.split(".")) for token in tokens]
assert parts[0] >= 2, f"first token is one piece: the sort's rows are inline ({parts})"
assert parts[-1] == 2, f"last token should be a head and one segment ({parts})"
assert parts == sorted(parts, reverse=True), f"a token grew ({parts})"
print(f"ok: {len(rows)} rows over {len(tokens) + 1} cold pages; "
      f"head + {parts[0] - 1} segments down to head + 1")
PY

echo
echo "== plan-cache metrics smoke =="
metrics="$(python -m repro metrics --exercise)"
echo "$metrics" | grep -q 'repro_plancache_requests_total{outcome="hit"} [1-9]' \
  || { echo "FAIL: the backend did not hit the plan the router's door compiled"; exit 1; }
echo "$metrics" | grep -q 'repro_router_queries_total{route="backend"} [1-9]' \
  || { echo "FAIL: no routed query reached the backend"; exit 1; }
echo "$metrics" | grep -q 'repro_optimizer_runs_total [1-9]' \
  || { echo "FAIL: routed backend queries ran unoptimized plans"; exit 1; }
echo "$metrics" | grep -q 'repro_dict_terms{kind="uri"} [1-9]' \
  || { echo "FAIL: no terms interned in the dictionary"; exit 1; }
echo "$metrics" | grep -q 'repro_dict_encode_total{outcome="miss"} [1-9]' \
  || { echo "FAIL: dictionary never interned during the workload"; exit 1; }
echo "$metrics" | grep -q 'repro_exec_pages_total{outcome="complete"} [1-9]' \
  || { echo "FAIL: one-shot queries did not run as executor pages"; exit 1; }
echo "$metrics" | grep -q 'repro_eval_bindings_total [1-9]' \
  || { echo "FAIL: the executor did not flush the engine work counters"; exit 1; }
echo "ok: routed queries ran optimized, plan-cached plans; dictionary interning and engine counters recorded"

echo
echo "== repro views --self-test =="
python -m repro views --self-test

echo
echo "== repro serve --self-test =="
python -m repro serve --self-test

echo
echo "== repro serve --workers 2 --self-test (pool smoke) =="
# The pool workload includes a subClassOf* closure, so this also
# migrates property-path continuation tokens across worker processes
# (and across the injected crash/respawn) byte-identically.
python -m repro serve --workers 2 --self-test

echo
echo "== repro snapshot --self-test =="
python -m repro snapshot --self-test

echo
echo "== snapshot build → reopen smoke =="
snapdir="$(mktemp -d)"
trap 'rm -rf "$snapdir"' EXIT
PYTHONHASHSEED=1 python -m repro snapshot build "$snapdir/ci.snap"
PYTHONHASHSEED=2 python -m repro snapshot build "$snapdir/ci-seed2.snap"
cmp "$snapdir/ci.snap" "$snapdir/ci-seed2.snap" \
  || { echo "FAIL: the snapshot's bytes depend on the hash seed"; exit 1; }
python -m repro snapshot info "$snapdir/ci.snap" > /dev/null
python -m repro --snapshot "$snapdir/ci.snap" stats > "$snapdir/from-snap.txt"
python -m repro stats > "$snapdir/from-mem.txt"
diff "$snapdir/from-mem.txt" "$snapdir/from-snap.txt" \
  || { echo "FAIL: stats differ between snapshot and in-memory boot"; exit 1; }
echo "ok: two hash seeds build one file; snapshot boot serves the same opening statistics as a text boot"

echo
echo "== benchmark ledger smoke =="
python3 benchmarks/ledger/run.py --smoke
python -m pytest -q benchmarks/ledger/tests

echo
echo "== tier-1 test suite =="
python -m pytest -x -q
