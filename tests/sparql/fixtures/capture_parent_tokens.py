"""How ``parent_tokens.json`` was minted (kept for the record; not a test).

Run against a checkout of the commit *before* the block-at-a-time
protocol (PR 11, ``ea426db``), whose operators still speak the
row-at-a-time ``next()``::

    PYTHONPATH=<parent checkout>/src python tests/sparql/fixtures/capture_parent_tokens.py

The tokens, and the rows the parent engine went on to produce from each,
are what ``tests/sparql/test_parent_tokens.py`` resumes on the current
engine: proof that ``TOKEN_VERSION`` 2 state shapes did not change.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(HERE))))

from repro.sparql.executor import (  # noqa: E402
    decode_continuation,
    encode_continuation,
    restore_plan,
    run_quantum,
)
from repro.sparql.planner import build_physical_plan  # noqa: E402

from tests.sparql.test_parent_tokens import (  # noqa: E402
    CHART_QUERY,
    fixture_graph,
    rows_json,
)


def _capture(graph, minting_quanta):
    plan = build_physical_plan(graph, CHART_QUERY)
    served = []
    for kwargs in minting_quanta:
        page = run_quantum(plan, **kwargs)
        assert not page.complete
        served.extend(page.rows)
    token = encode_continuation(plan, graph, CHART_QUERY)
    # What the parent engine itself serves from that token.
    resumed = restore_plan(plan.factory, graph, decode_continuation(token))
    rest = run_quantum(resumed)
    assert rest.complete
    return {
        "reason": page.reason,
        "token": token,
        "served": rows_json(served),
        "remaining": rows_json(rest.rows),
    }


def main():
    graph = fixture_graph(tempfile.mkdtemp())
    out = {
        "triples": len(graph),
        "query": CHART_QUERY,
        # Row budget hit while OrderBy is emitting its sorted buffer.
        "mid_emit": _capture(graph, [{"page_size": 3}]),
        # A deadline that is already past when the first step returns:
        # three quanta = three bounded build steps into the inner
        # aggregation, none of them finishing it.
        "mid_build": _capture(graph, [{"quantum_ms": 1e-9}] * 3),
    }
    path = os.path.join(HERE, "parent_tokens.json")
    with open(path, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(path, {k: len(v["token"]) for k, v in out.items() if isinstance(v, dict)})


if __name__ == "__main__":
    main()
