"""Version 3 continuation tokens: ``head[.segment]*``.

A finished sort (``OrderByOp``, ``TopKOp``) cuts its output once into
``BLOCK``-row chunks; each chunk's encoding — its *segment* — rides
behind the token's head as text, is produced once and decoded when
emission reaches it.  Three things are pinned here:

- **the equivalences**: whoever resumes a token (the endpoint that
  minted it, a fresh one, any mix) serves the same rows in the same
  order for the same work, and mints the same next token, byte for byte;
- **the costs, counted**: a chunk is encoded once, forwarded as text
  after that, and decoded by the endpoint that emits from it only;
- **hostile tokens**: every way of bending a run reference or a segment
  is a ``MalformedTokenError`` (400 on the wire) — at restore when the
  damage is in reach, mid-request when it sits in a chunk decoded later.
"""

import base64
import json
import random

import pytest

from repro.endpoint import (
    LocalEndpoint,
    SimulatedVirtuosoServer,
    encode_request,
)
from repro.obs.metrics import REGISTRY
from repro.rdf import Graph, Literal, URI
from repro.rdf.snapshot import open_snapshot, write_snapshot
from repro.sparql.executor import (
    MalformedTokenError,
    TOKEN_VERSION,
    TokenVersionError,
    decode_continuation,
    encode_continuation,
    restore_plan,
    run_quantum,
)
from repro.sparql.physical import BLOCK, OrderByOp, TopKOp
from repro.sparql.planner import build_physical_plan

EX = "http://ex.org/"
ITEMS = 330

#: The paper's property-expansion chart (Fig. 4): 303 bars here.
FIG4 = (
    "SELECT ?p (COUNT(?p) AS ?count) (SUM(?sp) AS ?triples) WHERE {\n"
    "  { SELECT ?s ?p (COUNT(*) AS ?sp) WHERE {\n"
    f"      ?s <{EX}type> <{EX}Thing> .\n"
    "      ?s ?p ?o .\n"
    "    } GROUP BY ?s ?p }\n"
    "}\nGROUP BY ?p\nORDER BY DESC(?count) ?p"
)
#: ORDER BY ... LIMIT fuses into a TopKOp.
TOPK = (
    f"SELECT ?s ?v WHERE {{ ?s <{EX}score> ?v }} "
    "ORDER BY DESC(?v) ?s LIMIT 300"
)
#: A full sort over a join.
JOINED = (
    f"SELECT ?s ?v ?o WHERE {{ ?s <{EX}type> <{EX}Thing> . "
    f"?s <{EX}score> ?v . ?s <{EX}link> ?o }} ORDER BY ?v ?s ?o"
)
SHAPES = {"fig4": FIG4, "topk": TOPK, "joined": JOINED}

#: A click the size of the ledger's Fig. 4 one: 1,530 rows, 31 pages
#: of 50, twelve chunks — through each of the two sorting operators.
CLICK_ROWS, CLICK_PAGE = 1530, 50
CLICKS = {
    "topk": f"SELECT ?s ?p ?o WHERE {{ ?s ?p ?o }} ORDER BY ?s ?p ?o LIMIT {CLICK_ROWS}",
    "orderby": (
        "SELECT ?s ?p ?o WHERE { { SELECT ?s ?p ?o WHERE { ?s ?p ?o } "
        f"LIMIT {CLICK_ROWS} }} }} ORDER BY ?s ?p ?o"
    ),
}


def build_graph() -> Graph:
    graph = Graph(name="segments")
    with graph.bulk():
        for i in range(ITEMS):
            item = URI(f"{EX}item{i:03d}")
            graph.add(item, URI(EX + "type"), URI(EX + "Thing"))
            graph.add(item, URI(EX + "score"), Literal(i % 17))
            graph.add(item, URI(EX + "link"), URI(f"{EX}item{(i * 5) % ITEMS:03d}"))
            for j in range(1 + i % 3):
                graph.add(
                    item,
                    URI(f"{EX}p{(i * 7 + j) % 300:03d}"),
                    URI(f"{EX}item{(i * 3 + j) % ITEMS:03d}"),
                )
    return graph


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    graph = build_graph()
    path = str(tmp_path_factory.mktemp("segments") / "segments.snap")
    write_snapshot(graph, path)
    with open_snapshot(path) as snapshot:
        yield {"memory": graph, "snapshot": snapshot}


def rendered(rows):
    return [
        tuple((name, term.n3()) for name, term in row.items()) for row in rows
    ]


def totals(responses):
    out = [0, 0, 0, 0]
    for response in responses:
        stats = response.stats
        out[0] += stats.intermediate_bindings
        out[1] += stats.pattern_scans
        out[2] += stats.groups
        out[3] += stats.results
    return out


def page_through(store, text, page_size, mode="live", seed=0):
    """Every page of a query, each resumed *live* (by the endpoint that
    minted the token, off its live plan), *cold* (by a fresh endpoint,
    off the token alone) or by a seeded *mixed* choice of the two."""
    rng = random.Random(seed)
    live = LocalEndpoint(store)
    responses = [live.execute(text, page_size=page_size)]
    while not responses[-1].complete:
        cold = mode == "cold" or (mode == "mixed" and rng.random() < 0.5)
        endpoint = LocalEndpoint(store) if cold else live
        responses.append(
            endpoint.execute(
                continuation=responses[-1].continuation, page_size=page_size
            )
        )
    return responses


def page_through_from(store, token):
    """The rows a token still stands for, every page on a fresh endpoint."""
    rows = []
    while token is not None:
        response = LocalEndpoint(store).execute(
            continuation=token, page_size=CLICK_PAGE
        )
        rows += response.result.rows
        token = response.continuation
    return rows


def rows_of(responses):
    return [row for response in responses for row in response.result.rows]


def split(token):
    """``(head as JSON, [segment text, ...])``."""
    head, *segments = token.split(".")
    return json.loads(base64.urlsafe_b64decode(head)), segments


def join(head, segments):
    text = json.dumps(head, separators=(",", ":")).encode("utf-8")
    return ".".join([base64.urlsafe_b64encode(text).decode("ascii"), *segments])


def segment_of(rows):
    return base64.urlsafe_b64encode(json.dumps(rows).encode("utf-8")).decode("ascii")


def sort_states(state):
    """The saved OrderBy / TopK nodes of a state tree, outermost first."""
    found = []
    while isinstance(state, dict):
        if state.get("op") in ("OrderBy", "TopK"):
            found.append(state)
        state = state.get("child")
    return found


def run_key(node):
    return "buffer" if node["op"] == "OrderBy" else "ordered"


SEGMENT_EVENTS = REGISTRY.get("repro_exec_token_segments_total")


def events():
    return {
        event: SEGMENT_EVENTS.labels(event=event).value
        for event in ("encoded", "forwarded", "decoded")
    }


def moved(before):
    after = events()
    return {event: after[event] - before[event] for event in after}


# ----------------------------------------------------------------------
# (a) any-worker resume ≡ same-worker resume ≡ one shot
# ----------------------------------------------------------------------


@pytest.mark.parametrize("page_size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 50])
@pytest.mark.parametrize("store_name", ["memory", "snapshot"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_live_cold_and_mixed_resumes_agree(stores, shape, store_name, page_size):
    store, text = stores[store_name], SHAPES[shape]
    one_shot = LocalEndpoint(store).execute(text)
    assert len(one_shot.result.rows) > 2 * BLOCK  # three chunks at least
    live = page_through(store, text, page_size)
    assert rendered(rows_of(live)) == rendered(one_shot.result.rows)
    assert totals(live) == totals([one_shot])
    for mode in ("cold", "mixed"):
        other = page_through(store, text, page_size, mode, seed=page_size)
        assert rendered(rows_of(other)) == rendered(one_shot.result.rows)
        assert totals(other) == totals([one_shot])
        # Whoever saves the run mints the same token, at every page.
        assert [r.continuation for r in other] == [r.continuation for r in live]


# ----------------------------------------------------------------------
# (b) tokens shrink as the sort drains
# ----------------------------------------------------------------------


@pytest.mark.parametrize("page_size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 50])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_token_carries_the_pending_chunks_and_no_other(stores, shape, page_size):
    responses = page_through(stores["snapshot"], SHAPES[shape], page_size)
    total = len(rows_of(responses))
    tokens = [response.continuation for response in responses[:-1]]
    served = 0
    previous = None
    for response, token in zip(responses, tokens):
        served += len(response.result.rows)
        head, segments = split(token)
        assert head["v"] == TOKEN_VERSION == 3
        (node,) = [n for n in sort_states(head["state"]) if n["phase"] == "emit"]
        # Chunk k is rows [k * BLOCK, (k + 1) * BLOCK) of the run,
        # whatever the page size: the drained ones are gone, the one
        # emission stands in travels whole.
        # (A root that has served the last row but not yet seen "done"
        # still mints a token: no chunk, nothing to skip.)
        assert node[run_key(node)] == {
            "$run": [0, len(segments)],
            "skip": served % BLOCK if served < total else 0,
        }
        assert node["emitted"] == served
        assert len(segments) == len(
            {row // BLOCK for row in range(served, total)}
        )
        sizes = [len(segment) for segment in segments]
        if previous is not None:
            # Non-increasing — but for the digits of the two counts in
            # the head, which can cost one base64 quantum.
            assert sizes == previous[1][len(previous[1]) - len(sizes):]
            assert len(token) <= previous[0] + 4
        previous = (len(token), sizes)
    # The last token: what one page still has to emit, and a head.
    assert len(tokens[-1].split(".")[0]) < 2048
    assert len(split(tokens[-1])[1]) <= 1 + (page_size > total % BLOCK)


# ----------------------------------------------------------------------
# (c) counted, not timed
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shape", sorted(CLICKS))
def test_each_chunk_is_encoded_once_and_decoded_where_it_is_emitted(stores, shape):
    store, text = stores["snapshot"], CLICKS[shape]
    chunks = -(-CLICK_ROWS // BLOCK)
    pages = -(-CLICK_ROWS // CLICK_PAGE)
    assert (chunks, pages) == (12, 31)

    # One endpoint, 31 pages: every chunk becomes a segment exactly once
    # (at the first save), later saves only pass the text on, and the
    # live plan never reads a segment back.
    before = events()
    live = page_through(store, text, CLICK_PAGE)
    assert len(live) == pages and len(rows_of(live)) == CLICK_ROWS
    forwarded = sum(
        len(split(response.continuation)[1]) for response in live[1:-1]
    )
    assert moved(before) == {
        "encoded": chunks, "forwarded": forwarded, "decoded": 0,
    }
    assert len(split(live[0].continuation)[1]) == chunks
    assert len(split(live[-2].continuation)[1]) == 1

    # Every page on a fresh endpoint: nobody encodes again (the first
    # page's endpoint aside, which sorted), and an endpoint decodes the
    # chunks its own page emits from — at most two of the twelve.
    first = LocalEndpoint(store).execute(text, page_size=CLICK_PAGE)
    token, served = first.continuation, CLICK_PAGE
    while token is not None:
        before = events()
        response = LocalEndpoint(store).execute(
            continuation=token, page_size=CLICK_PAGE
        )
        emitted = len(response.result.rows)
        touched = len({row // BLOCK for row in range(served, served + emitted)})
        pending = len(split(token)[1])
        assert 1 <= touched <= 2
        assert moved(before) == {
            "encoded": 0,
            "forwarded": 0 if response.complete else len(split(response.continuation)[1]),
            "decoded": touched,
        }
        assert touched <= pending
        token, served = response.continuation, served + emitted
    assert served == CLICK_ROWS


# ----------------------------------------------------------------------
# Hostile tokens
# ----------------------------------------------------------------------


REJECTS = REGISTRY.get("repro_exec_token_rejects_total")


def assert_refused(
    store, text, token, error=MalformedTokenError, reason="malformed",
    page_size=CLICK_PAGE,
):
    """Refused typed by the endpoint (and counted), 400 on the wire."""
    before = REJECTS.labels(reason=reason).value
    with pytest.raises(error):
        LocalEndpoint(store).execute(continuation=token, page_size=page_size)
    assert REJECTS.labels(reason=reason).value == before + 1
    server = SimulatedVirtuosoServer(store)
    response = server.handle(
        encode_request(server.url, text, page_size=page_size, continuation=token)
    )
    assert response.status == 400
    assert response.body.startswith(error.__name__)


@pytest.fixture(scope="module", params=sorted(SHAPES))
def suspended_once(request, stores):
    store, text = stores["snapshot"], SHAPES[request.param]
    first = LocalEndpoint(store).execute(text, page_size=CLICK_PAGE)
    rows = rendered(LocalEndpoint(store).execute(text).result.rows)
    return store, text, first.continuation, rows


@pytest.fixture()
def suspended(suspended_once):
    """``(store, text, head, segments, rows)`` one page into a sort: three
    segments, emission standing 50 rows into the first; ``rows`` is the
    whole answer.  The head is the test's own to bend."""
    store, text, token, rows = suspended_once
    head, segments = split(token)
    assert len(segments) == 3
    return store, text, head, segments, rows


def emitting(head):
    (node,) = [n for n in sort_states(head["state"]) if n["phase"] == "emit"]
    return node, run_key(node)


@pytest.mark.parametrize(
    "reference",
    [
        ["0", 3], [0, "3"], [0.0, 3], [0, 3.0], [True, 3], [None, 3], [0, None],
        [0], [0, 3, 0], [], "03", None, 7, {"first": 0},  # not two ints
        [-1, 3], [0, -1], [-3, 3],  # negative
        [0, 4], [1, 3], [3, 1], [10**15, 1], [0, 10**15],  # out of range
        [0, 2], [1, 2], [0, 0],  # a segment no reference uses
    ],
)
def test_bent_run_references_are_malformed(suspended, reference):
    store, text, head, segments, _ = suspended
    node, key = emitting(head)
    node[key]["$run"] = reference
    assert_refused(store, text, join(head, segments))


@pytest.mark.parametrize("skip", [BLOCK, BLOCK + 1, 10**15, -1, "1", 1.0, None, True])
def test_a_position_outside_the_first_chunk_is_malformed(suspended, skip):
    store, text, head, segments, _ = suspended
    node, key = emitting(head)
    node[key]["skip"] = skip
    assert_refused(store, text, join(head, segments))


def test_a_run_reference_is_claimed_once(stores):
    """Two sorts, one inside the other: the inner one is exhausted and
    refers to no segment; bent to refer to the outer one's, it overlaps."""
    store = stores["snapshot"]
    text = (
        f"SELECT ?s ?v WHERE {{ {{ SELECT ?s ?v WHERE {{ ?s <{EX}score> ?v }} "
        "ORDER BY ?v ?s } } ORDER BY DESC(?v) ?s"
    )
    first = LocalEndpoint(store).execute(text, page_size=CLICK_PAGE)
    head, segments = split(first.continuation)
    outer, inner = sort_states(head["state"])
    assert inner["buffer"] == {"$run": [0, 0], "skip": 0} and inner["done"]
    assert outer["buffer"]["$run"] == [0, 3]
    inner["buffer"]["$run"] = [2, 1]
    assert_refused(store, text, join(head, segments))


BAD_SEGMENTS = {
    "not base64": "!!!!",
    "bad padding": "abcde",
    "not utf-8": base64.urlsafe_b64encode(b"\xff\xfe[]").decode("ascii"),
    "not json": base64.urlsafe_b64encode(b"not json").decode("ascii"),
    "not a list": segment_of({"rows": []}),
    "a string": segment_of("rows"),
    "empty text": "",
    "empty list": segment_of([]),
    "too long": segment_of([[["s", 1]]] * (BLOCK + 1)),
    "rows that are not bindings": segment_of([1, 2, 3]),
    "values that are not terms": segment_of([[["s", "text"]]]),
    "a term of no kind": segment_of([[["s", {"type": "nonsense", "value": "x"}]]]),
}


@pytest.mark.parametrize("damage", sorted(BAD_SEGMENTS))
def test_a_corrupt_first_chunk_is_refused_at_restore(suspended, damage):
    store, text, head, segments, _ = suspended
    bad = [BAD_SEGMENTS[damage]] + segments[1:]
    assert_refused(store, text, join(head, bad))
    # ...by restore_plan, before any operator ran.
    factory = build_physical_plan(store, text).factory
    with pytest.raises(MalformedTokenError):
        restore_plan(factory, store, decode_continuation(join(head, bad)))


@pytest.mark.parametrize("damage", sorted(BAD_SEGMENTS))
def test_a_corrupt_later_chunk_is_refused_when_emission_reaches_it(
    suspended, damage
):
    store, text, head, segments, rows = suspended
    bad = join(head, [segments[0], BAD_SEGMENTS[damage], segments[2]])
    # A request that would cross into the chunk: typed, mid-request,
    # counted — and it serves no row.
    assert_refused(store, text, bad, page_size=2 * BLOCK)
    # A request that stays inside the sound first chunk is served, right
    # rows and all, and hands the damage on untouched; the next one,
    # live or cold, is refused.
    endpoint = LocalEndpoint(store)
    page = endpoint.execute(continuation=bad, page_size=CLICK_PAGE)
    assert rendered(page.result.rows) == rows[CLICK_PAGE:2 * CLICK_PAGE]
    assert split(page.continuation)[1][1] == BAD_SEGMENTS[damage]
    for resumer in (endpoint, LocalEndpoint(store)):
        with pytest.raises(MalformedTokenError):
            resumer.execute(continuation=page.continuation, page_size=CLICK_PAGE)


def test_an_extra_segment_is_malformed(suspended):
    store, text, head, segments, _ = suspended
    assert_refused(store, text, join(head, segments + [segments[-1]]))
    assert_refused(store, text, join(head, segments) + ".")


@pytest.mark.parametrize("shape", ["topk", "joined"])
def test_a_run_reference_outside_the_emit_phase_is_malformed(stores, shape):
    store, text = stores["snapshot"], SHAPES[shape]
    plan = build_physical_plan(store, text)
    assert not run_quantum(plan, quantum_ms=1e-9).complete
    head, segments = split(encode_continuation(plan, store, text))
    assert segments == []
    (node,) = sort_states(head["state"])
    assert node["phase"] == "build"
    node[run_key(node)] = {"$run": [0, 0], "skip": 0}
    assert_refused(store, text, join(head, []))
    node[run_key(node)] = {"$run": [0, 1], "skip": 0}
    assert_refused(store, text, join(head, [segment_of([[["s", 1]]])]))


def test_versions(suspended):
    store, text, head, segments, rows = suspended
    # Segments behind a head that says 2: no version 2 writer made that.
    assert_refused(
        store, text, join({**head, "v": 2}, segments), TokenVersionError, "version"
    )
    for version in (1, 4, "3", None):
        assert_refused(
            store, text, join({**head, "v": version}, segments),
            TokenVersionError, "version",
        )
    # Version 2 proper — no segments, the pending rows inline — is read
    # by the same code and cut into a run on load.
    node, key = emitting(head)
    inline = [
        row for segment in segments
        for row in json.loads(base64.urlsafe_b64decode(segment))
    ][node[key]["skip"]:]
    node[key] = inline
    old = join({**head, "v": 2}, [])
    assert "." not in old
    resumed = page_through_from(store, old)
    assert rendered(resumed) == rows[CLICK_PAGE:]


# ----------------------------------------------------------------------
# ``emitted`` is a count, never a size
# ----------------------------------------------------------------------


def test_a_hostile_emitted_allocates_nothing(suspended):
    store, text, head, segments, rows = suspended
    node, _ = emitting(head)
    assert node["emitted"] == CLICK_PAGE
    node["emitted"] = 10**15  # a list that long cannot exist
    token = join(head, segments)
    factory = build_physical_plan(store, text).factory
    plan = restore_plan(factory, store, decode_continuation(token))
    (op,) = [o for o in plan.root.walk() if isinstance(o, (OrderByOp, TopKOp))]
    assert op._run.emitted == 10**15
    page = run_quantum(plan, page_size=CLICK_PAGE)
    assert rendered(page.rows) == rows[CLICK_PAGE:2 * CLICK_PAGE]
    resaved, _ = split(encode_continuation(plan, store, text))
    assert emitting(resaved)[0]["emitted"] == 10**15 + CLICK_PAGE
    # The whole remainder, through the endpoint.
    assert rendered(page_through_from(store, token)) == rows[CLICK_PAGE:]


@pytest.mark.parametrize("emitted", [float("inf"), "many", [1], {"n": 1}])
def test_an_emitted_that_is_no_count_is_malformed(suspended, emitted):
    store, text, head, segments, _ = suspended
    emitting(head)[0]["emitted"] = emitted
    assert_refused(store, text, join(head, segments))
