"""The sorted-scan contract the physical planner depends on.

``SCAN_ORDER`` says, for each bound/open pattern shape, in which
position order ``triples_ids`` enumerates its matches.  The planner
reads that table to decide when an aggregation may release a group
before its input ends, so a store that broke it would produce wrong
answers, not slow ones: it is checked here for every shape, on the
in-memory store after arbitrary mutation histories and on the snapshot
built from it.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import SCAN_ORDER, Graph, Literal, URI
from repro.rdf.snapshot import SnapshotGraph, build_snapshot_bytes

EX = "http://ex.org/"
_NODES = [URI(EX + f"n{i}") for i in range(6)]
_PREDS = [URI(EX + f"p{i}") for i in range(3)]
_OBJECTS = _NODES + [Literal(i) for i in range(3)]

_triples = st.tuples(
    st.sampled_from(_NODES), st.sampled_from(_PREDS), st.sampled_from(_OBJECTS)
)
#: add / remove / a bulk() batch of adds, applied in order.
_edits = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _triples),
        st.tuples(st.just("remove"), _triples),
        st.tuples(st.just("bulk"), st.lists(_triples, max_size=12)),
    ),
    min_size=1,
    max_size=40,
)


def _edited_graph(edits) -> Graph:
    graph = Graph()
    for action, payload in edits:
        if action == "add":
            graph.add(*payload)
        elif action == "remove":
            graph.remove(*payload)
        else:
            with graph.bulk():
                for triple in payload:
                    graph.add(*triple)
    return graph


def test_the_table_covers_every_shape_and_only_open_positions():
    assert set(SCAN_ORDER) == set(product((True, False), repeat=3))
    for shape, order in SCAN_ORDER.items():
        opened = [position for position in range(3) if not shape[position]]
        assert sorted(order) == opened


def _assert_scans_follow_the_table(store):
    # Probe with triples the store holds (and one it cannot hold).
    probes = list(store.triples_ids())[:12] + [(-1, -1, -1)]
    for shape, order in SCAN_ORDER.items():
        for probe in probes:
            pattern = [
                value if bound else None for value, bound in zip(probe, shape)
            ]
            matches = list(store.triples_ids(*pattern))
            keys = [tuple(match[at] for at in order) for match in matches]
            assert all(a < b for a, b in zip(keys, keys[1:])), (shape, pattern)
            if not order:
                assert len(matches) <= 1


@given(_edits)
@settings(max_examples=60, deadline=None)
def test_every_shape_scans_in_table_order_on_both_stores(edits):
    graph = _edited_graph(edits)
    _assert_scans_follow_the_table(graph)
    _assert_scans_follow_the_table(
        SnapshotGraph.from_bytes(build_snapshot_bytes(graph))
    )
