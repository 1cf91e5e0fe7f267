"""The snapshot writer: byte equality with a reference formulation, and
the temp-file discipline of ``write_snapshot``.

``build_snapshot_bytes`` derives the OSP and POS orderings from the SPO
one by two stable single-key sorts and assembles the file from its
parts.  The reference writer below is the direct formulation — one
tuple-key sort per ordering, one concatenated payload — and every file
the real writer produces must equal it byte for byte.
"""

import hashlib
import os
import struct
import threading
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import DBpediaConfig, generate_dbpedia
from repro.rdf import BNode, Graph, Literal, URI
from repro.rdf.snapshot import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    SECTION_COUNT,
    _pack_stats,
    _serialize_term,
    build_snapshot_bytes,
    write_snapshot,
)

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"


def _u64s(values) -> bytes:
    return struct.pack(f"<{len(values)}Q", *values)


def reference_snapshot_bytes(graph) -> bytes:
    """One tuple-key sort per ordering; rows are stored as their keys."""
    sections, counts = [], []
    for kind in range(3):
        records = [_serialize_term(term) for term in graph.dictionary.export_kind(kind)]
        counts.append(len(records))
        offsets = [0]
        for record in records:
            offsets.append(offsets[-1] + len(record))
        order = sorted(range(len(records)), key=records.__getitem__)
        sections += [_u64s(offsets), b"".join(records), _u64s(order)]
    rows = list(graph.triples_ids())
    for key in (
        lambda r: r,
        lambda r: (r[1], r[2], r[0]),
        lambda r: (r[2], r[0], r[1]),
    ):
        sections.append(b"".join(_u64s(key(row)) for row in sorted(rows, key=key)))
    sections.append(_pack_stats(graph.statistics(), graph.dictionary))
    table = body = b""
    cursor = HEADER_SIZE + 16 * SECTION_COUNT
    for data in sections:
        pad = -cursor % 8
        table += struct.pack("<QQ", cursor + pad, len(data))
        body += b"\x00" * pad + data
        cursor += pad + len(data)
    payload = table + body
    header = struct.pack(
        "<8sIIQIIQQQQ", MAGIC, FORMAT_VERSION, 0, len(payload),
        zlib.crc32(payload), 0, len(rows), *counts,
    )
    return header + payload


# ----------------------------------------------------------------------
# Byte equality with the reference writer
# ----------------------------------------------------------------------

# A small vocabulary so objects repeat across subjects and predicates:
# those ties are what the stable sorts must order correctly.
_SUBJECTS = [URI(f"e:s{i}") for i in range(4)] + [BNode("b0"), BNode("b1")]
_PREDICATES = [URI(f"e:p{i}") for i in range(3)]
_OBJECTS = _SUBJECTS + [
    URI("e:o"),
    Literal("plain"),
    Literal("7", datatype=XSD_INT),
    Literal("tag", language="en"),
    Literal("tag"),
]
_triples = st.tuples(
    st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES), st.sampled_from(_OBJECTS)
)
_edits = st.tuples(st.sampled_from(["add", "remove"]), _triples)
_histories = st.lists(
    st.one_of(_edits, st.tuples(st.just("bulk"), st.lists(_edits, max_size=12))),
    max_size=25,
)


def _replay(history) -> Graph:
    graph = Graph()

    def apply(op, triple):
        (graph.add if op == "add" else graph.remove)(*triple)

    for op, arg in history:
        if op == "bulk":
            with graph.bulk():
                for edit in arg:
                    apply(*edit)
        else:
            apply(op, arg)
    return graph


@given(_histories)
@example([])
@example([("add", (_SUBJECTS[0], _PREDICATES[0], _OBJECTS[-1]))])
@settings(max_examples=150, deadline=None)
def test_writer_matches_reference_writer(history):
    graph = _replay(history)
    assert build_snapshot_bytes(graph) == reference_snapshot_bytes(graph)


def test_writer_matches_reference_on_the_small_dataset():
    graph = generate_dbpedia(DBpediaConfig(scale=0.00025, seed=42)).graph
    image = build_snapshot_bytes(graph)
    assert image == reference_snapshot_bytes(graph)
    assert len(image) == 2_613_144
    assert hashlib.sha256(image).hexdigest() == (
        "dd03a14c8f99fc93ec5070f0a961910e551506ca1bd12ba720c83121c23e34ca"
    )


# ----------------------------------------------------------------------
# write_snapshot: one temp file per writer
# ----------------------------------------------------------------------


def _graph(extra: int = 0) -> Graph:
    graph = Graph()
    for i in range(5 + extra):
        graph.add(URI(f"e:s{i}"), URI("e:p"), Literal(f"v{i}"))
    return graph


def test_failed_write_leaves_no_temp_file_and_the_old_snapshot(tmp_path, monkeypatch):
    path = tmp_path / "g.snap"
    write_snapshot(_graph(), str(path))
    before = path.read_bytes()
    real_fdopen = os.fdopen

    class DiskFull:
        """A file whose ``writelines`` writes one part and fails."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def fileno(self):
            return self.handle.fileno()

        def writelines(self, parts):
            self.handle.write(parts[0])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fdopen", lambda fd, mode: DiskFull(real_fdopen(fd, mode)))
    with pytest.raises(OSError, match="No space left"):
        write_snapshot(_graph(extra=3), str(path))
    assert os.listdir(tmp_path) == ["g.snap"]
    assert path.read_bytes() == before


def test_concurrent_writers_leave_one_whole_build(tmp_path):
    graphs = [_graph(), _graph(extra=40)]
    builds = {build_snapshot_bytes(graph) for graph in graphs}
    path = str(tmp_path / "g.snap")
    barrier = threading.Barrier(len(graphs))
    errors = []

    def writer(graph):
        barrier.wait()
        try:
            for _ in range(15):
                write_snapshot(graph, path)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(graph,)) for graph in graphs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert os.listdir(tmp_path) == ["g.snap"]
    with open(path, "rb") as handle:
        assert handle.read() in builds


def test_written_file_is_readable_by_others(tmp_path):
    path = tmp_path / "g.snap"
    write_snapshot(_graph(), str(path))
    assert path.stat().st_mode & 0o777 == 0o644
