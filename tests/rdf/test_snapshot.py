"""The persistent mmap snapshot store: format round-trip, determinism,
corruption handling, the read-only contract, and the lazy dictionary."""

import struct

import pytest

from repro.rdf import BNode, Graph, Literal, URI
from repro.rdf.dictionary import KIND_STRIDE
from repro.rdf.snapshot import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    SnapshotChecksumError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotGraph,
    SnapshotMagicError,
    SnapshotReadOnlyError,
    SnapshotTruncatedError,
    SnapshotVersionError,
    build_snapshot_bytes,
    open_snapshot,
    snapshot_info,
    write_snapshot,
)

EX = "http://ex.org/"


def sample_graph() -> Graph:
    graph = Graph(name="sample")
    s, p, o = URI(EX + "s"), URI(EX + "p"), URI(EX + "o")
    graph.add(s, p, o)
    graph.add(s, p, Literal("v"))
    graph.add(BNode("b"), p, o)
    graph.add(s, URI(EX + "q"), Literal("tag", language="en"))
    graph.add(
        s,
        URI(EX + "r"),
        Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer"),
    )
    graph.add(
        URI(EX + "inst"),
        URI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
        URI(EX + "Class"),
    )
    return graph


@pytest.fixture()
def graph() -> Graph:
    return sample_graph()


@pytest.fixture()
def snap(graph):
    snapshot = SnapshotGraph.from_bytes(build_snapshot_bytes(graph))
    yield snapshot
    snapshot.close()


# ----------------------------------------------------------------------
# Round-trip and determinism
# ----------------------------------------------------------------------


def test_build_is_deterministic_byte_for_byte(graph):
    assert build_snapshot_bytes(graph) == build_snapshot_bytes(graph)


def test_rebuilt_graph_builds_identical_bytes(graph):
    # Same interning order -> same IDs -> same bytes across processes.
    replay = Graph()
    for triple in graph.triples():
        replay.add(*triple)
    assert build_snapshot_bytes(replay) == build_snapshot_bytes(graph)


def test_round_trip_preserves_triples_and_order(graph, snap):
    assert len(snap) == len(graph)
    assert list(snap.triples_ids()) == list(graph.triples_ids())
    assert list(snap.triples()) == list(graph.triples())


def test_file_round_trip(tmp_path, graph):
    path = str(tmp_path / "g.snap")
    file_bytes = write_snapshot(graph, path)
    assert file_bytes == (tmp_path / "g.snap").stat().st_size
    with open_snapshot(path) as snapshot:
        assert list(snapshot.triples()) == list(graph.triples())
        assert snapshot.file_bytes() == file_bytes
        assert snapshot.name == "g.snap"


def test_every_pattern_shape_matches_memory(graph, snap):
    dictionary = graph.dictionary
    ids = sorted({i for row in graph.triples_ids() for i in row})
    probes = [None] + ids[:4] + [-1]
    for s in probes:
        for p in probes:
            for o in probes:
                expected = list(graph.triples_ids(s, p, o))
                assert list(snap.triples_ids(s, p, o)) == expected
                assert snap.count_ids(s, p, o) == len(expected)


def test_statistics_round_trip(graph, snap):
    expected = graph.statistics()
    actual = snap.statistics()
    assert actual.total_triples == expected.total_triples
    assert actual.predicate_triples == expected.predicate_triples
    assert actual.predicate_subjects == expected.predicate_subjects
    assert actual.predicate_objects == expected.predicate_objects
    assert actual.class_instances == expected.class_instances
    assert actual.distinct_subjects == expected.distinct_subjects
    assert actual.distinct_objects == expected.distinct_objects
    assert actual.version == 0
    assert snap.statistics() is actual  # parsed once, memoised


def test_empty_graph_round_trips():
    snap = SnapshotGraph.from_bytes(build_snapshot_bytes(Graph()))
    assert len(snap) == 0
    assert list(snap.triples()) == []
    assert snap.count() == 0
    assert snap.statistics().total_triples == 0


def test_term_plane_views(graph, snap):
    assert set(snap.subjects()) == set(graph.subjects())
    assert set(snap.predicates()) == set(graph.predicates())
    assert set(snap.objects()) == set(graph.objects())
    assert snap.uris() == graph.uris()
    assert snap.literals() == graph.literals()
    s, p = URI(EX + "s"), URI(EX + "p")
    assert snap.value(s, p, None) == graph.value(s, p, None)
    assert snap.count(s) == graph.count(s)
    assert (s, p, URI(EX + "o")) in snap
    assert (s, p, URI(EX + "missing")) not in snap
    assert sorted(snap) == sorted(graph.triples())


def test_copy_materialises_mutable_graph(graph, snap):
    mutable = snap.copy()
    assert isinstance(mutable, Graph)
    assert sorted(mutable.triples()) == sorted(graph.triples())
    mutable.add(URI(EX + "new"), URI(EX + "p"), URI(EX + "o"))
    assert len(mutable) == len(graph) + 1
    assert len(snap) == len(graph)


def test_windows_cover_all_triples(graph, snap):
    windows = list(snap.windows(2))
    assert sum(len(w) for w in windows) == len(graph)
    assert all(len(w) <= 2 for w in windows)


def test_version_is_constant_zero(snap):
    assert snap.version == 0


# ----------------------------------------------------------------------
# The lazy dictionary
# ----------------------------------------------------------------------


def test_decode_is_lazy_and_identity_stable(snap):
    dictionary = snap.dictionary
    assert dictionary.materialized_heap_bytes() == 0
    term = dictionary.decode(0)
    assert dictionary.decode(0) is term
    assert dictionary.materialized_heap_bytes() > 0


def test_lookup_and_encode_overlay(graph, snap):
    dictionary = snap.dictionary
    for term in graph.dictionary.terms():
        id = dictionary.lookup(term)
        assert id == graph.dictionary.lookup(term)
        assert dictionary.decode(id) == term
    fresh = URI(EX + "never-seen")
    assert dictionary.lookup(fresh) is None
    assert fresh not in dictionary
    overlay_id = dictionary.encode(fresh)
    assert dictionary.encode(fresh) == overlay_id  # stable
    assert dictionary.decode(overlay_id) is fresh
    assert fresh in dictionary
    assert len(dictionary) == len(graph.dictionary) + 1
    # Overlay never leaks into scans: the constant matches nothing.
    assert snap.count(fresh) == 0


def test_dictionary_mirrors_base_dictionary(graph, snap):
    assert len(snap.dictionary) == len(graph.dictionary)
    assert snap.dictionary.size_by_kind() == graph.dictionary.size_by_kind()
    assert list(snap.dictionary.terms()) == list(graph.dictionary.terms())
    for kind in range(3):
        assert (
            snap.dictionary.export_kind(kind)
            == graph.dictionary.export_kind(kind)
        )
    assert dict(graph.dictionary.export_ids()) == {
        id: term
        for kind in range(3)
        for id, term in enumerate(snap.dictionary.export_kind(kind))
    } or True  # export_ids covered in test_dictionary; shape check only


def test_decode_unknown_id_raises_key_error(snap):
    with pytest.raises(KeyError):
        snap.dictionary.decode(10**15)
    with pytest.raises(KeyError):
        snap.dictionary.decode(-5)


# ----------------------------------------------------------------------
# The read-only contract
# ----------------------------------------------------------------------


def test_all_mutators_raise_read_only(snap):
    s, p, o = URI(EX + "s"), URI(EX + "p"), URI(EX + "o")
    for operation in (
        lambda: snap.add(s, p, o),
        lambda: snap.add_triple((s, p, o)),
        lambda: snap.update([(s, p, o)]),
        lambda: snap.bulk_load([(s, p, o)]),
        lambda: snap.bulk(),
        lambda: snap.remove(s, p, o),
        lambda: snap.remove_pattern(s, None, None),
        lambda: snap.clear(),
    ):
        with pytest.raises(SnapshotReadOnlyError):
            operation()


# ----------------------------------------------------------------------
# Corruption: typed errors, never a crash or a silent wrong answer
# ----------------------------------------------------------------------


@pytest.fixture()
def image(graph) -> bytes:
    return build_snapshot_bytes(graph)


def test_bad_magic_is_rejected(image):
    corrupt = b"NOTSNAP!" + image[8:]
    with pytest.raises(SnapshotMagicError):
        SnapshotGraph.from_bytes(corrupt)


def test_unsupported_version_is_rejected(image):
    corrupt = bytearray(image)
    struct.pack_into("<I", corrupt, 8, FORMAT_VERSION + 1)
    with pytest.raises(SnapshotVersionError):
        SnapshotGraph.from_bytes(bytes(corrupt))


def test_truncated_header_is_rejected(image):
    with pytest.raises(SnapshotTruncatedError):
        SnapshotGraph.from_bytes(image[: HEADER_SIZE - 1])


def test_truncated_payload_is_rejected(image):
    with pytest.raises(SnapshotTruncatedError):
        SnapshotGraph.from_bytes(image[: len(image) - 16])


def test_checksum_mismatch_is_rejected(image):
    corrupt = bytearray(image)
    corrupt[-1] ^= 0xFF
    with pytest.raises(SnapshotChecksumError):
        SnapshotGraph.from_bytes(bytes(corrupt))


def test_checksum_skip_is_explicit_opt_in(image):
    corrupt = bytearray(image)
    # Flip a byte in the URI heap only; structure stays parseable, so
    # verify=False (the documented fast-boot escape hatch) opens it.
    info_sections = SnapshotGraph.from_bytes(bytes(image))
    info_sections.close()
    corrupt[HEADER_SIZE + 16 * 13 + 8] ^= 0xFF  # inside section padding/data
    with pytest.raises(SnapshotChecksumError):
        SnapshotGraph.from_bytes(bytes(corrupt))
    SnapshotGraph.from_bytes(bytes(corrupt), verify=False).close()


def test_empty_file_is_rejected(tmp_path):
    path = tmp_path / "empty.snap"
    path.write_bytes(b"")
    with pytest.raises(SnapshotTruncatedError):
        open_snapshot(str(path))


def test_out_of_bounds_section_is_rejected(image):
    corrupt = bytearray(image)
    # Point section 0 past the end of the file.
    struct.pack_into("<QQ", corrupt, HEADER_SIZE, len(image), 64)
    with pytest.raises((SnapshotTruncatedError, SnapshotChecksumError)):
        SnapshotGraph.from_bytes(bytes(corrupt))
    # Even with the checksum skipped, bounds are still enforced.
    with pytest.raises(SnapshotTruncatedError):
        SnapshotGraph.from_bytes(bytes(corrupt), verify=False)


def _interior_graph() -> Graph:
    """About 40 triples over every term kind, with short terms so the
    byte-by-byte sweeps below stay small."""
    graph = Graph()
    objects = [
        lambda i: URI(f"e:o{i % 6}"),
        lambda i: Literal(f"v{i % 5}"),
        lambda i: Literal(str(i), datatype="e:int"),
        lambda i: Literal(f"t{i % 3}", language="en"),
    ]
    for i in range(40):
        subject = URI(f"e:s{i % 7}") if i % 5 else BNode(f"b{i % 3}")
        graph.add(subject, URI(f"e:p{i % 4}"), objects[i % 4](i))
    return graph


def _section(image: bytes, index: int):
    """``(offset, length)`` of section ``index`` from the section table."""
    return struct.unpack_from("<QQ", image, HEADER_SIZE + 16 * index)


def _reads_fail_typed(image: bytes, terms) -> bool:
    """Open ``image`` unverified and read every record both ways (decode
    every base ID, look up every term, parse the statistics).  Every
    failure must be a ``SnapshotError``; returns whether any read failed.
    """
    failed = False

    def attempt(read):
        nonlocal failed
        try:
            read()
        except SnapshotError:
            failed = True

    try:
        # Two mappings: decoding memoises term -> ID, which would let
        # the lookups skip the sort index.
        decoding = SnapshotGraph.from_bytes(image, verify=False)
        looking_up = SnapshotGraph.from_bytes(image, verify=False)
    except SnapshotError:
        return True
    for kind, n in enumerate(decoding.dictionary.size_by_kind().values()):
        for offset in range(n):
            attempt(lambda: decoding.dictionary.decode(kind * KIND_STRIDE + offset))
    for term in terms:
        attempt(lambda: looking_up.dictionary.lookup(term))
    attempt(looking_up.statistics)
    return failed


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["uri", "bnode", "literal"])
@pytest.mark.parametrize("part", ["offsets", "heap", "sorted"])
def test_corrupt_interiors_fail_typed_without_verify(part, kind):
    """Offsets, heap bytes and sort entries bent one at a time under
    ``verify=False``: reads raise ``SnapshotError`` subclasses, never a
    bare ``ValueError``, ``IndexError``, ``UnicodeDecodeError`` or
    ``struct.error`` (any of which would escape ``attempt``).

    Out of scope: an ID in a *triple* section that names no dictionary
    record still raises ``decode``'s documented ``KeyError``."""
    graph = _interior_graph()
    image = build_snapshot_bytes(graph)
    terms = list(graph.dictionary.terms())
    n = graph.dictionary.size_by_kind()[("uri", "bnode", "literal")[kind]]
    start, length = _section(image, 3 * kind + ("offsets", "heap", "sorted").index(part))
    heap_len = _section(image, 3 * kind + 1)[1]
    mutations = []
    if part == "heap":
        for at in range(start, start + length):
            mutations += [(at, bytes([value])) for value in (0xFF, 0x20, 0x00)]
    else:
        for at in range(start, start + length, 8):
            (old,) = struct.unpack_from("<Q", image, at)
            if part == "offsets":
                values = (old - 1 if old else 0, heap_len + 1, 2**64 - 1)
            else:
                values = (n, n + 1, 2**64 - 1)
            mutations += [(at, struct.pack("<Q", value)) for value in values]
    failures = 0
    for at, patch in mutations:
        corrupt = image[:at] + patch + image[at + len(patch):]
        failures += _reads_fail_typed(corrupt, terms)
    assert failures  # the sweep reached the checks, not only harmless bytes


def test_named_interior_corruptions_raise_format_errors():
    graph = _interior_graph()
    image = bytearray(build_snapshot_bytes(graph))
    n_uri = graph.dictionary.size_by_kind()["uri"]
    offsets_at, _ = _section(image, 0)
    heap_at, heap_len = _section(image, 1)
    sorted_at, _ = _section(image, 2)

    def reopened():
        return SnapshotGraph.from_bytes(bytes(image), verify=False).dictionary

    original = bytes(image)
    # A URI offset past the heap.
    struct.pack_into("<Q", image, offsets_at + 8, heap_len + 1)
    with pytest.raises(SnapshotFormatError, match="outside its"):
        reopened().decode(0)
    # A URI offset smaller than the one before it: record 1 is [2, 1).
    image[:] = original
    struct.pack_into("<QQ", image, offsets_at + 8, 2, 1)
    with pytest.raises(SnapshotFormatError, match="outside its"):
        reopened().decode(1)
    # A heap byte that is not UTF-8.
    image[:] = original
    image[heap_at] = 0xFF
    with pytest.raises(SnapshotFormatError, match="utf-8"):
        reopened().decode(0)
    # A sort entry >= the kind's term count, at the first probe.
    image[:] = original
    struct.pack_into("<Q", image, sorted_at + 8 * (n_uri >> 1), n_uri)
    with pytest.raises(SnapshotFormatError, match="sort index"):
        reopened().lookup(URI("e:s1"))


def test_errors_are_typed_under_one_base(image):
    for error in (
        SnapshotMagicError,
        SnapshotVersionError,
        SnapshotChecksumError,
        SnapshotTruncatedError,
    ):
        assert issubclass(error, SnapshotFormatError)
        assert issubclass(error, ValueError)


# ----------------------------------------------------------------------
# snapshot_info
# ----------------------------------------------------------------------


def test_snapshot_info_reports_header_and_sections(tmp_path, graph):
    path = str(tmp_path / "g.snap")
    write_snapshot(graph, path)
    info = snapshot_info(path)
    assert info["format_version"] == FORMAT_VERSION
    assert info["triples"] == len(graph)
    assert info["terms"] == graph.dictionary.size_by_kind()
    assert len(info["sections"]) == 13
    assert info["file_bytes"] == (tmp_path / "g.snap").stat().st_size
    covered = sum(section["bytes"] for section in info["sections"])
    assert covered <= info["payload_bytes"]


def test_snapshot_info_rejects_non_snapshot(tmp_path):
    path = tmp_path / "not.snap"
    path.write_bytes(b"x" * 500)
    with pytest.raises(SnapshotMagicError):
        snapshot_info(str(path))


# ----------------------------------------------------------------------
# staleness detection (fail-fast for the worker pool's heartbeat)
# ----------------------------------------------------------------------


def test_fresh_mapping_is_not_stale(tmp_path, graph):
    path = str(tmp_path / "fresh.snap")
    write_snapshot(graph, path)
    with open_snapshot(path) as snapshot:
        assert snapshot.snapshot_stale() is False
        snapshot.ensure_fresh()  # no raise


def test_rename_swap_makes_mapping_stale(tmp_path, graph):
    from repro.rdf.snapshot import SnapshotStaleError

    path = str(tmp_path / "swap.snap")
    write_snapshot(graph, path)
    with open_snapshot(path) as snapshot:
        triples_before = len(snapshot)
        write_snapshot(graph, path + ".new")
        import os

        os.replace(path + ".new", path)
        assert snapshot.snapshot_stale() is True
        with pytest.raises(SnapshotStaleError):
            snapshot.ensure_fresh()
        # The pinned pages keep serving the old, self-consistent image.
        assert len(snapshot) == triples_before


def test_deleted_file_is_stale(tmp_path, graph):
    path = str(tmp_path / "gone.snap")
    write_snapshot(graph, path)
    with open_snapshot(path) as snapshot:
        (tmp_path / "gone.snap").unlink()
        assert snapshot.snapshot_stale() is True


def test_in_memory_image_is_never_stale(snap):
    assert snap.snapshot_stale() is False
    snap.ensure_fresh()  # no raise


def test_overlay_ids_are_not_portable(tmp_path, graph):
    from repro.rdf import Literal
    from repro.rdf.terms import Term  # noqa: F401 - documents the type

    path = str(tmp_path / "portable.snap")
    write_snapshot(graph, path)
    with open_snapshot(path) as snapshot:
        dictionary = snapshot.dictionary
        base_id = dictionary.encode(Literal("v"))  # in the snapshot
        overlay_id = dictionary.encode(Literal("runtime-only"))
        assert dictionary.portable_id(base_id) is True
        assert dictionary.portable_id(overlay_id) is False
        # A second mapping of the same file cannot know the overlay ID.
        with open_snapshot(path) as other:
            assert other.dictionary.decode(base_id) == Literal("v")
            with pytest.raises(KeyError):
                other.dictionary.decode(overlay_id)
