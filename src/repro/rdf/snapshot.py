"""Persistent, memory-mapped snapshot store with zero-copy boot.

The in-memory :class:`~repro.rdf.graph.Graph` rebuilds its
:class:`~repro.rdf.dictionary.TermDictionary` and its three nested-dict
indexes from text on every boot — minutes of parsing and interning at
millions of triples.  This module serialises both into a single
versioned snapshot file of packed little-endian integer arrays (the
HDT-style layout sage-engine inherits from its database backends) and
opens it **zero-copy** via ``mmap``: boot is O(1) — a 64-byte header
check plus a section table — and every triple pattern is answered by
binary search over flat sorted ``u64`` arrays, faulting in only the
pages a query actually touches.

The byte-level format — header, sections, alignment, endianness,
checksum, and a worked hex example — is specified in
``docs/SNAPSHOT_FORMAT.md``; a test parses the spec's example bytes to
keep the document honest.

The storage-backend seam
------------------------

:class:`SnapshotGraph` plugs in underneath the whole engine because the
layers above the store depend only on a narrow protocol, never on the
in-memory ``Graph``'s nested dicts:

- ``triples_ids(s, p, o)`` / ``count_ids`` — the ID-plane pattern
  matcher the physical operators execute on;
- ``dictionary`` — ``encode`` / ``lookup`` / ``decode`` /
  ``decode_triple``;
- ``version`` — the invalidation signal for continuation tokens, the
  plan cache, statistics, and the HVS (constant ``0`` here: a snapshot
  is immutable, so suspended pages stay resumable forever);
- ``statistics()`` — the optimizer's cardinality summary (precomputed
  at build time, O(1) at open);
- the decoding term-plane wrappers (``triples``, ``subjects``, ...)
  the explorer and the serialisers use.

Because both stores enumerate every pattern in **sorted ID order**
(:meth:`Graph.triples_ids` walks its dict levels sorted; the snapshot's
arrays are stored sorted), execution over a snapshot is row-and-order
identical to the in-memory store — one-shot, paged, and across
continuation-token suspensions — with no code changes above the
storage layer.

Writes are not supported: every mutating method raises
:class:`SnapshotReadOnlyError`.  ``SnapshotGraph.copy()`` materialises
an ordinary mutable :class:`Graph` as the escape hatch.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
import sys
import tempfile
import threading
import time
import zlib
from array import array
from itertools import accumulate
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs.metrics import REGISTRY
from .dictionary import KIND_STRIDE
from .graph import (
    _LOOKUP_FULL_SCAN,
    _LOOKUP_OSP,
    _LOOKUP_POS,
    _LOOKUP_SPO,
    _UNKNOWN,
    Graph,
)
from .stats import GraphStatistics
from .terms import BNode, Literal, RDFObject, Subject, Term, URI
from .triple import Triple, TriplePattern

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "HEADER_SIZE",
    "SECTION_COUNT",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotMagicError",
    "SnapshotVersionError",
    "SnapshotChecksumError",
    "SnapshotTruncatedError",
    "SnapshotReadOnlyError",
    "SnapshotStaleError",
    "SnapshotDictionary",
    "SnapshotGraph",
    "build_snapshot_bytes",
    "write_snapshot",
    "open_snapshot",
    "snapshot_info",
]

#: File magic: identifies an eLinda snapshot, format generation 01.
MAGIC = b"ELSNAP01"
#: On-disk format version; bumped on any incompatible layout change.
FORMAT_VERSION = 1
#: Fixed-size header: magic, version, flags, payload length, CRC-32,
#: triple count, and per-kind term counts.  See docs/SNAPSHOT_FORMAT.md.
HEADER_SIZE = 64
_HEADER_FMT = "<8sIIQIIQQQQ"
assert struct.calcsize(_HEADER_FMT) == HEADER_SIZE

#: Sections, in file order.  Per term kind (URI, BNode, Literal): the
#: offsets array into the string heap, the heap blob, and the
#: lexicographic sort index used for term -> ID lookup.  Then the three
#: triple orderings and the precomputed statistics summary.
SECTION_COUNT = 13
(
    _SEC_URI_OFFSETS,
    _SEC_URI_HEAP,
    _SEC_URI_SORTED,
    _SEC_BNODE_OFFSETS,
    _SEC_BNODE_HEAP,
    _SEC_BNODE_SORTED,
    _SEC_LIT_OFFSETS,
    _SEC_LIT_HEAP,
    _SEC_LIT_SORTED,
    _SEC_SPO,
    _SEC_POS,
    _SEC_OSP,
    _SEC_STATS,
) = range(SECTION_COUNT)

_SECTION_TABLE_SIZE = SECTION_COUNT * 16
_KIND_NAMES = ("uri", "bnode", "literal")

_SNAP_BUILD_SECONDS = REGISTRY.gauge(
    "repro_snapshot_build_seconds",
    "Wall seconds of the last snapshot build (serialize + checksum + write)",
)
_SNAP_FILE_BYTES = REGISTRY.gauge(
    "repro_snapshot_file_bytes",
    "Size in bytes of the last snapshot file built or opened",
)
_SNAP_OPEN_SECONDS = REGISTRY.gauge(
    "repro_snapshot_open_seconds",
    "Wall seconds of the last snapshot open (mmap + header/section parse)",
)
_SNAP_RESIDENT_BYTES = REGISTRY.gauge(
    "repro_snapshot_resident_bytes",
    "Process RSS sampled at the last snapshot open or resident_bytes() "
    "call — a page-fault proxy for how much of the mapping is actually "
    "touched",
)


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------


class SnapshotError(Exception):
    """Base class for all snapshot-store errors."""


class SnapshotFormatError(SnapshotError, ValueError):
    """The file is not a well-formed snapshot (structural corruption)."""


class SnapshotMagicError(SnapshotFormatError):
    """The file does not start with the snapshot magic bytes."""


class SnapshotVersionError(SnapshotFormatError):
    """The snapshot's format version is not supported by this reader."""


class SnapshotChecksumError(SnapshotFormatError):
    """The payload checksum does not match the header (bit rot / torn
    write).  Raised at open time, never as a silently wrong answer."""


class SnapshotTruncatedError(SnapshotFormatError):
    """The file is shorter than its header or section table claims."""


class SnapshotReadOnlyError(SnapshotError, TypeError):
    """A mutating operation was attempted on an immutable snapshot."""


class SnapshotStaleError(SnapshotError):
    """The on-disk snapshot no longer matches the file this graph
    mapped at open time (replaced, truncated, or deleted underneath a
    live mmap).  Raised by :meth:`SnapshotGraph.ensure_fresh`; pool
    worker heartbeats poll :meth:`SnapshotGraph.snapshot_stale` so a
    swapped file is caught at the next health check instead of being
    served as silently wrong pages."""


# ----------------------------------------------------------------------
# Term record codec (the string heap)
# ----------------------------------------------------------------------

_LIT_PLAIN = 0
_LIT_DATATYPE = 1
_LIT_LANGUAGE = 2


def _serialize_term(term: Term) -> bytes:
    """One heap record.  URIs and BNodes are raw UTF-8 (offsets delimit
    them); literals are ``u8 flags + u32 aux_len + aux + lexical``.

    The record bytes are a *total order key*: two distinct terms of the
    same kind always serialise to distinct bytes, which is what the
    sort-index binary search (`SnapshotDictionary.lookup`) relies on.
    """
    kind = term._kind
    if kind == 0:
        return term.value.encode("utf-8")
    if kind == 1:
        return term.id.encode("utf-8")
    if term.language is not None:
        flags, aux = _LIT_LANGUAGE, term.language
    elif term.datatype is not None:
        flags, aux = _LIT_DATATYPE, term.datatype
    else:
        flags, aux = _LIT_PLAIN, ""
    aux_bytes = aux.encode("utf-8")
    return (
        struct.pack("<BI", flags, len(aux_bytes))
        + aux_bytes
        + term.lexical.encode("utf-8")
    )


def _parse_term(kind: int, record: bytes) -> Term:
    """Inverse of :func:`_serialize_term`."""
    if kind == 0:
        return URI(record.decode("utf-8"))
    if kind == 1:
        return BNode(record.decode("utf-8"))
    if len(record) < 5:
        raise SnapshotFormatError(
            f"literal heap record too short ({len(record)} bytes)"
        )
    flags = record[0]
    (aux_len,) = struct.unpack_from("<I", record, 1)
    if 5 + aux_len > len(record):
        raise SnapshotFormatError("literal heap record overruns its bounds")
    aux = record[5 : 5 + aux_len].decode("utf-8")
    lexical = record[5 + aux_len :].decode("utf-8")
    if flags == _LIT_PLAIN:
        return Literal(lexical)
    if flags == _LIT_DATATYPE:
        return Literal(lexical, datatype=aux)
    if flags == _LIT_LANGUAGE:
        return Literal(lexical, language=aux)
    raise SnapshotFormatError(f"unknown literal flags byte: {flags}")


# ----------------------------------------------------------------------
# u64 views (zero-copy on little-endian hosts)
# ----------------------------------------------------------------------


class _StructU64View:
    """Portable fallback for big-endian hosts: little-endian u64 reads
    through ``struct`` instead of a native memoryview cast."""

    __slots__ = ("_buf", "_n")

    def __init__(self, buf):
        self._buf = buf
        self._n = len(buf) // 8

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._n)
            return _StructU64View(self._buf[start * 8 : stop * 8])
        return struct.unpack_from("<Q", self._buf, index * 8)[0]

    def tolist(self) -> List[int]:
        return list(struct.unpack(f"<{self._n}Q", bytes(self._buf)))


def _u64_view(buf):
    """A random-access u64 little-endian view over ``buf`` (zero-copy
    ``memoryview.cast`` where the host is little-endian)."""
    if sys.byteorder == "little":
        return memoryview(buf).cast("Q")
    return _StructU64View(buf)


def _le_bytes(arr: array) -> bytes:
    """``array('Q')`` to little-endian bytes regardless of host order."""
    if sys.byteorder != "little":
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


# ----------------------------------------------------------------------
# Sorted-array search
# ----------------------------------------------------------------------


def _prefix_range(view, n: int, prefix) -> Tuple[int, int]:
    """The ``[lo, hi)`` row range whose leading columns equal ``prefix``.

    Two binary searches over a sorted ``n x 3`` u64 array; O(log n)
    u64 probes, no rows materialised.  An impossible prefix (e.g. the
    ``-1`` unknown-constant sentinel) yields an empty range.

    The one- and two-column cases are unrolled: this is the per-probe
    cost of every bound-pattern lookup the join operators issue, so a
    helper call per compared column is measurable on large graphs.
    """
    k = len(prefix)
    if k == 1:
        want = prefix[0]
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) >> 1
            if view[3 * mid] < want:
                lo = mid + 1
            else:
                hi = mid
        first, hi = lo, n
        while lo < hi:
            mid = (lo + hi) >> 1
            if want < view[3 * mid]:
                hi = mid
            else:
                lo = mid + 1
        return first, lo
    if k == 2:
        w0, w1 = prefix
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) >> 1
            base = 3 * mid
            h0 = view[base]
            if h0 < w0 or (h0 == w0 and view[base + 1] < w1):
                lo = mid + 1
            else:
                hi = mid
        first, hi = lo, n
        while lo < hi:
            mid = (lo + hi) >> 1
            base = 3 * mid
            h0 = view[base]
            if w0 < h0 or (w0 == h0 and w1 < view[base + 1]):
                hi = mid
            else:
                lo = mid + 1
        return first, lo
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) >> 1
        base = 3 * mid
        row = (view[base], view[base + 1], view[base + 2])
        if row < prefix:
            lo = mid + 1
        else:
            hi = mid
    first, hi = lo, n
    while lo < hi:
        mid = (lo + hi) >> 1
        base = 3 * mid
        row = (view[base], view[base + 1], view[base + 2])
        if prefix < row:
            hi = mid
        else:
            lo = mid + 1
    return first, lo


_CHUNK_ROWS = 1024

#: Per-ordering cap on memoised prefix ranges (entries are two ints;
#: the cache is dropped wholesale when full — the next probes refill
#: it with whatever the current workload is actually touching).
_RANGE_CACHE_LIMIT = 1 << 16


def _iter_rows(view, lo: int, hi: int, a: int = 0, b: int = 1, c: int = 2):
    """Yield rows ``[lo, hi)`` of a 3-column u64 view as ``(s, p, o)``.

    ``(a, b, c)`` maps storage columns back to subject/predicate/object
    for the permuted orderings (POS stores ``(p, o, s)``, OSP stores
    ``(o, s, p)``).  Rows are pulled through ``tolist()`` in chunks and
    re-tupled with strided slices + ``zip``, so the per-row cost is
    C-level — no Python-level indexing per column.
    """
    for start in range(lo, hi, _CHUNK_ROWS):
        stop = min(hi, start + _CHUNK_ROWS)
        vals = view[3 * start : 3 * stop].tolist()
        yield from zip(vals[a::3], vals[b::3], vals[c::3])


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------


def build_snapshot_bytes(graph) -> bytes:
    """Serialise ``graph`` (dictionary + indexes + statistics) to the
    snapshot byte format.

    Deterministic byte-for-byte: the dictionary is exported in its
    stable ID order (:meth:`TermDictionary.export_kind`), the triple
    arrays are sorted, and the statistics rows are emitted in ascending
    ID order — building the same graph state twice yields identical
    files (asserted by tests and the ``snapshot --self-test``).
    """
    return b"".join(_snapshot_parts(graph))


def _snapshot_parts(graph) -> List[bytes]:
    """The file in order — header, section table, each section behind
    its padding — with the CRC folded over the parts, never a copy."""
    dictionary = graph.dictionary
    sections: List[bytes] = [b""] * SECTION_COUNT
    counts = []
    for kind in (0, 1, 2):
        records = [_serialize_term(term) for term in dictionary.export_kind(kind)]
        counts.append(len(records))
        offsets = array("Q", accumulate(map(len, records), initial=0))
        order = sorted(range(len(records)), key=records.__getitem__)
        sections[3 * kind + 0] = _le_bytes(offsets)
        sections[3 * kind + 1] = b"".join(records)
        sections[3 * kind + 2] = _le_bytes(array("Q", order))

    # Distinct SPO-sorted rows, stably sorted on o, are OSP (ties keep
    # (s, p) order); that, stably sorted on p, is POS (ties keep (o, s)).
    rows = list(graph.triples_ids())
    rows.sort()
    sections[_SEC_SPO] = _pack_rows(rows, 0, 1, 2)
    rows.sort(key=itemgetter(2))
    sections[_SEC_OSP] = _pack_rows(rows, 2, 0, 1)
    rows.sort(key=itemgetter(1))
    sections[_SEC_POS] = _pack_rows(rows, 1, 2, 0)
    triple_count = len(rows)
    del rows

    sections[_SEC_STATS] = _pack_stats(graph.statistics(), dictionary)

    table = []
    body = []
    cursor = HEADER_SIZE + _SECTION_TABLE_SIZE
    for data in sections:
        pad = (-cursor) % 8
        cursor += pad
        table.append(struct.pack("<QQ", cursor, len(data)))
        body += (b"\x00" * pad, data)
        cursor += len(data)
    payload = [b"".join(table), *body]
    checksum = 0
    for part in payload:
        checksum = zlib.crc32(part, checksum)
    header = struct.pack(
        _HEADER_FMT, MAGIC, FORMAT_VERSION, 0, cursor - HEADER_SIZE,
        checksum, 0, triple_count, *counts,
    )
    return [header, *payload]


def _pack_rows(rows, a: int, b: int, c: int) -> bytes:
    packed = array("Q")
    append = packed.append
    for row in rows:
        append(row[a])
        append(row[b])
        append(row[c])
    return _le_bytes(packed)


def _pack_stats(stats: GraphStatistics, dictionary) -> bytes:
    """The precomputed statistics summary, keyed by term IDs and sorted
    by ID for determinism."""
    lookup = dictionary.lookup
    predicate_rows = sorted(
        (
            lookup(predicate),
            count,
            stats.predicate_subjects.get(predicate, 0),
            stats.predicate_objects.get(predicate, 0),
        )
        for predicate, count in stats.predicate_triples.items()
    )
    class_rows = sorted(
        (lookup(cls), count) for cls, count in stats.class_instances.items()
    )
    packed = array(
        "Q",
        [
            stats.total_triples,
            stats.distinct_subjects,
            stats.distinct_objects,
            len(predicate_rows),
        ],
    )
    for row in predicate_rows:
        packed.extend(row)
    packed.append(len(class_rows))
    for row in class_rows:
        packed.extend(row)
    return _le_bytes(packed)


def write_snapshot(graph, path: str) -> int:
    """Build and atomically write a snapshot of ``graph`` to ``path``.

    Returns the file size in bytes.  The write goes through a ``mkstemp``
    sibling of its own and an ``os.replace`` so a crashed build never
    leaves a half-written file where a reader expects a snapshot.
    """
    started = time.perf_counter()
    parts = _snapshot_parts(graph)
    size = sum(map(len, parts))
    fd, tmp_path = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            # mkstemp creates 0600; a snapshot is shared read-only.
            os.fchmod(fd, 0o644)
            handle.writelines(parts)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    _SNAP_BUILD_SECONDS.set(time.perf_counter() - started)
    _SNAP_FILE_BYTES.set(size)
    return size


# ----------------------------------------------------------------------
# Opening
# ----------------------------------------------------------------------


def _process_rss_bytes() -> int:
    """Resident set size of this process (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def _parse_header(buffer) -> Tuple[int, int, int, int, int, int]:
    """Validate the fixed header; returns ``(payload_len, checksum,
    triple_count, n_uri, n_bnode, n_literal)``."""
    if len(buffer) < HEADER_SIZE:
        raise SnapshotTruncatedError(
            f"file is {len(buffer)} bytes; the header alone is {HEADER_SIZE}"
        )
    (
        magic,
        version,
        _flags,
        payload_len,
        checksum,
        _reserved,
        triple_count,
        n_uri,
        n_bnode,
        n_literal,
    ) = struct.unpack_from(_HEADER_FMT, buffer, 0)
    if magic != MAGIC:
        raise SnapshotMagicError(
            f"not a snapshot file: magic {bytes(magic)!r} != {MAGIC!r}"
        )
    if version != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"unsupported snapshot format version {version} "
            f"(this reader speaks {FORMAT_VERSION})"
        )
    if HEADER_SIZE + payload_len != len(buffer):
        raise SnapshotTruncatedError(
            f"header promises {HEADER_SIZE + payload_len} bytes, "
            f"file has {len(buffer)}"
        )
    return payload_len, checksum, triple_count, n_uri, n_bnode, n_literal


def _parse_sections(buffer, counts: Sequence[int], triple_count: int):
    """Validate the section table and every section's declared size;
    returns the list of per-section memoryviews."""
    view = memoryview(buffer)
    total = len(buffer)
    sections = []
    for index in range(SECTION_COUNT):
        offset, length = struct.unpack_from(
            "<QQ", buffer, HEADER_SIZE + 16 * index
        )
        if offset % 8:
            raise SnapshotFormatError(
                f"section {index} starts at unaligned offset {offset}"
            )
        if offset < HEADER_SIZE + _SECTION_TABLE_SIZE or offset + length > total:
            raise SnapshotTruncatedError(
                f"section {index} [{offset}, {offset + length}) overruns "
                f"the {total}-byte file"
            )
        sections.append(view[offset : offset + length])
    for kind, n in enumerate(counts):
        if len(sections[3 * kind + 0]) != (n + 1) * 8:
            raise SnapshotFormatError(
                f"{_KIND_NAMES[kind]} offsets section does not hold "
                f"{n + 1} u64 entries"
            )
        if len(sections[3 * kind + 2]) != n * 8:
            raise SnapshotFormatError(
                f"{_KIND_NAMES[kind]} sort index does not hold {n} entries"
            )
    for section_id in (_SEC_SPO, _SEC_POS, _SEC_OSP):
        if len(sections[section_id]) != triple_count * 24:
            raise SnapshotFormatError(
                f"triple section {section_id} does not hold "
                f"{triple_count} rows"
            )
    if len(sections[_SEC_STATS]) % 8 or len(sections[_SEC_STATS]) < 40:
        raise SnapshotFormatError("statistics section is malformed")
    return sections


# ----------------------------------------------------------------------
# The read-only dictionary
# ----------------------------------------------------------------------


class SnapshotDictionary:
    """Term ↔ ID mapping over the snapshot's mmap'd string heap.

    Nothing is materialised at open: ``decode`` parses a heap record on
    first touch and memoises it (so repeated decodes return the
    identical object — late materialisation stays allocation-free), and
    ``lookup`` binary-searches the on-disk sort index with at most
    O(log n) record comparisons, memoising hits.

    The base ID space is frozen, but ``encode`` still works: a term the
    snapshot has never seen (a query constant, a path endpoint) is
    interned into a small in-memory *overlay* whose IDs start right
    after the per-kind base ranges.  The overlay lives and dies with
    this process; the file is never written.
    """

    __slots__ = (
        "_offsets",
        "_heaps",
        "_sorted",
        "_base",
        "_by_id",
        "_known_ids",
        "_extra_terms",
        "_decoded_heap_bytes",
        "_lock",
    )

    def __init__(self, sections, counts: Sequence[int]):
        self._offsets = tuple(
            _u64_view(sections[3 * kind + 0]) for kind in range(3)
        )
        self._heaps = tuple(
            memoryview(sections[3 * kind + 1]) for kind in range(3)
        )
        self._sorted = tuple(
            _u64_view(sections[3 * kind + 2]) for kind in range(3)
        )
        self._base = tuple(counts)
        for kind in range(3):
            heap_len = len(self._heaps[kind])
            if counts[kind] and self._offsets[kind][counts[kind]] != heap_len:
                raise SnapshotFormatError(
                    f"{_KIND_NAMES[kind]} heap length {heap_len} does not "
                    f"match its final offset"
                )
        #: flat id -> Term memo for decoded terms (lazy decode).
        self._by_id: Dict[int, Term] = {}
        #: term -> id memo for base hits plus all overlay terms.
        self._known_ids: Dict[Term, int] = {}
        #: per-kind overlay buckets for terms interned after open.
        self._extra_terms: Tuple[List[Term], ...] = ([], [], [])
        self._decoded_heap_bytes = 0
        self._lock = threading.Lock()

    # -- records --------------------------------------------------------

    def _record(self, kind: int, offset: int) -> bytes:
        """Heap record ``offset`` of ``kind``.  Open checks only the
        final offset, so each read checks the span it touches."""
        offsets = self._offsets[kind]
        heap = self._heaps[kind]
        start, end = offsets[offset], offsets[offset + 1]
        if not start <= end <= len(heap):
            raise SnapshotFormatError(
                f"{_KIND_NAMES[kind]} record {offset} spans [{start}, {end}), "
                f"outside its {len(heap)}-byte heap"
            )
        return bytes(heap[start:end])

    # -- encoding -------------------------------------------------------

    def encode(self, term: Term) -> int:
        """The ID of ``term``; unseen terms intern into the overlay."""
        id = self.lookup(term)
        if id is not None:
            return id
        with self._lock:
            id = self._known_ids.get(term)
            if id is not None:
                return id
            kind = term._kind
            bucket = self._extra_terms[kind]
            id = kind * KIND_STRIDE + self._base[kind] + len(bucket)
            bucket.append(term)
            self._known_ids[term] = id
            return id

    def portable_id(self, id: int) -> bool:
        """Whether ``id`` names a term in the frozen base ID space.

        Base IDs are positional in the snapshot file, so every process
        mapping the same file agrees on them — they are safe inside
        continuation tokens as raw integers.  Overlay IDs (terms this
        process interned after open, e.g. computed aggregate values)
        exist only here and must be serialised as term literals.
        """
        kind, offset = divmod(id, KIND_STRIDE)
        try:
            return offset < self._base[kind]
        except IndexError:
            return False

    def lookup(self, term: Term) -> Optional[int]:
        """The ID of ``term`` if the snapshot (or overlay) holds it."""
        id = self._known_ids.get(term)
        if id is not None:
            return id
        kind = term._kind
        n = self._base[kind]
        if not n:
            return None
        record = _serialize_term(term)
        order = self._sorted[kind]
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) >> 1
            j = order[mid]
            if j >= n:
                raise SnapshotFormatError(
                    f"{_KIND_NAMES[kind]} sort index entry {mid} names "
                    f"record {j} of {n}"
                )
            candidate = self._record(kind, j)
            if candidate < record:
                lo = mid + 1
            elif candidate > record:
                hi = mid
            else:
                id = kind * KIND_STRIDE + j
                self._known_ids[term] = id
                return id
        return None

    # -- decoding -------------------------------------------------------

    def decode(self, id: int) -> Term:
        """Materialise the term behind ``id`` (lazy, memoised).

        The hit path is a single flat ``id -> Term`` dict probe — this
        sits in the engine's decode-at-the-plan-root hot loop, so the
        kind/offset arithmetic is deferred to the miss path.
        """
        term = self._by_id.get(id)
        if term is not None:
            return term
        return self._decode_miss(id)

    def _decode_miss(self, id: int) -> Term:
        kind, offset = divmod(id, KIND_STRIDE)
        if not 0 <= kind <= 2:
            raise KeyError(f"unknown term id: {id!r}")
        base = self._base[kind]
        if offset < base:
            record = self._record(kind, offset)
            try:
                term = _parse_term(kind, record)
            except SnapshotFormatError:
                raise
            except ValueError as exc:  # bad UTF-8, or a string no term takes
                raise SnapshotFormatError(
                    f"{_KIND_NAMES[kind]} record {offset} is corrupt: {exc}"
                ) from exc
            self._by_id[id] = term
            self._known_ids.setdefault(term, id)
            self._decoded_heap_bytes += len(record)
            return term
        try:
            term = self._extra_terms[kind][offset - base]
        except IndexError:
            raise KeyError(f"unknown term id: {id!r}")
        self._by_id[id] = term
        return term

    def decode_triple(self, ids: Tuple[int, int, int]) -> Tuple[Term, Term, Term]:
        decode = self.decode
        s, p, o = ids
        return (decode(s), decode(p), decode(o))

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return sum(self._base) + sum(len(b) for b in self._extra_terms)

    def __contains__(self, term: object) -> bool:
        return isinstance(term, Term) and self.lookup(term) is not None

    def size_by_kind(self) -> Dict[str, int]:
        return {
            name: self._base[kind] + len(self._extra_terms[kind])
            for kind, name in enumerate(_KIND_NAMES)
        }

    def terms(self) -> Iterator[Term]:
        """All terms in ID order (decodes the whole heap — O(n))."""
        for kind in range(3):
            for offset in range(self._base[kind]):
                yield self.decode(kind * KIND_STRIDE + offset)
            yield from self._extra_terms[kind]

    def export_kind(self, kind: int) -> Tuple[Term, ...]:
        """Stable ID-order export (mirrors
        :meth:`TermDictionary.export_kind`), overlay included."""
        base = tuple(
            self.decode(kind * KIND_STRIDE + offset)
            for offset in range(self._base[kind])
        )
        return base + tuple(self._extra_terms[kind])

    def materialized_heap_bytes(self) -> int:
        """Heap bytes decoded into Python terms so far (lazy-decode
        progress; feeds the resident-bytes proxy)."""
        return self._decoded_heap_bytes

    def __repr__(self) -> str:
        sizes = self.size_by_kind()
        return (
            f"<SnapshotDictionary {len(self)} terms "
            f"({sizes['uri']} uri, {sizes['bnode']} bnode, "
            f"{sizes['literal']} literal)>"
        )


# ----------------------------------------------------------------------
# The read-only graph
# ----------------------------------------------------------------------


class SnapshotGraph:
    """A :class:`Graph`-shaped read-only store over an mmap'd snapshot.

    Open is O(1): header + section-table validation and (by default) a
    CRC-32 pass over the payload — no term is decoded, no index is
    rebuilt.  Pattern scans binary-search the packed SPO/POS/OSP arrays
    and enumerate in the same sorted ID order as the in-memory store,
    so the physical operators, continuation tokens, EXPLAIN, and the
    serving frontend run over it unchanged.
    """

    __slots__ = (
        "_buffer",
        "_mmap",
        "_file",
        "_dict",
        "_size",
        "_spo_v",
        "_pos_v",
        "_osp_v",
        "_stats_view",
        "_stats",
        "_ranges",
        "_open_stat",
        "path",
        "name",
    )

    #: The storage-backend seam marker: layers that must refuse to
    #: mutate (or want the mutable escape hatch) test this instead of
    #: ``isinstance(graph, Graph)``.
    is_snapshot = True

    def __init__(self, buffer, *, verify: bool = True, mmap_obj=None,
                 file=None, path: str = "", name: str = ""):
        started = time.perf_counter()
        try:
            (
                _payload_len,
                checksum,
                triple_count,
                n_uri,
                n_bnode,
                n_literal,
            ) = _parse_header(buffer)
            if verify:
                actual = zlib.crc32(memoryview(buffer)[HEADER_SIZE:]) & 0xFFFFFFFF
                if actual != checksum:
                    raise SnapshotChecksumError(
                        f"payload checksum 0x{actual:08x} does not match "
                        f"header 0x{checksum:08x}"
                    )
            counts = (n_uri, n_bnode, n_literal)
            sections = _parse_sections(buffer, counts, triple_count)
        except Exception:
            if mmap_obj is not None:
                mmap_obj.close()
            if file is not None:
                file.close()
            raise
        self._buffer = buffer
        self._mmap = mmap_obj
        self._file = file
        self._dict = SnapshotDictionary(sections, counts)
        self._size = triple_count
        self._spo_v = _u64_view(sections[_SEC_SPO])
        self._pos_v = _u64_view(sections[_SEC_POS])
        self._osp_v = _u64_view(sections[_SEC_OSP])
        self._stats_view = _u64_view(sections[_SEC_STATS])
        self._stats = None
        # Memoised prefix-range results per ordering.  The store is
        # immutable, so a computed [lo, hi) never invalidates; join
        # operators re-probe the same bound prefixes constantly (every
        # binding of the outer side), which makes even a modest cache
        # pay for its dict lookups many times over.
        self._ranges = ({}, {}, {})
        # Identity of the mapped file at open time: (device, inode,
        # size).  ``snapshot_stale()`` re-stats the path against this,
        # which catches the classic rebuild-and-rename swap (new inode)
        # as well as in-place truncation (size change).  In-memory
        # images have no path and are never stale.
        self._open_stat = None
        if file is not None:
            stat = os.fstat(file.fileno())
            self._open_stat = (stat.st_dev, stat.st_ino, stat.st_size)
        self.path = path
        self.name = name or (os.path.basename(path) if path else "")
        _SNAP_OPEN_SECONDS.set(time.perf_counter() - started)
        _SNAP_FILE_BYTES.set(len(buffer))
        _SNAP_RESIDENT_BYTES.set(_process_rss_bytes())

    # -- constructors ---------------------------------------------------

    @classmethod
    def open(cls, path: str, *, verify: bool = True, name: str = "") -> "SnapshotGraph":
        """mmap ``path`` read-only and wrap it (zero-copy boot)."""
        file = open(path, "rb")
        try:
            mapped = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            # an empty file cannot be mapped; surface it as truncation
            file.close()
            raise SnapshotTruncatedError(f"{path} is empty")
        return cls(
            memoryview(mapped), verify=verify, mmap_obj=mapped, file=file,
            path=path, name=name,
        )

    @classmethod
    def from_bytes(cls, data: bytes, *, verify: bool = True,
                   name: str = "") -> "SnapshotGraph":
        """Wrap an in-memory snapshot image (tests, format tooling)."""
        return cls(memoryview(data), verify=verify, name=name)

    def close(self) -> None:
        """Release the views and the mapping.  Queries after close fail."""
        self._spo_v = self._pos_v = self._osp_v = self._stats_view = None
        self._ranges = ({}, {}, {})
        self._dict = None
        self._buffer = None
        if self._mmap is not None:
            import gc

            gc.collect()
            try:
                self._mmap.close()
            except BufferError:
                # A live memoryview still pins the mapping — typically a
                # suspended scan generator held by a plan cache or an
                # unfinished page.  The mapping is released when the last
                # view is garbage-collected; dropping our reference is
                # all close() can do.
                pass
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "SnapshotGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- staleness ------------------------------------------------------

    def snapshot_stale(self) -> bool:
        """Whether the file at ``path`` still is the file this graph
        mapped.

        The mmap itself keeps serving the *old* pages after a rename
        swap (the kernel pins the unlinked inode), so reads stay
        self-consistent — but they no longer reflect what a fresh open
        would see, and a continuation token minted here would resume
        against different data elsewhere.  Deleted or unstattable files
        count as stale.  In-memory images (``from_bytes``) are never
        stale.
        """
        if self._open_stat is None or not self.path:
            return False
        try:
            stat = os.stat(self.path)
        except OSError:
            return True
        return (stat.st_dev, stat.st_ino, stat.st_size) != self._open_stat

    def ensure_fresh(self) -> None:
        """Raise :class:`SnapshotStaleError` if :meth:`snapshot_stale`."""
        if self.snapshot_stale():
            raise SnapshotStaleError(
                f"snapshot file {self.path!r} was modified or replaced "
                "underneath the live mapping; reopen to pick up the new "
                "contents"
            )

    # -- the storage-backend protocol -----------------------------------

    @property
    def dictionary(self) -> SnapshotDictionary:
        return self._dict

    @property
    def version(self) -> int:
        """Always ``0``: the store is immutable, so version-keyed caches
        (plan cache, HVS, statistics) and continuation tokens never
        invalidate for the lifetime of the snapshot."""
        return 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def triples_ids(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """Binary-search pattern scan over the packed arrays.

        Branch selection and iteration order are identical to the
        in-memory :meth:`Graph.triples_ids` (sorted ID order in every
        position — the one :data:`repro.rdf.graph.SCAN_ORDER` table holds
        for both stores), including the index-lookup metric accounting.
        """
        if s is not None:
            (_LOOKUP_OSP if (p is None and o is not None) else _LOOKUP_SPO).inc()
        elif p is not None:
            _LOOKUP_POS.inc()
        elif o is not None:
            _LOOKUP_OSP.inc()
        else:
            _LOOKUP_FULL_SCAN.inc()
        n = self._size
        if s is None and p is None and o is None:
            return _iter_rows(self._spo_v, 0, n)
        if s is not None:
            if p is None and o is not None:
                lo, hi = self._range(2, (o, s))
                return _iter_rows(self._osp_v, lo, hi, 1, 2, 0)
            if p is None:
                prefix = (s,)
            elif o is None:
                prefix = (s, p)
            else:
                prefix = (s, p, o)
            lo, hi = self._range(0, prefix)
            return _iter_rows(self._spo_v, lo, hi)
        if p is not None:
            lo, hi = self._range(1, (p,) if o is None else (p, o))
            return _iter_rows(self._pos_v, lo, hi, 2, 0, 1)
        lo, hi = self._range(2, (o,))
        return _iter_rows(self._osp_v, lo, hi, 1, 2, 0)

    def _range(self, which: int, prefix) -> Tuple[int, int]:
        """Memoised :func:`_prefix_range` over ordering ``which``
        (0 = SPO, 1 = POS, 2 = OSP).  Sound because the store is
        immutable for its whole lifetime."""
        cache = self._ranges[which]
        hit = cache.get(prefix)
        if hit is None:
            if len(cache) >= _RANGE_CACHE_LIMIT:
                cache.clear()
            view = (self._spo_v, self._pos_v, self._osp_v)[which]
            hit = _prefix_range(view, self._size, prefix)
            cache[prefix] = hit
        return hit

    def count_ids(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> int:
        """Exact match count — every pattern shape is a prefix range on
        one of the orderings, so counting is O(log n), no iteration."""
        if s is None and p is None and o is None:
            return self._size
        if s is not None:
            if p is None and o is not None:
                lo, hi = self._range(2, (o, s))
            else:
                if p is None:
                    prefix = (s,)
                elif o is None:
                    prefix = (s, p)
                else:
                    prefix = (s, p, o)
                lo, hi = self._range(0, prefix)
        elif p is not None:
            lo, hi = self._range(1, (p,) if o is None else (p, o))
        else:
            lo, hi = self._range(2, (o,))
        return hi - lo

    def statistics(self) -> GraphStatistics:
        """The build-time cardinality summary, parsed lazily (O(1) boot
        is preserved: nothing is scanned, the counts were precomputed
        when the snapshot was written)."""
        stats = self._stats
        if stats is None:
            stats = self._parse_stats()
            self._stats = stats
        return stats

    def _parse_stats(self) -> GraphStatistics:
        view = self._stats_view
        decode = self._dict.decode
        try:
            total, distinct_subjects, distinct_objects, n_predicates = (
                view[0], view[1], view[2], view[3]
            )
            index = 4
            predicate_triples: Dict[URI, int] = {}
            predicate_subjects: Dict[URI, int] = {}
            predicate_objects: Dict[URI, int] = {}
            for _ in range(n_predicates):
                predicate = decode(view[index])
                predicate_triples[predicate] = view[index + 1]
                predicate_subjects[predicate] = view[index + 2]
                predicate_objects[predicate] = view[index + 3]
                index += 4
            class_instances: Dict[URI, int] = {}
            n_classes = view[index]
            index += 1
            for _ in range(n_classes):
                class_instances[decode(view[index])] = view[index + 1]
                index += 2
        except (IndexError, KeyError) as exc:
            raise SnapshotFormatError(
                f"statistics section is corrupt: {exc}"
            ) from exc
        return GraphStatistics(
            version=self.version,
            total_triples=total,
            predicate_triples=predicate_triples,
            predicate_subjects=predicate_subjects,
            predicate_objects=predicate_objects,
            class_instances=class_instances,
            distinct_subjects=distinct_subjects,
            distinct_objects=distinct_objects,
        )

    # -- term plane -----------------------------------------------------

    def _encode_pattern(
        self,
        subject: Optional[Subject],
        predicate: Optional[URI],
        object: Optional[RDFObject],
    ) -> Tuple[Optional[int], Optional[int], Optional[int]]:
        lookup = self._dict.lookup
        s = None
        if subject is not None:
            s = lookup(subject)
            if s is None:
                s = _UNKNOWN
        p = None
        if predicate is not None:
            p = lookup(predicate)
            if p is None:
                p = _UNKNOWN
        o = None
        if object is not None:
            o = lookup(object)
            if o is None:
                o = _UNKNOWN
        return s, p, o

    def triples(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[URI] = None,
        object: Optional[RDFObject] = None,
    ) -> Iterator[Triple]:
        s, p, o = self._encode_pattern(subject, predicate, object)
        decode_triple = self._dict.decode_triple
        for ids in self.triples_ids(s, p, o):
            yield Triple(*decode_triple(ids))

    def match(self, pattern: TriplePattern) -> Iterator[Triple]:
        return self.triples(pattern.subject, pattern.predicate, pattern.object)

    def count(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[URI] = None,
        object: Optional[RDFObject] = None,
    ) -> int:
        s, p, o = self._encode_pattern(subject, predicate, object)
        return self.count_ids(s, p, o)

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, tuple) or len(triple) != 3:
            return False
        s, p, o = self._encode_pattern(*triple)
        if _UNKNOWN in (s, p, o):
            return False
        return self.count_ids(s, p, o) > 0

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def subjects(
        self, predicate: Optional[URI] = None, object: Optional[RDFObject] = None
    ) -> Iterator[Subject]:
        decode = self._dict.decode
        _, p, o = self._encode_pattern(None, predicate, object)
        seen: Set[int] = set()
        for s, _, _ in self.triples_ids(None, p, o):
            if s not in seen:
                seen.add(s)
                yield decode(s)

    def predicates(
        self, subject: Optional[Subject] = None, object: Optional[RDFObject] = None
    ) -> Iterator[URI]:
        decode = self._dict.decode
        s, _, o = self._encode_pattern(subject, None, object)
        seen: Set[int] = set()
        for _, p, _ in self.triples_ids(s, None, o):
            if p not in seen:
                seen.add(p)
                yield decode(p)

    def objects(
        self, subject: Optional[Subject] = None, predicate: Optional[URI] = None
    ) -> Iterator[RDFObject]:
        decode = self._dict.decode
        s, p, _ = self._encode_pattern(subject, predicate, None)
        seen: Set[int] = set()
        for _, _, o in self.triples_ids(s, p, None):
            if o not in seen:
                seen.add(o)
                yield decode(o)

    def value(
        self, subject: Optional[Subject] = None, predicate: Optional[URI] = None,
        object: Optional[RDFObject] = None,
    ) -> Optional[RDFObject]:
        wildcards = sum(term is None for term in (subject, predicate, object))
        if wildcards != 1:
            raise ValueError("value() requires exactly one wildcard position")
        for triple in self.triples(subject, predicate, object):
            if subject is None:
                return triple.subject
            if predicate is None:
                return triple.predicate
            return triple.object
        return None

    # -- derived views --------------------------------------------------

    def _first_column_runs(self, view) -> Iterator[int]:
        """Distinct values of a sorted ordering's first column (run
        boundaries — no set is built)."""
        last = None
        for start in range(0, self._size, _CHUNK_ROWS):
            stop = min(self._size, start + _CHUNK_ROWS)
            vals = view[3 * start : 3 * stop].tolist()
            for j in range(0, len(vals), 3):
                value = vals[j]
                if value != last:
                    last = value
                    yield value

    def uris(self) -> Set[URI]:
        """The set U(G) of URIs occurring in the graph."""
        decode = self._dict.decode
        found: Set[URI] = set()
        for s in self._first_column_runs(self._spo_v):
            if s < KIND_STRIDE:
                found.add(decode(s))
        for p in self._first_column_runs(self._pos_v):
            found.add(decode(p))
        for o in self._first_column_runs(self._osp_v):
            if o < KIND_STRIDE:
                found.add(decode(o))
        return found

    def literals(self) -> Set[Literal]:
        """The set L(G) of literals occurring in the graph."""
        decode = self._dict.decode
        literal_base = 2 * KIND_STRIDE
        return {
            decode(o)
            for o in self._first_column_runs(self._osp_v)
            if o >= literal_base
        }

    def copy(self, name: str = "") -> Graph:
        """Materialise a mutable in-memory :class:`Graph` — the escape
        hatch out of the read-only snapshot."""
        return Graph(self.triples(), name=name or self.name)

    def windows(self, size: int) -> Iterator[Graph]:
        """Consecutive windows of ``size`` triples (see
        :meth:`Graph.windows`); each window materialises in memory."""
        if size <= 0:
            raise ValueError("window size must be positive")
        batch: List[Triple] = []
        for triple in self.triples():
            batch.append(triple)
            if len(batch) == size:
                yield Graph(batch)
                batch = []
        if batch:
            yield Graph(batch)

    # -- refusal of the write plane -------------------------------------

    def _read_only(self, operation: str):
        raise SnapshotReadOnlyError(
            f"cannot {operation} on a SnapshotGraph: snapshots are "
            f"immutable (use .copy() for a mutable in-memory Graph)"
        )

    def add(self, *args, **kwargs):
        self._read_only("add a triple")

    def add_triple(self, *args, **kwargs):
        self._read_only("add a triple")

    def update(self, *args, **kwargs):
        self._read_only("update")

    def bulk_load(self, *args, **kwargs):
        self._read_only("bulk-load")

    def bulk(self, *args, **kwargs):
        self._read_only("open a bulk mutation block")

    def remove(self, *args, **kwargs):
        self._read_only("remove a triple")

    def remove_pattern(self, *args, **kwargs):
        self._read_only("remove a pattern")

    def clear(self, *args, **kwargs):
        self._read_only("clear")

    # -- accounting -----------------------------------------------------

    def file_bytes(self) -> int:
        """The mapped snapshot's total size in bytes."""
        return len(self._buffer)

    def resident_bytes(self) -> int:
        """Process RSS right now (page-fault proxy: grows as queries
        touch pages of the mapping).  Also refreshes the
        ``repro_snapshot_resident_bytes`` gauge."""
        rss = _process_rss_bytes()
        _SNAP_RESIDENT_BYTES.set(rss)
        return rss

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<SnapshotGraph{label} with {self._size} triples (mmap)>"


# ----------------------------------------------------------------------
# Module-level conveniences
# ----------------------------------------------------------------------


def open_snapshot(path: str, *, verify: bool = True, name: str = "") -> SnapshotGraph:
    """Open a snapshot file zero-copy; see :meth:`SnapshotGraph.open`."""
    return SnapshotGraph.open(path, verify=verify, name=name)


def snapshot_info(path: str) -> Dict[str, object]:
    """Header and section-table summary of a snapshot file (reads the
    header and table only; payload pages are not touched beyond the
    table)."""
    with open(path, "rb") as handle:
        head = handle.read(HEADER_SIZE + _SECTION_TABLE_SIZE)
        file_bytes = os.fstat(handle.fileno()).st_size
    if len(head) < HEADER_SIZE:
        raise SnapshotTruncatedError(
            f"file is {len(head)} bytes; the header alone is {HEADER_SIZE}"
        )
    (
        magic,
        version,
        flags,
        payload_len,
        checksum,
        _reserved,
        triple_count,
        n_uri,
        n_bnode,
        n_literal,
    ) = struct.unpack_from(_HEADER_FMT, head, 0)
    if magic != MAGIC:
        raise SnapshotMagicError(
            f"not a snapshot file: magic {bytes(magic)!r} != {MAGIC!r}"
        )
    if version != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"unsupported snapshot format version {version} "
            f"(this reader speaks {FORMAT_VERSION})"
        )
    if len(head) < HEADER_SIZE + _SECTION_TABLE_SIZE:
        raise SnapshotTruncatedError("file ends inside the section table")
    section_names = (
        "uri_offsets", "uri_heap", "uri_sorted",
        "bnode_offsets", "bnode_heap", "bnode_sorted",
        "literal_offsets", "literal_heap", "literal_sorted",
        "spo", "pos", "osp", "stats",
    )
    sections = []
    for index, section_name in enumerate(section_names):
        offset, length = struct.unpack_from(
            "<QQ", head, HEADER_SIZE + 16 * index
        )
        sections.append({"name": section_name, "offset": offset, "bytes": length})
    return {
        "path": path,
        "format_version": version,
        "flags": flags,
        "file_bytes": file_bytes,
        "payload_bytes": payload_len,
        "checksum_crc32": f"0x{checksum:08x}",
        "triples": triple_count,
        "terms": {"uri": n_uri, "bnode": n_bnode, "literal": n_literal},
        "sections": sections,
    }
