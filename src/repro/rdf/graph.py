"""A dictionary-encoded, indexed, in-memory RDF graph store.

This is the storage substrate underneath the SPARQL engine and, through
it, the simulated Virtuoso endpoint of :mod:`repro.endpoint`.  Since PR 5
the store is *dictionary encoded*: every term is interned once in a
:class:`~repro.rdf.dictionary.TermDictionary` and the three indexes (SPO,
POS, OSP) are nested dicts over dense integer IDs whose innermost level
is a **sorted int list** — 8 bytes per entry instead of a hash-set of
term objects, and deterministic ID-order iteration in every position.

Two access planes are exposed:

- :meth:`Graph.triples` / the single-position accessors speak
  :class:`~repro.rdf.terms.Term` objects, exactly as before — they
  decode on the fly, so every term-space consumer (exploration
  engine, serialisers, the test oracle) is unchanged.
- :meth:`Graph.triples_ids` yields raw ``(s, p, o)`` ID tuples with no
  term materialization at all; the physical operator layer
  (:mod:`repro.sparql.physical`) executes joins, DISTINCT, and grouping
  entirely in this ID space and materializes terms only at the
  projection boundary.

Both planes iterate the *same* underlying structures, so encoded and
term-object execution produce identical rows in identical order.

The graph also maintains a monotonically increasing ``version`` that the
heavy-query store (:mod:`repro.perf.hvs`) uses for cache invalidation:
the paper specifies "The HVS is cleared on any update to the eLinda
knowledge bases" (Section 4).  Batch ingestion (:meth:`Graph.bulk_load`,
:meth:`Graph.bulk`) coalesces the version bump to once per batch so a
load no longer invalidates statistics and plan caches N times.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..obs.metrics import REGISTRY
from .dictionary import KIND_STRIDE, TermDictionary
from .terms import Literal, RDFObject, Subject, URI
from .triple import Triple, TriplePattern

__all__ = ["Graph", "SCAN_ORDER"]

#: The sorted-scan contract of ``triples_ids``, as data: per pattern
#: shape ``(s bound, p bound, o bound)``, the open positions, most
#: significant first.  One call's matches are strictly increasing in
#: them, on this store and on ``SnapshotGraph`` alike; the physical
#: planner derives ``PhysicalOperator.clustered_on`` from this table.
SCAN_ORDER: Dict[Tuple[bool, bool, bool], Tuple[int, ...]] = {
    (True, False, False): (1, 2),
    (False, True, False): (2, 0),
    (False, False, True): (0, 1),
    (True, True, False): (2,),
    (True, False, True): (1,),
    (False, True, True): (0,),
    (False, False, False): (0, 1, 2),
    (True, True, True): (),
}

_INDEX_LOOKUPS_TOTAL = REGISTRY.counter(
    "repro_graph_index_lookups_total",
    "Triple-pattern lookups by the index that answered them",
    labelnames=("index",),
)
_LOOKUP_SPO = _INDEX_LOOKUPS_TOTAL.labels(index="spo")
_LOOKUP_POS = _INDEX_LOOKUPS_TOTAL.labels(index="pos")
_LOOKUP_OSP = _INDEX_LOOKUPS_TOTAL.labels(index="osp")
_LOOKUP_FULL_SCAN = _INDEX_LOOKUPS_TOTAL.labels(index="full_scan")

_BULK_LOADS_TOTAL = REGISTRY.counter(
    "repro_graph_bulk_loads_total",
    "Batched ingestions (one coalesced version bump each)",
)

#: Sentinel ID for "this term is bound but unknown to the dictionary" —
#: it can never match, but routing it through the normal index branches
#: keeps lookup metrics and early-exit behaviour identical.
_UNKNOWN = -1

#: Kind tag of literal IDs (see :mod:`repro.rdf.dictionary`).
_LITERAL_BASE = 2 * KIND_STRIDE

_EMPTY_DICT: Dict = {}


def _sorted_contains(values: List[int], value: int) -> bool:
    """Membership test on a sorted int list."""
    index = bisect_left(values, value)
    return index < len(values) and values[index] == value


def _index_add(index: Dict, key1: int, key2: int, key3: int) -> bool:
    """Insert ``key3`` into the sorted list at ``index[key1][key2]``;
    returns True if it was not already present."""
    second = index.get(key1)
    if second is None:
        index[key1] = {key2: [key3]}
        return True
    third = second.get(key2)
    if third is None:
        second[key2] = [key3]
        return True
    position = bisect_left(third, key3)
    if position < len(third) and third[position] == key3:
        return False
    third.insert(position, key3)
    return True


def _index_remove(index: Dict, key1: int, key2: int, key3: int) -> None:
    second = index[key1]
    third = second[key2]
    position = bisect_left(third, key3)
    if position < len(third) and third[position] == key3:
        del third[position]
    if not third:
        del second[key2]
        if not second:
            del index[key1]


class Graph:
    """A finite collection of RDF triples with pattern-matching access.

    >>> from repro.rdf import URI, Literal, Graph
    >>> g = Graph()
    >>> _ = g.add(URI("http://ex/s"), URI("http://ex/p"), Literal("v"))
    >>> len(g)
    1
    """

    __slots__ = (
        "_dict",
        "_spo",
        "_pos",
        "_osp",
        "_size",
        "_version",
        "_stats",
        "_bulk_depth",
        "_bulk_dirty",
        "_listeners",
        "name",
    )

    def __init__(self, triples: Iterable[Triple] = (), name: str = ""):
        #: the term ↔ ID dictionary; append-only for the graph's lifetime.
        self._dict = TermDictionary()
        # _spo: subject id -> predicate id -> sorted list of object ids
        self._spo: Dict[int, Dict[int, List[int]]] = {}
        # _pos: predicate id -> object id -> sorted list of subject ids
        self._pos: Dict[int, Dict[int, List[int]]] = {}
        # _osp: object id -> subject id -> sorted list of predicate ids
        self._osp: Dict[int, Dict[int, List[int]]] = {}
        self._size = 0
        self._version = 0
        self._stats = None  # cached GraphStatistics for self._version
        self._bulk_depth = 0
        self._bulk_dirty = False
        # Mutation-delta listeners (e.g. materialized views).  Each is
        # notified with ID triples *after* the indexes are updated, so a
        # listener reading the graph back sees the post-mutation state.
        self._listeners: List = []
        self.name = name
        if triples:
            self.bulk_load(triples)

    # ------------------------------------------------------------------
    # Encoding plane
    # ------------------------------------------------------------------

    @property
    def dictionary(self) -> TermDictionary:
        """The term ↔ ID dictionary backing this graph's indexes."""
        return self._dict

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _bump_version(self) -> None:
        if self._bulk_depth:
            self._bulk_dirty = True
        else:
            self._version += 1

    # ------------------------------------------------------------------
    # Mutation-delta listeners
    # ------------------------------------------------------------------

    def add_listener(self, listener) -> None:
        """Register a mutation-delta listener.

        A listener is any object with ``on_added(s, p, o)``,
        ``on_removed(s, p, o)`` and ``on_cleared()`` methods taking
        dictionary IDs.  It is called once per triple that actually
        changed (never for no-op adds/removes), after the indexes are
        updated — this is how :class:`repro.perf.views.MaterializedViews`
        stays current without version-flush rebuilds.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        """Unregister a previously added mutation-delta listener."""
        self._listeners.remove(listener)

    def add(self, subject: Subject, predicate: URI, object: RDFObject) -> bool:
        """Add a triple; returns True if it was not already present."""
        triple = Triple.create(subject, predicate, object)
        encode = self._dict.encode
        s = encode(triple.subject)
        p = encode(triple.predicate)
        o = encode(triple.object)
        if not _index_add(self._spo, s, p, o):
            return False
        _index_add(self._pos, p, o, s)
        _index_add(self._osp, o, s, p)
        self._size += 1
        self._bump_version()
        for listener in self._listeners:
            listener.on_added(s, p, o)
        return True

    def add_triple(self, triple: Triple) -> bool:
        """Add a :class:`Triple`; returns True if it was not already present."""
        return self.add(triple.subject, triple.predicate, triple.object)

    def update(self, triples: Iterable[Triple]) -> int:
        """Add many triples with one version bump; returns the number added."""
        return self.bulk_load(triples)

    @contextmanager
    def bulk(self):
        """Context manager coalescing version bumps across many mutations.

        Inside the block every ``add``/``remove`` applies immediately (so
        interleaved reads see the data), but the ``version`` counter —
        the invalidation signal for :class:`GraphStatistics`, the plan
        cache, and the HVS — moves at most once, when the block exits.
        Nestable; only the outermost exit bumps.
        """
        self._bulk_depth += 1
        try:
            yield self
        finally:
            self._bulk_depth -= 1
            if self._bulk_depth == 0 and self._bulk_dirty:
                self._bulk_dirty = False
                self._version += 1
                _BULK_LOADS_TOTAL.inc()

    def bulk_load(self, triples: Iterable) -> int:
        """Batch-ingest triples: one version bump, amortised index builds.

        Accepts any iterable of ``(subject, predicate, object)`` term
        sequences (:class:`Triple` included).  Inner index lists are
        appended and sorted once per touched key instead of insertion-
        sorted per triple, so dictionary growth and index maintenance are
        amortised across the batch.  Returns the number of triples that
        were actually new.
        """
        encode = self._dict.encode
        spo = self._spo
        pending: Dict[Tuple[int, int], List[int]] = {}
        for item in triples:
            subject, predicate, object = item
            triple = Triple.create(subject, predicate, object)
            key = (encode(triple.subject), encode(triple.predicate))
            values = pending.get(key)
            if values is None:
                pending[key] = [encode(triple.object)]
            else:
                values.append(encode(triple.object))
        added = 0
        fresh_pos: Dict[Tuple[int, int], List[int]] = {}
        fresh_osp: Dict[Tuple[int, int], List[int]] = {}
        # Listener notifications are deferred until all three indexes are
        # consistent, then delivered triple-by-triple.
        deltas: List[Tuple[int, int, int]] = []
        for (s, p), oids in pending.items():
            by_predicate = spo.get(s)
            if by_predicate is None:
                by_predicate = {}
                spo[s] = by_predicate
            existing = by_predicate.get(p)
            if existing is None:
                fresh = sorted(set(oids))
                by_predicate[p] = fresh
            else:
                existing_set = set(existing)
                fresh = [o for o in set(oids) if o not in existing_set]
                if not fresh:
                    continue
                existing.extend(fresh)
                existing.sort()
            added += len(fresh)
            for o in fresh:
                fresh_pos.setdefault((p, o), []).append(s)
                fresh_osp.setdefault((o, s), []).append(p)
                if self._listeners:
                    deltas.append((s, p, o))
        for index, additions in ((self._pos, fresh_pos), (self._osp, fresh_osp)):
            for (k1, k2), values in additions.items():
                second = index.get(k1)
                if second is None:
                    second = {}
                    index[k1] = second
                third = second.get(k2)
                if third is None:
                    second[k2] = sorted(values)
                else:
                    third.extend(values)
                    third.sort()
        if added:
            self._size += added
            self._bump_version()
            if not self._bulk_depth:
                _BULK_LOADS_TOTAL.inc()
            for s, p, o in deltas:
                for listener in self._listeners:
                    listener.on_added(s, p, o)
        return added

    def remove(self, subject: Subject, predicate: URI, object: RDFObject) -> bool:
        """Remove a triple; returns True if it was present.

        The terms stay interned in the dictionary (IDs are stable for
        the graph's lifetime); only the index entries go away.
        """
        lookup = self._dict.lookup
        s = lookup(subject)
        p = lookup(predicate)
        o = lookup(object)
        if s is None or p is None or o is None:
            return False
        objects = self._spo.get(s, _EMPTY_DICT).get(p)
        if objects is None or not _sorted_contains(objects, o):
            return False
        _index_remove(self._spo, s, p, o)
        _index_remove(self._pos, p, o, s)
        _index_remove(self._osp, o, s, p)
        self._size -= 1
        self._bump_version()
        for listener in self._listeners:
            listener.on_removed(s, p, o)
        return True

    def remove_pattern(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[URI] = None,
        object: Optional[RDFObject] = None,
    ) -> int:
        """Remove all triples matching the pattern; returns the count."""
        doomed = list(self.triples(subject, predicate, object))
        for triple in doomed:
            self.remove(*triple)
        return len(doomed)

    def clear(self) -> None:
        """Remove all triples (bumps the version once)."""
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._size = 0
        self._bump_version()
        for listener in self._listeners:
            listener.on_cleared()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter, used for HVS invalidation."""
        return self._version

    def statistics(self):
        """The cached cardinality summary for the current version.

        Rebuilt lazily after any mutation (the cache is keyed by
        ``version``); feeds the cost-based passes of
        :mod:`repro.sparql.optimizer`.
        """
        from .stats import GraphStatistics

        cached = self._stats
        if cached is None or cached.version != self._version:
            cached = GraphStatistics.build(self)
            self._stats = cached
        return cached

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, tuple) or len(triple) != 3:
            return False
        subject, predicate, object = triple
        lookup = self._dict.lookup
        s = lookup(subject)
        p = lookup(predicate)
        o = lookup(object)
        if s is None or p is None or o is None:
            return False
        objects = self._spo.get(s, _EMPTY_DICT).get(p)
        return objects is not None and _sorted_contains(objects, o)

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} with {self._size} triples>"

    # ------------------------------------------------------------------
    # Pattern matching — ID plane
    # ------------------------------------------------------------------

    def triples_ids(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(s, p, o)`` ID tuples matching the pattern.

        ``None`` is a wildcard; the most selective index available for
        the pattern is used, and a full scan happens only for the
        all-wildcard pattern.  This is the zero-materialization plane
        the physical operators execute on.

        Iteration order is **sorted ID order in every position** —
        outer dict levels are walked in sorted-key order and the leaf
        lists are kept sorted; :data:`SCAN_ORDER` says which position
        leads for each pattern shape — so two stores holding the same
        triples enumerate any pattern identically regardless of
        insertion order.  This is the canonical order the mmap'd snapshot store
        (:mod:`repro.rdf.snapshot`) answers with via binary search, and
        what makes snapshot execution row-and-order equivalent to the
        in-memory store by construction.
        """
        if s is not None:
            # (s, ?, o) is the one subject-bound shape answered from OSP.
            (_LOOKUP_OSP if (p is None and o is not None) else _LOOKUP_SPO).inc()
        elif p is not None:
            _LOOKUP_POS.inc()
        elif o is not None:
            _LOOKUP_OSP.inc()
        else:
            _LOOKUP_FULL_SCAN.inc()
        if s is not None:
            by_predicate = self._spo.get(s)
            if by_predicate is None:
                return
            if p is not None:
                objects = by_predicate.get(p)
                if objects is None:
                    return
                if o is not None:
                    if _sorted_contains(objects, o):
                        yield (s, p, o)
                    return
                for obj in objects:
                    yield (s, p, obj)
                return
            if o is not None:
                predicates = self._osp.get(o, _EMPTY_DICT).get(s)
                if predicates is None:
                    return
                for pred in predicates:
                    yield (s, pred, o)
                return
            for pred in sorted(by_predicate):
                for obj in by_predicate[pred]:
                    yield (s, pred, obj)
            return
        if p is not None:
            by_object = self._pos.get(p)
            if by_object is None:
                return
            if o is not None:
                subjects = by_object.get(o)
                if subjects is None:
                    return
                for subj in subjects:
                    yield (subj, p, o)
                return
            for obj in sorted(by_object):
                for subj in by_object[obj]:
                    yield (subj, p, obj)
            return
        if o is not None:
            by_subject = self._osp.get(o)
            if by_subject is None:
                return
            for subj in sorted(by_subject):
                for pred in by_subject[subj]:
                    yield (subj, pred, o)
            return
        spo = self._spo
        for subj in sorted(spo):
            by_predicate = spo[subj]
            for pred in sorted(by_predicate):
                for obj in by_predicate[pred]:
                    yield (subj, pred, obj)

    def count_ids(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> int:
        """Count matches of an ID pattern without materialising them."""
        if s is None and p is None and o is None:
            return self._size
        if s is not None and p is not None and o is None:
            return len(self._spo.get(s, _EMPTY_DICT).get(p, ()))
        if s is None and p is not None and o is not None:
            return len(self._pos.get(p, _EMPTY_DICT).get(o, ()))
        if s is not None and p is None and o is not None:
            return len(self._osp.get(o, _EMPTY_DICT).get(s, ()))
        return sum(1 for _ in self.triples_ids(s, p, o))

    def _encode_pattern(
        self,
        subject: Optional[Subject],
        predicate: Optional[URI],
        object: Optional[RDFObject],
    ) -> Tuple[Optional[int], Optional[int], Optional[int]]:
        """Map a term pattern to an ID pattern.

        A bound term unknown to the dictionary maps to the impossible ID
        :data:`_UNKNOWN`, which matches nothing but still routes through
        the same index branch (for identical metrics and early exits).
        """
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

    # ------------------------------------------------------------------
    # Pattern matching — term plane
    # ------------------------------------------------------------------

    def triples(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[URI] = None,
        object: Optional[RDFObject] = None,
    ) -> Iterator[Triple]:
        """Yield all triples matching the pattern (``None`` = wildcard).

        Decodes from the ID plane on the fly; iteration order is the ID
        plane's deterministic order, so term-level and encoded execution
        see the same sequence.
        """
        s, p, o = self._encode_pattern(subject, predicate, object)
        decode_triple = self._dict.decode_triple
        for ids in self.triples_ids(s, p, o):
            yield Triple(*decode_triple(ids))

    def match(self, pattern: TriplePattern) -> Iterator[Triple]:
        """Yield triples matching a :class:`TriplePattern`."""
        return self.triples(pattern.subject, pattern.predicate, pattern.object)

    def count(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[URI] = None,
        object: Optional[RDFObject] = None,
    ) -> int:
        """Count triples matching the pattern without materialising them."""
        s, p, o = self._encode_pattern(subject, predicate, object)
        return self.count_ids(s, p, o)

    # ------------------------------------------------------------------
    # Single-position accessors
    # ------------------------------------------------------------------

    def subjects(
        self, predicate: Optional[URI] = None, object: Optional[RDFObject] = None
    ) -> Iterator[Subject]:
        """Yield distinct subjects of triples matching ``(?, predicate, object)``."""
        decode = self._dict.decode
        if predicate is not None and object is not None:
            _, p, o = self._encode_pattern(None, predicate, object)
            for s in self._pos.get(p, _EMPTY_DICT).get(o, ()):
                yield decode(s)
            return
        seen: Set[int] = set()
        s_pat, p_pat, o_pat = self._encode_pattern(None, predicate, object)
        for s, _, _ in self.triples_ids(s_pat, p_pat, o_pat):
            if s not in seen:
                seen.add(s)
                yield decode(s)

    def predicates(
        self, subject: Optional[Subject] = None, object: Optional[RDFObject] = None
    ) -> Iterator[URI]:
        """Yield distinct predicates of triples matching ``(subject, ?, object)``."""
        decode = self._dict.decode
        s_pat, _, o_pat = self._encode_pattern(subject, None, object)
        if subject is not None and object is not None:
            for p in self._osp.get(o_pat, _EMPTY_DICT).get(s_pat, ()):
                yield decode(p)
            return
        if subject is not None and object is None:
            for p in sorted(self._spo.get(s_pat, _EMPTY_DICT)):
                yield decode(p)
            return
        if subject is None and object is None:
            for p in sorted(self._pos):
                yield decode(p)
            return
        seen: Set[int] = set()
        for _, p, _ in self.triples_ids(s_pat, None, o_pat):
            if p not in seen:
                seen.add(p)
                yield decode(p)

    def objects(
        self, subject: Optional[Subject] = None, predicate: Optional[URI] = None
    ) -> Iterator[RDFObject]:
        """Yield distinct objects of triples matching ``(subject, predicate, ?)``."""
        decode = self._dict.decode
        s_pat, p_pat, _ = self._encode_pattern(subject, predicate, None)
        if subject is not None and predicate is not None:
            for o in self._spo.get(s_pat, _EMPTY_DICT).get(p_pat, ()):
                yield decode(o)
            return
        seen: Set[int] = set()
        for _, _, o in self.triples_ids(s_pat, p_pat, None):
            if o not in seen:
                seen.add(o)
                yield decode(o)

    def value(
        self, subject: Optional[Subject] = None, predicate: Optional[URI] = None,
        object: Optional[RDFObject] = None,
    ) -> Optional[RDFObject]:
        """Return one term filling the single ``None`` position, or None.

        Exactly one of the three arguments must be None.
        """
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

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def uris(self) -> Set[URI]:
        """The set U(G) of URIs occurring in the graph (paper, Section 2).

        Derived from the index key sets, so only URI-kind IDs are ever
        decoded — the dictionary may hold interned terms that no longer
        (or never did) occur in a triple, and those are not included.
        """
        decode = self._dict.decode
        found: Set[URI] = set()
        for s in self._spo:
            if s < KIND_STRIDE:
                found.add(decode(s))
        for p in self._pos:
            found.add(decode(p))
        for o in self._osp:
            if o < KIND_STRIDE:
                found.add(decode(o))
        return found

    def literals(self) -> Set[Literal]:
        """The set L(G) of literals occurring in the graph."""
        decode = self._dict.decode
        return {decode(o) for o in self._osp if o >= _LITERAL_BASE}

    def copy(self, name: str = "") -> "Graph":
        """A deep copy with its own dictionary and indexes."""
        return Graph(self.triples(), name=name or self.name)

    def windows(self, size: int) -> Iterator["Graph"]:
        """Partition the graph into consecutive windows of ``size`` triples.

        This backs the paper's *incremental evaluation*: eLinda "builds the
        chart of an expansion by computing it on the first N triples ... It
        then continues to compute the query on the next N triples and
        aggregates the results in the frontend" (Section 4).  The iteration
        order is the store's deterministic index order.
        """
        if size <= 0:
            raise ValueError("window size must be positive")
        batch: list[Triple] = []
        for triple in self.triples():
            batch.append(triple)
            if len(batch) == size:
                yield Graph(batch)
                batch = []
        if batch:
            yield Graph(batch)
