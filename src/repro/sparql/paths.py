"""Property-path evaluation (SPARQL 1.1 subset) in dictionary-ID space.

Supported operators: IRI steps, inverse ``^p``, sequence ``p1/p2``,
alternative ``p1|p2``, and the closures ``p*``, ``p+``, ``p?``.

Since PR 8 this module is the engine's *path kernel*: a path expression
is first **lowered** (:func:`lower_path`) from its AST into a small
algebra of ID-space hop primitives — predicate IDs instead of URIs, so a
hop is a ``triples_ids`` index probe and a closure is a breadth-first
search over plain ``int`` frontiers.  On top of the kernel sit
**preemptable pair iterators** (:func:`build_pair_iterator`): explicit
objects with a bounded ``next_pair()`` step and ``save()``/``load()``
state (sage-engine's ``iterators/ppaths`` shape), which is what the
suspendable physical operator :class:`repro.sparql.physical.ppath.PathScanOp`
drives one time-slice at a time.  All iteration is in **canonical
sorted-ID order** — hops return sorted successor lists, the closure BFS
expands them deterministically, and the all-nodes walk ascends the
dictionary ID range — so a suspended traversal resumes *identically* in
any process mapping the same store (the pre-PR 8 kernel iterated
unordered ``set`` objects, whose order is not reproducible in a
respawned worker).

The term-space API is kept as a thin wrapper for callers outside the
engine (the exploration layer, the test oracle): :func:`eval_path`
yields distinct ``(subject, object)`` term pairs by encoding the
endpoints, driving the same pair iterators, and decoding each emitted
pair — the same rows in the same order by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, List, Optional, Tuple, Union

from ..obs.metrics import REGISTRY
from ..rdf.dictionary import KIND_STRIDE
from ..rdf.graph import Graph
from ..rdf.terms import Term, URI
from .ast import (
    AlternativePath,
    InversePath,
    PathExpr,
    RepeatPath,
    SequencePath,
)
from .errors import SparqlEvalError

__all__ = [
    "eval_path",
    "path_hop",
    "lower_path",
    "hop_ids",
    "iter_node_ids",
    "build_pair_iterator",
    "closure_stats",
    "PairIterator",
]

Path = Union[URI, PathExpr]
Pair = Tuple[Term, Term]
IdPair = Tuple[int, int]

#: The impossible ID: a constant the dictionary never interned.  It
#: routes through the normal index branches and matches nothing.
_UNKNOWN = -1

#: Candidate dictionary IDs probed per ``next_pair()`` call while the
#: all-nodes walk scans for the next graph node (bounds one step of the
#: ``?s p* ?o`` shape the way ``BLOCK`` bounds a flat scan).
NODE_PROBE_BATCH = 64

_PATH_SCANS = REGISTRY.counter(
    "repro_path_scans_total",
    "Path pair-iterators started, by endpoint shape",
    labelnames=("shape",),
)
_PATH_HOPS = REGISTRY.counter(
    "repro_path_hops_total",
    "Frontier node expansions (one path application) in closure BFS",
)
_PATH_FRONTIER = REGISTRY.histogram(
    "repro_path_frontier_size",
    "BFS frontier size observed at each closure expansion",
    buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096),
)
_PATH_VISITED = REGISTRY.histogram(
    "repro_path_visited_nodes",
    "Visited-set cardinality when a closure BFS exhausts",
    buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096),
)


# ----------------------------------------------------------------------
# Lowering: path AST -> ID-space hop algebra
# ----------------------------------------------------------------------
#
# A lowered path is a nested tuple whose head names the primitive:
#
#   ("edge", pid)                     one predicate hop (pid may be -1)
#   ("inv", code)                     follow ``code`` backwards
#   ("seq", (code, ...))              composition, left to right
#   ("alt", (code, ...))              union of alternatives
#   ("closure", code, include_zero, max_one)   * / + / ?
#
# Lowering resolves every IRI step through the dictionary exactly once
# per plan instantiation; predicates absent from the dictionary label no
# graph edge, so they lower to the impossible ID.


def lower_path(path: Path, lookup: Callable[[Term], Optional[int]]):
    """Lower a path expression to ID-space hop primitives."""
    if isinstance(path, URI):
        id = lookup(path)
        return ("edge", _UNKNOWN if id is None else id)
    if isinstance(path, InversePath):
        return ("inv", lower_path(path.inner, lookup))
    if isinstance(path, SequencePath):
        return ("seq", tuple(lower_path(step, lookup) for step in path.steps))
    if isinstance(path, AlternativePath):
        return (
            "alt",
            tuple(lower_path(choice, lookup) for choice in path.choices),
        )
    if isinstance(path, RepeatPath):
        return (
            "closure",
            lower_path(path.inner, lookup),
            path.min_hops == 0,
            path.max_one,
        )
    raise SparqlEvalError(f"unsupported path expression: {path!r}")


# ----------------------------------------------------------------------
# Hop kernel
# ----------------------------------------------------------------------


def hop_ids(graph: Graph, code, node: int, forward: bool = True) -> List[int]:
    """One application of ``code`` from ``node``: sorted successor IDs.

    The sorted order is what makes closure traversal deterministic
    across processes — ``triples_ids`` already enumerates each index in
    canonical ID order, and every set-building composite re-sorts.
    """
    op = code[0]
    if op == "edge":
        pid = code[1]
        if forward:
            return [o for (_s, _p, o) in graph.triples_ids(node, pid, None)]
        return [s for (s, _p, _o) in graph.triples_ids(None, pid, node)]
    if op == "inv":
        return hop_ids(graph, code[1], node, not forward)
    if op == "seq":
        steps = code[1] if forward else tuple(reversed(code[1]))
        current = {node}
        for step in steps:
            following: set = set()
            for member in current:
                following.update(hop_ids(graph, step, member, forward))
            if not following:
                return []
            current = following
        return sorted(current)
    if op == "alt":
        merged: set = set()
        for choice in code[1]:
            merged.update(hop_ids(graph, choice, node, forward))
        return sorted(merged)
    if op == "closure":
        # A closure nested *inside* another path step is evaluated
        # eagerly as one hop (like EXISTS, a bounded non-preemptible
        # island); top-level closures get the incremental BFS iterator.
        return sorted(_closure_set(graph, code, node, forward))
    raise SparqlEvalError(f"unknown lowered path op: {op!r}")


def _closure_set(graph: Graph, code, start: int, forward: bool) -> set:
    """Full reachability of a nested closure from ``start``, as a set."""
    _, inner, include_zero, max_one = code
    if max_one:
        reached = set(hop_ids(graph, inner, start, forward))
        if include_zero:
            reached.add(start)
        return reached
    reached = {start} if include_zero else set()
    visited = {start} if include_zero else set()
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for target in hop_ids(graph, inner, node, forward):
            if target in visited:
                continue
            visited.add(target)
            reached.add(target)
            frontier.append(target)
    return reached


# ----------------------------------------------------------------------
# Node enumeration (the ``?s p* ?o`` shape)
# ----------------------------------------------------------------------


def _is_graph_node(graph: Graph, id: int) -> bool:
    """Whether ``id`` occurs as a subject or object of any triple."""
    if next(graph.triples_ids(id, None, None), None) is not None:
        return True
    return next(graph.triples_ids(None, None, id), None) is not None


def _kind_counts(graph: Graph) -> List[int]:
    """Interned-term counts in kind order (URI, BNode, Literal)."""
    by_name = graph.dictionary.size_by_kind()
    return [by_name["uri"], by_name["bnode"], by_name["literal"]]


def iter_node_ids(graph: Graph) -> Iterator[int]:
    """All graph nodes (subjects and objects) in canonical ID order.

    Walks the dictionary ID range kind by kind and keeps the IDs that
    occur in at least one triple — an index probe per candidate instead
    of the full-scan node materialisation the pre-PR 8 kernel did.
    Runtime-interned query constants are never graph nodes, so two
    processes whose overlays differ still enumerate identically.
    """
    counts = _kind_counts(graph)
    for kind, count in enumerate(counts):
        base = kind * KIND_STRIDE
        for offset in range(count):
            id = base + offset
            if _is_graph_node(graph, id):
                yield id


# ----------------------------------------------------------------------
# Preemptable pair iterators
# ----------------------------------------------------------------------


def _identity(value):
    return value


class PairIterator:
    """Base of the preemptable ``(subject_id, object_id)`` sources.

    The protocol mirrors the physical layer in miniature:
    :meth:`next_pair` performs one bounded unit of work and returns a
    pair or ``None`` (progress without a result — a filtered candidate,
    a frontier expansion, an exhausted inner loop), ``done`` reports
    exhaustion, and :meth:`save`/:meth:`load` serialise the traversal
    state (frontiers, visited sets, cursors) as JSON-able data.

    ``save(enc)``/``load(state, dec)`` take optional codecs applied to
    every term ID in the state; the physical layer passes the token
    codecs so IDs minted into a process-local overlay cross process
    boundaries as portable term literals.

    ``distinct`` declares that the iterator can never emit the same
    pair twice; the builder adds one top-level dedup wrapper otherwise
    (pair-distinctness is the SPARQL path semantics).
    """

    kind = "pair"
    distinct = False

    def __init__(self):
        self.done = False
        #: ``(hops, peak_frontier, visited)`` carried over from
        #: sub-iterators this composite already discarded; see
        #: :func:`closure_stats`.
        self.spent_stats = (0, 0, 0)

    def _retire(self, child: Optional["PairIterator"]) -> None:
        """Fold a finished sub-iterator's BFS counters into this one."""
        hops, peak, visited = closure_stats(child)
        spent = self.spent_stats
        self.spent_stats = (
            spent[0] + hops,
            max(spent[1], peak),
            spent[2] + visited,
        )

    def next_pair(self) -> Optional[IdPair]:
        raise NotImplementedError

    def save(self, enc=_identity) -> dict:
        state = {"k": self.kind, "done": self.done}
        if self.spent_stats != (0, 0, 0):
            state["spent"] = list(self.spent_stats)
        state.update(self._save(enc))
        return state

    def load(self, state: dict, dec=_identity) -> None:
        if not isinstance(state, dict) or state.get("k") != self.kind:
            raise ValueError(
                f"path iterator state {state!r} does not fit {self.kind!r}"
            )
        self.done = bool(state.get("done"))
        self.spent_stats = tuple(state.get("spent", (0, 0, 0)))
        self._load(state, dec)

    def _save(self, enc) -> dict:
        return {}

    def _load(self, state: dict, dec) -> None:
        pass


class _EdgeIter(PairIterator):
    """Pairs of one predicate edge, endpoint-constrained index scan."""

    kind = "edge"
    distinct = True

    def __init__(self, graph: Graph, pid: int, subject, object):
        super().__init__()
        self.graph = graph
        self.pid = pid
        self.subject = subject
        self.object = object
        self._offset = 0
        self._scan = graph.triples_ids(subject, pid, object)

    def next_pair(self) -> Optional[IdPair]:
        row = next(self._scan, None)
        if row is None:
            self.done = True
            return None
        self._offset += 1
        return (row[0], row[2])

    def _save(self, enc) -> dict:
        return {"offset": self._offset}

    def _load(self, state: dict, dec) -> None:
        offset = int(state.get("offset", 0))
        self._scan = self.graph.triples_ids(self.subject, self.pid, self.object)
        for _ in range(offset):
            if next(self._scan, None) is None:
                break
        self._offset = offset


class _InvIter(PairIterator):
    """``^path``: iterate the inner path with swapped endpoints."""

    kind = "inv"

    def __init__(self, inner: PairIterator):
        super().__init__()
        self.inner = inner
        self.distinct = inner.distinct

    def next_pair(self) -> Optional[IdPair]:
        pair = self.inner.next_pair()
        if pair is None:
            self.done = self.inner.done
            return None
        return (pair[1], pair[0])

    def _save(self, enc) -> dict:
        return {"inner": self.inner.save(enc)}

    def _load(self, state: dict, dec) -> None:
        self.inner.load(state["inner"], dec)


class _SeqIter(PairIterator):
    """``p1/p2/...``: a nested loop, directed from the bound side.

    With the subject bound (or both endpoints free) the head step runs
    outermost and the tail sequence is instantiated per midpoint; with
    only the object bound the tail runs outermost (backward) and the
    head closes each midpoint.  Suspension state is the outer state,
    the current outer pair, and the inner state — the inner iterator is
    rebuilt from its midpoint on load.
    """

    kind = "seq"
    distinct = False

    def __init__(self, graph: Graph, codes, subject, object):
        super().__init__()
        if len(codes) < 2:
            raise SparqlEvalError("sequence path needs at least two steps")
        self.graph = graph
        self.codes = tuple(codes)
        self.subject = subject
        self.object = object
        self.forward = subject is not None or object is None
        if self.forward:
            self._outer = _build_raw(graph, codes[0], subject, None)
        else:
            self._outer = _build_seq_rest(graph, codes[1:], None, object)
        self._current: Optional[IdPair] = None
        self._inner: Optional[PairIterator] = None

    def _make_inner(self, mid: int) -> PairIterator:
        if self.forward:
            return _build_seq_rest(self.graph, self.codes[1:], mid, self.object)
        return _build_raw(self.graph, self.codes[0], None, mid)

    def next_pair(self) -> Optional[IdPair]:
        if self._inner is not None:
            pair = self._inner.next_pair()
            if pair is not None:
                if self.forward:
                    return (self._current[0], pair[1])
                return (pair[0], self._current[1])
            if self._inner.done:
                self._retire(self._inner)
                self._inner = None
                self._current = None
            return None
        if self._outer.done:
            self.done = True
            return None
        outer = self._outer.next_pair()
        if outer is None:
            return None
        self._current = outer
        # Forward: walk the tail from the midpoint; backward: find the
        # sources one head-hop before the midpoint.
        self._inner = self._make_inner(outer[1] if self.forward else outer[0])
        return None

    def _save(self, enc) -> dict:
        state = {"outer": self._outer.save(enc)}
        if self._current is not None:
            state["current"] = [enc(self._current[0]), enc(self._current[1])]
            state["inner"] = self._inner.save(enc)
        return state

    def _load(self, state: dict, dec) -> None:
        self._outer.load(state["outer"], dec)
        current = state.get("current")
        self._current = None
        self._inner = None
        if current is not None:
            self._current = (dec(current[0]), dec(current[1]))
            self._inner = self._make_inner(
                self._current[1] if self.forward else self._current[0]
            )
            self._inner.load(state["inner"], dec)


class _AltIter(PairIterator):
    """``p1|p2|...``: the choices, one after another."""

    kind = "alt"
    distinct = False

    def __init__(self, graph: Graph, codes, subject, object):
        super().__init__()
        self.graph = graph
        self.codes = tuple(codes)
        self.subject = subject
        self.object = object
        self._index = 0
        self._current: Optional[PairIterator] = self._build(0)

    def _build(self, index: int) -> Optional[PairIterator]:
        if index >= len(self.codes):
            return None
        return _build_raw(self.graph, self.codes[index], self.subject, self.object)

    def next_pair(self) -> Optional[IdPair]:
        if self._current is None:
            self.done = True
            return None
        pair = self._current.next_pair()
        if pair is not None:
            return pair
        if self._current.done:
            self._retire(self._current)
            self._index += 1
            self._current = self._build(self._index)
            if self._current is None:
                self.done = True
        return None

    def _save(self, enc) -> dict:
        state = {"index": self._index}
        if self._current is not None:
            state["current"] = self._current.save(enc)
        return state

    def _load(self, state: dict, dec) -> None:
        self._index = int(state.get("index", 0))
        self._current = self._build(self._index)
        if self._current is not None and "current" in state:
            self._current.load(state["current"], dec)


class _ClosureIter(PairIterator):
    """BFS reachability from one bound endpoint (``*``/``+``/``?``).

    The traversal state is fully explicit — a frontier deque, a visited
    set, and a discovered-but-unemitted buffer (the emit cursor) — so a
    token can carry a half-explored closure across processes.  Each
    ``next_pair()`` call expands at most one frontier node (one hop
    application, the bounded unit) or emits one buffered target.

    ``forward=False`` walks the path backwards (the object-bound
    shape); ``target`` filters and early-exits the both-endpoints-bound
    shape.  Zero-length paths relate a term to itself even when it
    occurs in no triple, per spec.
    """

    kind = "closure"
    distinct = True

    def __init__(
        self,
        graph: Graph,
        inner,
        start: int,
        include_zero: bool,
        max_one: bool,
        forward: bool = True,
        target: Optional[int] = None,
    ):
        super().__init__()
        self.graph = graph
        self.inner = inner
        self.start = start
        self.include_zero = include_zero
        self.max_one = max_one
        self.forward = forward
        self.target = target
        self._pending_zero = include_zero
        self._visited = {start} if include_zero else set()
        self._frontier = deque([start])
        self._buffer = deque()
        self.hops = 0
        self.peak_frontier = 1

    # -- emission -------------------------------------------------------

    def _emit(self, node: int) -> Optional[IdPair]:
        """The pair for a reached node, or ``None`` if filtered out."""
        if self.target is not None:
            if node != self.target:
                return None
            # Both endpoints bound: one pair can ever match; stop the
            # exploration as soon as reachability is established.
            self.done = True
            return (self.start, self.target)
        if self.forward:
            return (self.start, node)
        return (node, self.start)

    def _exhausted(self) -> None:
        self.done = True
        _PATH_VISITED.observe(len(self._visited))

    def next_pair(self) -> Optional[IdPair]:
        if self.done:
            return None
        if self._pending_zero:
            self._pending_zero = False
            return self._emit(self.start)
        if self._buffer:
            return self._emit(self._buffer.popleft())
        if not self._frontier:
            self._exhausted()
            return None
        node = self._frontier.popleft()
        self.hops += 1
        _PATH_HOPS.inc()
        for reached in hop_ids(self.graph, self.inner, node, self.forward):
            if reached in self._visited:
                continue
            self._visited.add(reached)
            self._buffer.append(reached)
            if not self.max_one:
                self._frontier.append(reached)
        if self.max_one:
            # ``p?`` applies the path once: nothing past the first hop.
            self._frontier.clear()
        peak = len(self._frontier)
        if peak > self.peak_frontier:
            self.peak_frontier = peak
        _PATH_FRONTIER.observe(peak)
        if self._buffer:
            return self._emit(self._buffer.popleft())
        if not self._frontier:
            self._exhausted()
        return None

    # -- suspension -----------------------------------------------------

    def _save(self, enc) -> dict:
        return {
            "start": enc(self.start),
            "zero": self._pending_zero,
            # Sorted for byte-stable tokens: the set's hash order is
            # process-local, its contents are not.
            "visited": [enc(id) for id in sorted(self._visited)],
            "frontier": [enc(id) for id in self._frontier],
            "buffer": [enc(id) for id in self._buffer],
            "hops": self.hops,
            "peak": self.peak_frontier,
        }

    def _load(self, state: dict, dec) -> None:
        self.start = dec(state["start"])
        self._pending_zero = bool(state.get("zero"))
        self._visited = {dec(id) for id in state.get("visited", [])}
        self._frontier = deque(dec(id) for id in state.get("frontier", []))
        self._buffer = deque(dec(id) for id in state.get("buffer", []))
        self.hops = int(state.get("hops", 0))
        self.peak_frontier = int(state.get("peak", 1))


class _FullClosureIter(PairIterator):
    """``?s p* ?o`` with both endpoints free: closure from every node.

    Ascends the dictionary ID range (:func:`iter_node_ids` shape, but
    with an explicit resumable cursor) and runs one bounded-step
    closure per graph node.  Emission is globally distinct because the
    per-node closures are distinct and each contributes a different
    subject.
    """

    kind = "all_nodes"
    distinct = True

    def __init__(self, graph: Graph, inner, include_zero: bool, max_one: bool):
        super().__init__()
        self.graph = graph
        self.inner = inner
        self.include_zero = include_zero
        self.max_one = max_one
        self._counts = _kind_counts(graph)
        self._kind = 0
        self._offset = 0
        self._closure: Optional[_ClosureIter] = None

    def _make_closure(self, node: int) -> _ClosureIter:
        return _ClosureIter(
            self.graph, self.inner, node, self.include_zero, self.max_one
        )

    def next_pair(self) -> Optional[IdPair]:
        if self._closure is not None:
            pair = self._closure.next_pair()
            if pair is not None:
                return pair
            if self._closure.done:
                self._retire(self._closure)
                self._closure = None
            return None
        for _ in range(NODE_PROBE_BATCH):
            while self._kind < 3 and self._offset >= self._counts[self._kind]:
                self._kind += 1
                self._offset = 0
            if self._kind >= 3:
                self.done = True
                return None
            id = self._kind * KIND_STRIDE + self._offset
            self._offset += 1
            if _is_graph_node(self.graph, id):
                self._closure = self._make_closure(id)
                return None
        return None

    def _save(self, enc) -> dict:
        state = {"cursor_kind": self._kind, "cursor_offset": self._offset}
        if self._closure is not None:
            state["closure"] = self._closure.save(enc)
        return state

    def _load(self, state: dict, dec) -> None:
        self._kind = int(state.get("cursor_kind", 0))
        self._offset = int(state.get("cursor_offset", 0))
        closure = state.get("closure")
        self._closure = None
        if closure is not None:
            # The start node is carried in the closure state itself.
            self._closure = self._make_closure(dec(closure["start"]))
            self._closure.load(closure, dec)


class _DistinctPairs(PairIterator):
    """Top-level pair dedup for compositions that can repeat a pair."""

    kind = "distinct"
    distinct = True

    def __init__(self, inner: PairIterator):
        super().__init__()
        self.inner = inner
        self._seen: set = set()

    def next_pair(self) -> Optional[IdPair]:
        pair = self.inner.next_pair()
        if pair is None:
            self.done = self.inner.done
            return None
        if pair in self._seen:
            return None
        self._seen.add(pair)
        return pair

    def _save(self, enc) -> dict:
        return {
            "inner": self.inner.save(enc),
            "seen": [[enc(s), enc(o)] for (s, o) in sorted(self._seen)],
        }

    def _load(self, state: dict, dec) -> None:
        self.inner.load(state["inner"], dec)
        self._seen = {(dec(s), dec(o)) for s, o in state.get("seen", [])}


def _build_seq_rest(graph: Graph, codes, subject, object) -> PairIterator:
    if len(codes) == 1:
        return _build_raw(graph, codes[0], subject, object)
    return _SeqIter(graph, codes, subject, object)


def _build_raw(graph: Graph, code, subject, object) -> PairIterator:
    """The iterator for one lowered path node (no dedup wrapper)."""
    op = code[0]
    if op == "edge":
        return _EdgeIter(graph, code[1], subject, object)
    if op == "inv":
        return _InvIter(_build_raw(graph, code[1], object, subject))
    if op == "seq":
        return _SeqIter(graph, code[1], subject, object)
    if op == "alt":
        return _AltIter(graph, code[1], subject, object)
    if op == "closure":
        _, inner, include_zero, max_one = code
        if subject is not None:
            return _ClosureIter(
                graph, inner, subject, include_zero, max_one,
                forward=True, target=object,
            )
        if object is not None:
            return _ClosureIter(
                graph, inner, object, include_zero, max_one, forward=False
            )
        return _FullClosureIter(graph, inner, include_zero, max_one)
    raise SparqlEvalError(f"unknown lowered path op: {op!r}")


def closure_stats(iterator: Optional[PairIterator]) -> Tuple[int, int, int]:
    """``(hops, peak_frontier, visited)`` summed over nested closures.

    Walks a pair-iterator tree and aggregates its live BFS counters;
    feeds the frontier detail line of ``EXPLAIN ANALYZE``.
    """
    if iterator is None:
        return (0, 0, 0)
    if isinstance(iterator, _ClosureIter):
        return (iterator.hops, iterator.peak_frontier, len(iterator._visited))
    parts = []
    if isinstance(iterator, (_InvIter, _DistinctPairs)):
        parts = [iterator.inner]
    elif isinstance(iterator, _SeqIter):
        parts = [iterator._outer, iterator._inner]
    elif isinstance(iterator, _AltIter):
        parts = [iterator._current]
    elif isinstance(iterator, _FullClosureIter):
        parts = [iterator._closure]
    hops, peak, visited = iterator.spent_stats
    for part in parts:
        h, p, v = closure_stats(part)
        hops += h
        peak = max(peak, p)
        visited += v
    return (hops, peak, visited)


def _shape(subject, object) -> str:
    if subject is not None and object is not None:
        return "both_bound"
    if subject is not None:
        return "forward"
    if object is not None:
        return "backward"
    return "unbound"


def build_pair_iterator(graph: Graph, code, subject, object) -> PairIterator:
    """The preemptable, distinct pair source for a lowered path.

    ``subject``/``object`` are term IDs or ``None`` for unconstrained;
    the returned iterator emits each matching ``(s_id, o_id)`` pair
    exactly once, in a deterministic order shared by every store
    holding the same triples.
    """
    _PATH_SCANS.labels(shape=_shape(subject, object)).inc()
    iterator = _build_raw(graph, code, subject, object)
    if not iterator.distinct:
        iterator = _DistinctPairs(iterator)
    return iterator


# ----------------------------------------------------------------------
# Term-space wrappers
# ----------------------------------------------------------------------


def eval_path(
    graph: Graph,
    subject: Optional[Term],
    path: Path,
    object: Optional[Term],
) -> Iterator[Pair]:
    """Yield distinct (s, o) term pairs connected by ``path``.

    ``subject`` / ``object`` of None mean unconstrained; bound endpoints
    restrict (and direct) the search.  A thin decode loop over the
    ID-space pair iterators the physical
    :class:`~repro.sparql.physical.ppath.PathScanOp` drives, so both
    walk paths identically (rows *and* order).
    """
    dictionary = graph.dictionary
    code = lower_path(path, dictionary.lookup)
    s = None if subject is None else dictionary.encode(subject)
    o = None if object is None else dictionary.encode(object)
    iterator = build_pair_iterator(graph, code, s, o)
    decode = dictionary.decode
    while not iterator.done:
        pair = iterator.next_pair()
        if pair is not None:
            yield (decode(pair[0]), decode(pair[1]))


def path_hop(
    graph: Graph, node: Term, path: Path, forward: bool = True
) -> List[Term]:
    """One application of ``path`` from ``node``, in canonical ID order.

    Returns an ordered list (pre-PR 8 this was an unordered set, which
    made resumed traversals irreproducible across processes).
    """
    dictionary = graph.dictionary
    code = lower_path(path, dictionary.lookup)
    decode = dictionary.decode
    return [
        decode(id)
        for id in hop_ids(graph, code, dictionary.encode(node), forward)
    ]
