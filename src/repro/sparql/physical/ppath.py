"""The preemptable property-path scan.

:class:`PathScanOp` is the path-predicate sibling of
:class:`~repro.sparql.physical.scan.PatternScanOp`: one stage of the
BGP index-nested-loop join whose predicate position is a
:class:`~repro.sparql.ast.PathExpr` rather than a term.  The path is
lowered once per plan instantiation into ID-space hop primitives
(:func:`repro.sparql.paths.lower_path`) and, for each outer binding, a
preemptable pair iterator (:func:`repro.sparql.paths.build_pair_iterator`)
walks the graph — closures as an explicit breadth-first search over int
frontiers with one frontier expansion per pull.

Unlike the flat scan, suspension does **not** save a skip-ahead offset
over a regenerated stream (quadratic on resume, and meaningless for a
traversal): ``save()`` serialises the iterator's actual state — BFS
frontier, visited set (sorted), emit buffer, cursors — through the
token codecs, so a half-explored closure resumes in O(1) and, because
every hop emits in canonical sorted-ID order, resumes *byte-identically*
on any pool worker mapping the same snapshot.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ast import TriplePatternNode, Var
from ..functions import Binding
from ..paths import build_pair_iterator, closure_stats, lower_path
from .base import (
    BLOCK,
    PhysicalOperator,
    _check_ids,
    _value_from_json,
    _value_to_json,
    decode_binding,
    encode_binding,
)

__all__ = ["PathScanOp"]


class PathScanOp(PhysicalOperator):
    """One BGP join stage over a property-path predicate.

    For every binding produced by ``child``, resolves the endpoint
    positions to term IDs (bound variable → its ID, constant → interned
    ID, free variable → unconstrained) and drives a pair iterator for
    the lowered path, merging each emitted ``(s, o)`` ID pair into the
    binding.  ``pre_filters``/``post_filters`` behave exactly as on the
    flat scan, and so does stats accounting (one ``pattern_scans`` per
    outer binding, one ``intermediate_bindings`` per merged pair).
    """

    label = "PathScan"

    def __init__(self, runtime, child, pattern: TriplePatternNode,
                 pre_filters=(), post_filters=()):
        super().__init__(runtime)
        self.child = child
        self.pattern = pattern
        self.pre_filters = tuple(pre_filters)
        self.post_filters = tuple(post_filters)
        self.code = lower_path(pattern.predicate, runtime.dictionary.lookup)
        self._current: Optional[Binding] = None
        self._pairs = None
        # Cumulative frontier counters over exhausted iterators; the
        # live iterator's are added on read (EXPLAIN ANALYZE detail).
        self._hops = 0
        self._peak_frontier = 0
        self._visited = 0

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def detail(self) -> str:
        text = str(self.pattern)
        extras = []
        hops, peak, visited = self.frontier_stats()
        if hops or peak or visited:
            extras.append(
                f"hops={hops} peak_frontier={peak} visited={visited}"
            )
        if self.pre_filters:
            extras.append(f"+{len(self.pre_filters)} guards")
        if self.post_filters:
            extras.append(f"+{len(self.post_filters)} inline filters")
        return text + (" " + " ".join(extras) if extras else "")

    def frontier_stats(self):
        """``(hops, peak_frontier, visited)``: finished + live traversals."""
        hops, peak, visited = closure_stats(self._pairs)
        return (
            self._hops + hops,
            max(self._peak_frontier, peak),
            self._visited + visited,
        )

    # -- scanning -------------------------------------------------------

    def _endpoint_id(self, term, binding: Binding):
        """Endpoint position → pair-iterator argument (ID or ``None``).

        Constants are *interned*, not looked up: a zero-length path
        relates a term to itself even when no triple mentions it, so an
        unknown constant must still get an ID the closure can emit.
        """
        if isinstance(term, Var):
            return binding.get(term.name)
        return self.runtime.dictionary.encode(term)

    def _start_path(self, binding: Binding) -> None:
        self._current = binding
        self.runtime.stats.pattern_scans += 1
        self._pairs = build_pair_iterator(
            self.runtime.graph,
            self.code,
            self._endpoint_id(self.pattern.subject, binding),
            self._endpoint_id(self.pattern.object, binding),
        )

    def _finish_path(self) -> None:
        hops, peak, visited = closure_stats(self._pairs)
        self._hops += hops
        self._peak_frontier = max(self._peak_frontier, peak)
        self._visited += visited
        self._pairs = None
        self._current = None

    def _extend(self, pair) -> Optional[Binding]:
        binding = dict(self._current)
        for term, value in (
            (self.pattern.subject, pair[0]),
            (self.pattern.object, pair[1]),
        ):
            if isinstance(term, Var):
                existing = binding.get(term.name)
                if existing is None:
                    binding[term.name] = value
                elif existing != value:
                    return None
        return binding

    def _next(self, limit: int) -> List[Binding]:
        out: List[Binding] = []
        for _ in range(BLOCK):  # pair-iterator steps + outer rows pulled
            if self._pairs is not None:
                if self._pairs.done:
                    self._finish_path()
                    continue
                pair = self._pairs.next_pair()
                if pair is None:
                    # Progress without a result — a frontier expansion,
                    # a filtered candidate.  Bounded, so fall through to
                    # the next slot rather than spinning the full
                    # traversal inside one call.
                    continue
                row = self._extend(pair)
                if row is None:
                    continue
                self.runtime.stats.intermediate_bindings += 1
                if _check_ids(self.post_filters, row, self.runtime):
                    out.append(row)
                    if len(out) >= limit:
                        break
                continue
            if self.child.done:
                self.done = True
                break
            # One outer row at a time: the traversal state saved with
            # the token belongs to exactly one current outer row.
            outer = self.child.next(1)
            if not outer:
                break
            if self.pre_filters and not _check_ids(
                self.pre_filters, outer[0], self.runtime
            ):
                continue
            self._start_path(outer[0])
        return out

    # -- suspension -----------------------------------------------------

    def _save(self) -> Dict:
        runtime = self.runtime
        state = {
            "child": self.child.save(),
            "current": (
                encode_binding(self._current, runtime)
                if self._current is not None
                else None
            ),
            "hops": self._hops,
            "peak": self._peak_frontier,
            "visited": self._visited,
        }
        if self._pairs is not None:
            state["path"] = self._pairs.save(
                lambda id: _value_to_json(id, runtime)
            )
        return state

    def _load(self, state: Dict) -> None:
        self.child.load(state["child"])
        runtime = self.runtime
        self._hops = int(state.get("hops", 0))
        self._peak_frontier = int(state.get("peak", 0))
        self._visited = int(state.get("visited", 0))
        current = state.get("current")
        self._current = None
        self._pairs = None
        if current is not None:
            binding = decode_binding(current, runtime)
            self._start_path(binding)
            # _start_path re-bills the scan; resume must not double-count.
            runtime.stats.pattern_scans -= 1
            path_state = state.get("path")
            if path_state is not None:
                self._pairs.load(
                    path_state, lambda blob: _value_from_json(blob, runtime)
                )
