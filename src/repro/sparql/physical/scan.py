"""Leaf operators: the unit table, inline VALUES, and the index
nested-loop pattern scan that anchors every BGP."""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Tuple

from ...rdf.graph import SCAN_ORDER
from ..ast import TriplePatternNode, Var
from ..functions import Binding
from .base import (
    BLOCK,
    PhysicalOperator,
    _check,
    _check_ids,
    decode_binding,
    encode_binding,
)

__all__ = ["SingletonOp", "ValuesOp", "PatternScanOp"]


class SingletonOp(PhysicalOperator):
    """The unit table: one empty solution (guarded by var-free filters)."""

    label = "Singleton"

    def __init__(self, runtime, guards=()):
        super().__init__(runtime)
        self.guards = tuple(guards)
        self._emitted = False

    def clustered_on(self) -> Tuple[str, ...]:
        return ()  # at most one row, binding nothing

    def _next(self, limit: int) -> List[Binding]:
        self.done = True
        if self._emitted:
            return []
        self._emitted = True
        if not _check(self.guards, {}, self.runtime):
            return []
        return [{}]

    def _save(self) -> Dict:
        return {"emitted": self._emitted}

    def _load(self, state: Dict) -> None:
        self._emitted = bool(state.get("emitted"))


class ValuesOp(PhysicalOperator):
    """An inline VALUES table."""

    label = "Values"

    def __init__(self, runtime, variables, rows):
        super().__init__(runtime)
        self.variables = list(variables)
        # VALUES data arrives as term objects from the algebra; intern it
        # once so emitted bindings are in ID space like every other row.
        encode = runtime.dictionary.encode
        self.rows = [
            [None if value is None else encode(value) for value in row]
            for row in rows
        ]
        self._offset = 0

    def detail(self) -> str:
        names = " ".join(f"?{var.name}" for var in self.variables)
        return f"{len(self.rows)} rows over {names}"

    def _next(self, limit: int) -> List[Binding]:
        rows = self.rows[self._offset:self._offset + limit]
        self._offset += len(rows)
        if self._offset >= len(self.rows):
            self.done = True
        self.runtime.stats.intermediate_bindings += len(rows)
        return [
            {
                var.name: value
                for var, value in zip(self.variables, row)
                if value is not None
            }
            for row in rows
        ]

    def _save(self) -> Dict:
        return {"offset": self._offset}

    def _load(self, state: Dict) -> None:
        self._offset = int(state.get("offset", 0))


class PatternScanOp(PhysicalOperator):
    """One stage of the BGP index-nested-loop join.

    For every binding produced by ``child``, instantiates the triple
    pattern and scans the graph indexes, merging consistent matches.
    Path predicates compile to the preemptable
    :class:`~repro.sparql.physical.ppath.PathScanOp` instead — this
    operator only ever sees term predicates.  ``post_filters`` are the BGP filters
    the optimizer pushed to this join depth; ``pre_filters`` (first
    stage only) guard the incoming binding before any scan is issued.

    Suspension state is the child's state plus the current outer
    binding and the number of candidates consumed from its scan; resume
    re-issues the scan and skips that many candidates, which is exact
    for an unchanged graph within one process.
    """

    label = "PatternScan"

    def __init__(self, runtime, child, pattern: TriplePatternNode,
                 pre_filters=(), post_filters=()):
        super().__init__(runtime)
        self.child = child
        self.pattern = pattern
        self.pre_filters = tuple(pre_filters)
        self.post_filters = tuple(post_filters)
        # Per position: (variable name, None) or (None, constant ID).  A
        # constant the dictionary has never interned becomes the
        # impossible ID ``-1``, which matches nothing but still routes
        # through the normal index branch (identical lookup metrics).
        self._slots = tuple(self._slot(term) for term in pattern)
        self._current: Optional[Binding] = None
        self._matches = None
        self._offset = 0
        self._open: List = []  # (variable, position) a candidate fills
        self._repeats: List = []  # position pairs that must agree

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def detail(self) -> str:
        text = str(self.pattern)
        extras = []
        if self.pre_filters:
            extras.append(f"+{len(self.pre_filters)} guards")
        if self.post_filters:
            extras.append(f"+{len(self.post_filters)} inline filters")
        return text + (" " + " ".join(extras) if extras else "")

    def clustered_on(self) -> Optional[Tuple[str, ...]]:
        """Child order, then this scan's open variables in index order.

        Per outer row the store yields matches strictly increasing in
        the open positions (:data:`~repro.rdf.graph.SCAN_ORDER`) and the
        filters only drop rows; a child that claims nothing may repeat
        an outer row, and then so do we.
        """
        keyed = self.child.clustered_on()
        if keyed is None:
            return None
        names = [name for name, _ in self._slots]
        # The child binds exactly ``keyed`` in every row, so the shape of
        # the scans is known without running one.
        shape = tuple(name is None or name in keyed for name in names)
        # A variable repeated among the open positions sorts where it
        # first appears.
        opened = dict.fromkeys(names[position] for position in SCAN_ORDER[shape])
        return keyed + tuple(opened)

    # -- scanning -------------------------------------------------------

    def _slot(self, term):
        if isinstance(term, Var):
            return term.name, None
        id = self.runtime.dictionary.lookup(term)
        return None, -1 if id is None else id

    def _start_scan(self, binding: Binding) -> None:
        """Issue the index scan for one outer binding.

        A variable resolves to its bound ID, or to ``None`` (wildcard)
        and an *open* position the candidates fill in.  A variable the
        binding fixes is part of the index key, so every candidate
        already agrees with it; only a variable repeated among the open
        positions needs a per-candidate check.
        """
        self._current = binding
        self._offset = 0
        self.runtime.stats.pattern_scans += 1
        args = []
        self._open = []
        self._repeats = []
        for position, (name, constant) in enumerate(self._slots):
            if name is None:
                args.append(constant)
                continue
            value = binding.get(name)
            args.append(value)
            if value is None:
                for seen, first in self._open:
                    if seen == name:
                        self._repeats.append((first, position))
                        break
                else:
                    self._open.append((name, position))
        self._matches = self.runtime.graph.triples_ids(*args)

    def _extend(self, candidates) -> List[Binding]:
        """Merge a candidate slice into the current outer binding."""
        current = self._current
        for first, again in self._repeats:
            candidates = [c for c in candidates if c[first] == c[again]]
        open_positions = self._open
        if len(open_positions) == 1:
            ((a, i),) = open_positions
            return [{**current, a: c[i]} for c in candidates]
        if len(open_positions) == 2:
            (a, i), (b, j) = open_positions
            return [{**current, a: c[i], b: c[j]} for c in candidates]
        if open_positions:
            (a, i), (b, j), (d, k) = open_positions
            return [{**current, a: c[i], b: c[j], d: c[k]} for c in candidates]
        return [dict(current) for _ in candidates]

    def _next(self, limit: int) -> List[Binding]:
        out: List[Binding] = []
        budget = BLOCK  # candidates examined + outer rows pulled
        while budget > 0:
            if self._matches is not None:
                # Never more candidates than rows still wanted: each
                # yields at most one row, so the block cannot overshoot
                # and the saved offset is exactly "everything examined".
                want = min(limit - len(out), budget)
                candidates = list(islice(self._matches, want))
                budget -= len(candidates) or 1
                self._offset += len(candidates)
                rows = self._extend(candidates)
                self.runtime.stats.intermediate_bindings += len(rows)
                if self.post_filters:
                    rows = [
                        row for row in rows
                        if _check_ids(self.post_filters, row, self.runtime)
                    ]
                out += rows
                if len(candidates) < want:  # this outer row is done
                    self._matches = None
                    self._current = None
                if len(out) >= limit:
                    break
                continue
            if self.child.done:
                self.done = True
                break
            # One outer row at a time: the resume state is "current
            # outer row + offset", so no second outer row may be held.
            outer = self.child.next(1)
            budget -= 1
            if not outer:
                break
            if self.pre_filters and not _check_ids(
                self.pre_filters, outer[0], self.runtime
            ):
                continue
            self._start_scan(outer[0])
        return out

    # -- suspension -----------------------------------------------------

    def _save(self) -> Dict:
        # Between outer rows the offset means nothing (load drops it):
        # saved as 0, so a restored plan and the live one it was saved
        # from mint the same token.
        if self._current is None:
            return {"child": self.child.save(), "current": None, "offset": 0}
        return {
            "child": self.child.save(),
            "current": encode_binding(self._current, self.runtime),
            "offset": self._offset,
        }

    def _load(self, state: Dict) -> None:
        self.child.load(state["child"])
        current = state.get("current")
        self._current = None
        self._matches = None
        self._offset = 0
        if current is not None:
            binding = decode_binding(current, self.runtime)
            offset = int(state.get("offset", 0))
            self._start_scan(binding)
            # _start_scan re-bills the scan; resume must not double-count.
            self.runtime.stats.pattern_scans -= 1
            next(islice(self._matches, offset, offset), None)  # skip
            self._offset = offset
