"""Stream combinators: hash join, left-outer join (OPTIONAL), MINUS,
and UNION — all over encoded (term-ID) rows."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...obs.metrics import REGISTRY
from ..functions import Binding
from .base import (
    BLOCK,
    PhysicalOperator,
    PlanStateError,
    _check_ids,
    decode_binding,
    encode_binding,
)

__all__ = ["HashJoinOp", "LeftJoinOp", "MinusOp", "UnionOp"]

_JOIN_STRATEGY_TOTAL = REGISTRY.counter(
    "repro_eval_join_strategy_total",
    "Binary join executions by chosen strategy",
    labelnames=("strategy",),
)
_JOIN_HASH = _JOIN_STRATEGY_TOTAL.labels(strategy="hash")
_JOIN_PRODUCT = _JOIN_STRATEGY_TOTAL.labels(strategy="product")


def _compatible(left: Binding, right: Binding) -> bool:
    for name, value in right.items():
        bound = left.get(name)
        if bound is not None and bound != value:
            return False
    return True


def _merge(left: Binding, right: Binding) -> Binding:
    merged = dict(left)
    merged.update(right)
    return merged


def _binding_key(binding: Binding, names: Tuple[str, ...]) -> Tuple:
    return tuple(binding.get(name) for name in names)


class UnionOp(PhysicalOperator):
    """Branches evaluated in order, concatenated."""

    label = "Union"

    def __init__(self, runtime, branches):
        super().__init__(runtime)
        self.branches = list(branches)
        self._index = 0

    def children(self) -> List[PhysicalOperator]:
        return list(self.branches)

    def detail(self) -> str:
        return f"{len(self.branches)} branches"

    def _next(self, limit: int) -> List[Binding]:
        while self._index < len(self.branches):
            branch = self.branches[self._index]
            if branch.done:
                self._index += 1
                continue
            rows = branch.next(limit)
            self.runtime.stats.intermediate_bindings += len(rows)
            return rows
        self.done = True
        return []

    def _save(self) -> Dict:
        return {
            "index": self._index,
            "branches": [branch.save() for branch in self.branches],
        }

    def _load(self, state: Dict) -> None:
        self._index = int(state.get("index", 0))
        saved = state.get("branches", ())
        if len(saved) != len(self.branches):
            raise PlanStateError("union branch count mismatch")
        for branch, blob in zip(self.branches, saved):
            branch.load(blob)


def _next_left_row(join) -> Optional[Binding]:
    """A join's next left row — the peeked one first — or ``None``.

    One row at a time: joins look at a single left row before touching
    the right subtree (an empty left never evaluates it), and a probe's
    resume state is "current probe row + bucket offset", so a second
    probe row is never held.  ``None`` means no row this call;
    ``join.done`` is set once ``left`` is dry.
    """
    row = join._pending
    if row is not None:
        join._pending = None
        return row
    if not join.left.done:
        rows = join.left.next(1)
        if rows:
            return rows[0]
    if join.left.done:
        join.done = True
    return None


class HashJoinOp(PhysicalOperator):
    """Hash join: build the right side, stream the left (probe) side.

    Phases: ``peek`` pulls the first left row (so an empty left never
    evaluates the right subtree), ``build`` drains the right side into
    buckets in bounded chunks, and ``probe`` streams the left.  With no
    key variables the single ``()`` bucket holds every right row and the
    join degrades to a product guarded by the compatibility check.  Because the probe side streams,
    a ``Slice`` ancestor bounds how much of the left subtree is ever
    scanned.
    """

    label = "HashJoin"

    def __init__(self, runtime, left, right, keys: Tuple[str, ...]):
        super().__init__(runtime)
        self.left = left
        self.right = right
        self.keys = tuple(keys)
        self._phase = "peek"
        self._pending: Optional[Binding] = None  # peeked first left row
        self._table: Dict[Tuple, List[Binding]] = {}
        self._build_rows = 0
        self._probe: Optional[Binding] = None
        self._bucket: List[Binding] = []
        self._bucket_index = 0

    def children(self) -> List[PhysicalOperator]:
        return [self.left, self.right]

    def detail(self) -> str:
        if self.keys:
            return "on " + " ".join(f"?{name}" for name in self.keys)
        return "product (no certain shared variables)"

    def _next(self, limit: int) -> List[Binding]:
        if self._phase == "peek":
            self._pending = _next_left_row(self)
            if self._pending is not None:
                self._phase = "build"
            return []
        if self._phase == "build":
            if self.right.done:
                self._phase = "probe"
                (_JOIN_HASH if self.keys else _JOIN_PRODUCT).inc()
                if not self._build_rows:
                    self.done = True
                return []
            rows = self.right.next(BLOCK)
            for row in rows:
                self._table.setdefault(
                    _binding_key(row, self.keys), []
                ).append(row)
            self._build_rows += len(rows)
            return []
        # probe
        out: List[Binding] = []
        budget = BLOCK  # bucket entries examined + left rows pulled
        while budget > 0:
            probe = self._probe
            if probe is not None:
                start = self._bucket_index
                rights = self._bucket[
                    start:start + min(limit - len(out), budget)
                ]
                if rights:
                    budget -= len(rights)
                    self._bucket_index = start + len(rights)
                    out += [
                        _merge(probe, right)
                        for right in rights
                        if _compatible(probe, right)
                    ]
                    if len(out) >= limit:
                        break
                    continue
                self._probe = None
            row = _next_left_row(self)
            budget -= 1
            if row is None:
                break
            self._probe = row
            self._bucket = self._table.get(_binding_key(row, self.keys), [])
            self._bucket_index = 0
        self.runtime.stats.intermediate_bindings += len(out)
        return out

    def _save(self) -> Dict:
        return {
            "phase": self._phase,
            "left": self.left.save(),
            "right": self.right.save(),
            "pending": (
                encode_binding(self._pending, self.runtime)
                if self._pending is not None
                else None
            ),
            "table": [
                encode_binding(row, self.runtime)
                for bucket in self._table.values()
                for row in bucket
            ],
            "probe": (
                encode_binding(self._probe, self.runtime)
                if self._probe is not None
                else None
            ),
            "bucket_index": self._bucket_index,
        }

    def _load(self, state: Dict) -> None:
        self.left.load(state["left"])
        self.right.load(state["right"])
        self._phase = state.get("phase", "peek")
        pending = state.get("pending")
        self._pending = decode_binding(pending, self.runtime) if pending is not None else None
        self._table = {}
        self._build_rows = 0
        for blob in state.get("table", ()):
            row = decode_binding(blob, self.runtime)
            self._table.setdefault(_binding_key(row, self.keys), []).append(row)
            self._build_rows += 1
        probe = state.get("probe")
        self._probe = decode_binding(probe, self.runtime) if probe is not None else None
        self._bucket = (
            self._table.get(_binding_key(self._probe, self.keys), [])
            if self._probe is not None
            else []
        )
        self._bucket_index = int(state.get("bucket_index", 0))


class LeftJoinOp(PhysicalOperator):
    """OPTIONAL: hash left-outer join with an optional join condition."""

    label = "LeftJoin"

    def __init__(self, runtime, left, right, keys: Tuple[str, ...], condition=None):
        super().__init__(runtime)
        self.left = left
        self.right = right
        self.keys = tuple(keys)
        self.condition = condition
        self._phase = "peek"
        self._pending: Optional[Binding] = None
        self._table: Dict[Tuple, List[Binding]] = {}
        self._all_rows: List[Binding] = []
        self._probe: Optional[Binding] = None
        self._bucket: List[Binding] = []
        self._bucket_index = 0
        self._matched = False

    def children(self) -> List[PhysicalOperator]:
        return [self.left, self.right]

    def detail(self) -> str:
        base = (
            "on " + " ".join(f"?{name}" for name in self.keys)
            if self.keys
            else "unkeyed"
        )
        return base + (" with condition" if self.condition is not None else "")

    def _bucket_for(self, row: Binding) -> List[Binding]:
        if self.keys:
            return self._table.get(_binding_key(row, self.keys), [])
        return self._all_rows

    def _next(self, limit: int) -> List[Binding]:
        if self._phase == "peek":
            self._pending = _next_left_row(self)
            if self._pending is not None:
                self._phase = "build"
            return []
        if self._phase == "build":
            if self.right.done:
                self._phase = "probe"
                return []
            rows = self.right.next(BLOCK)
            self._all_rows += rows
            if self.keys:
                for row in rows:
                    self._table.setdefault(
                        _binding_key(row, self.keys), []
                    ).append(row)
            return []
        # probe
        out: List[Binding] = []
        budget = BLOCK  # bucket entries examined + left rows pulled
        while budget > 0 and len(out) < limit:
            budget -= 1
            probe = self._probe
            if probe is not None:
                if self._bucket_index < len(self._bucket):
                    right = self._bucket[self._bucket_index]
                    self._bucket_index += 1
                    if not _compatible(probe, right):
                        continue
                    merged = _merge(probe, right)
                    if self.condition is not None and not _check_ids(
                        (self.condition,), merged, self.runtime
                    ):
                        continue
                    self._matched = True
                    out.append(merged)
                    continue
                self._probe = None
                if not self._matched:
                    out.append(dict(probe))
                continue
            row = _next_left_row(self)
            if row is None:
                break
            self._probe = row
            self._bucket = self._bucket_for(row)
            self._bucket_index = 0
            self._matched = False
        self.runtime.stats.intermediate_bindings += len(out)
        return out

    def _save(self) -> Dict:
        return {
            "phase": self._phase,
            "left": self.left.save(),
            "right": self.right.save(),
            "pending": (
                encode_binding(self._pending, self.runtime)
                if self._pending is not None
                else None
            ),
            "rows": [
                encode_binding(row, self.runtime)
                for row in self._all_rows
            ],
            "probe": (
                encode_binding(self._probe, self.runtime)
                if self._probe is not None
                else None
            ),
            "bucket_index": self._bucket_index,
            "matched": self._matched,
        }

    def _load(self, state: Dict) -> None:
        self.left.load(state["left"])
        self.right.load(state["right"])
        self._phase = state.get("phase", "peek")
        pending = state.get("pending")
        self._pending = decode_binding(pending, self.runtime) if pending is not None else None
        self._all_rows = [
            decode_binding(blob, self.runtime)
            for blob in state.get("rows", ())
        ]
        self._table = {}
        if self.keys:
            for row in self._all_rows:
                self._table.setdefault(
                    _binding_key(row, self.keys), []
                ).append(row)
        probe = state.get("probe")
        self._probe = decode_binding(probe, self.runtime) if probe is not None else None
        self._bucket = self._bucket_for(self._probe) if self._probe is not None else []
        self._bucket_index = int(state.get("bucket_index", 0))
        self._matched = bool(state.get("matched"))


class MinusOp(PhysicalOperator):
    """MINUS: materialise the right side, stream and filter the left."""

    label = "Minus"

    def __init__(self, runtime, left, right):
        super().__init__(runtime)
        self.left = left
        self.right = right
        self._phase = "build"
        self._rows: List[Binding] = []

    def children(self) -> List[PhysicalOperator]:
        return [self.left, self.right]

    def _next(self, limit: int) -> List[Binding]:
        if self._phase == "build":
            if self.right.done:
                self._phase = "probe"
            else:
                self._rows += self.right.next(BLOCK)
            return []
        if self.left.done:
            self.done = True
            return []
        # A left row passes or is dropped on its own — no per-row resume
        # state — so the streaming side comes a block at a time.
        lefts = self.left.next(limit)
        if not lefts and self.left.done:
            self.done = True
        out = [left for left in lefts if not self._excluded(left)]
        self.runtime.stats.intermediate_bindings += len(out)
        return out

    def _excluded(self, left: Binding) -> bool:
        for right in self._rows:
            shared = left.keys() & right.keys()
            if shared and all(left[name] == right[name] for name in shared):
                return True
        return False

    def _save(self) -> Dict:
        return {
            "phase": self._phase,
            "left": self.left.save(),
            "right": self.right.save(),
            "rows": [
                encode_binding(row, self.runtime) for row in self._rows
            ],
        }

    def _load(self, state: Dict) -> None:
        self.left.load(state["left"])
        self.right.load(state["right"])
        self._phase = state.get("phase", "build")
        self._rows = [
            decode_binding(blob, self.runtime)
            for blob in state.get("rows", ())
        ]
