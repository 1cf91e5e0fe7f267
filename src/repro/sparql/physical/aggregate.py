"""Blocking analytics: GROUP BY aggregation, full sorts, and the
bounded-heap top-k that backs fused ORDER BY ... LIMIT."""

from __future__ import annotations

import base64
import heapq
import json
from collections import deque
from itertools import chain
from operator import itemgetter
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import ExpressionError
from ..functions import (
    Binding,
    _numeric_literal,
    _numeric_value,
    _string_value,
    effective_boolean_value,
    evaluate_expression,
    extreme_order_key,
    term_order_key,
)
from ...obs.metrics import REGISTRY
from ...rdf.terms import Literal, Term
from .base import (
    BLOCK,
    PhysicalOperator,
    PlanStateError,
    _UnaryOp,
    _decode_opt_term,
    _decode_row,
    _encode_opt_term,
    _encode_value,
    _execution_memo,
    decode_binding,
    encode_binding,
)

__all__ = ["AggregationOp", "OrderByOp", "TopKOp"]


#: ``id -> number`` memo entry for a term that is not a numeric literal.
_NOT_A_NUMBER = object()


class _StreamingAgg:
    """One aggregate folded incrementally, in member order.

    Mirrors :func:`repro.sparql.functions.evaluate_aggregate` exactly
    for the non-DISTINCT aggregates — same skip-on-error semantics per
    member, same ``extreme_order_key`` ranking for MIN/MAX (the
    extreme does not depend on member order), same left-to-right float
    addition for SUM/AVG — so a group folded one member at a time produces the same
    term the batch evaluation of its member list would.  The point is
    state: a fold suspends as O(1) accumulator fields where the batch
    path must serialise every member row into the continuation token.
    """

    __slots__ = ("agg", "count", "total", "best", "best_key", "parts", "bad")

    SUPPORTED = ("COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT")

    def __init__(self, agg):
        self.agg = agg
        self.count = 0
        self.total: object = 0
        self.best: Optional[Term] = None
        self.best_key = None
        self.parts: Optional[str] = None
        self.bad = False  # a member value poisoned SUM/AVG/GROUP_CONCAT

    @staticmethod
    def supports(expression) -> bool:
        from ..ast import AggregateExpr

        return (
            isinstance(expression, AggregateExpr)
            and not expression.distinct
            and expression.name in _StreamingAgg.SUPPORTED
        )

    def absorb(self, member_terms: Binding) -> None:
        name = self.agg.name
        if self.agg.argument is None:  # COUNT(*)
            self.count += 1
            return
        try:
            value = evaluate_expression(self.agg.argument, member_terms)
        except ExpressionError:
            return  # batch parity: erroring members contribute no value
        if name == "COUNT":
            self.count += 1
        elif name == "SAMPLE":
            if self.best is None:
                self.best = value
        elif name in ("MIN", "MAX"):
            key = extreme_order_key(value)
            if (
                self.best is None
                or (key < self.best_key if name == "MIN" else key > self.best_key)
            ):
                self.best, self.best_key = value, key
        elif name == "GROUP_CONCAT":
            if self.bad:
                return
            try:
                text = _string_value(value)
            except ExpressionError:
                self.bad = True
                return
            if self.parts is None:
                self.parts = text
            else:
                self.parts += self.agg.separator + text
        else:  # SUM / AVG
            if self.bad:
                return
            try:
                number = _numeric_value(value)
            except ExpressionError:
                self.bad = True
                return
            self.total = self.total + number
            self.count += 1

    def result(self) -> Term:
        name = self.agg.name
        if name == "COUNT":
            return _numeric_literal(self.count)
        if name == "SAMPLE":
            if self.best is None:
                raise ExpressionError("SAMPLE of empty group")
            return self.best
        if name == "GROUP_CONCAT":
            if self.bad:
                raise ExpressionError("GROUP_CONCAT over a non-string value")
            return Literal(self.parts if self.parts is not None else "")
        if name in ("MIN", "MAX"):
            if self.best is None:
                raise ExpressionError(f"{name} of empty group")
            return self.best
        if self.bad:
            raise ExpressionError(f"{name} over a non-numeric value")
        if name == "SUM":
            return _numeric_literal(self.total)
        if self.count == 0:
            raise ExpressionError("AVG of empty group")
        return _numeric_literal(self.total / self.count)

    def save(self) -> Dict:
        return {
            "count": self.count,
            "total": self.total,
            "best": _encode_opt_term(self.best),
            "parts": self.parts,
            "bad": self.bad,
        }

    def load(self, state: Dict) -> None:
        self.count = int(state.get("count", 0))
        self.total = state.get("total", 0)
        self.best = _decode_opt_term(state.get("best"))
        self.best_key = (
            extreme_order_key(self.best) if self.best is not None else None
        )
        self.parts = state.get("parts")
        self.bad = bool(state.get("bad", False))


class AggregationOp(PhysicalOperator):
    """GROUP BY + aggregate projection (fused, like the algebra node).

    One loop: absorb a child block into the open groups, emit a block of
    complete groups, releasing each group's state as it is emitted.  A
    group is complete when its *partition* — the longest prefix of
    ``child.clustered_on()`` made only of plain-variable group keys —
    has ended: members of one partition value arrive as one contiguous
    run, so when another value shows up every group opened so far is
    emitted, in first-seen order, before more input is pulled.  A child
    that claims no order gives the one partition that ends with the
    input: the classic blocking aggregation is the same loop.

    When every projected aggregate is decomposable (non-DISTINCT COUNT,
    SUM, AVG, MIN, MAX, SAMPLE, GROUP_CONCAT) and there is no HAVING,
    members are folded into O(1) accumulators per group as they arrive
    — suspension then serialises the keys and accumulators of the
    pending groups only, so a continuation token holds one partition
    plus a block of groups under an ordered child and O(groups)
    otherwise, never O(input).  DISTINCT aggregates and HAVING fall
    back to buffering member rows verbatim, so the aggregates computed
    after resume see exactly the members collected before suspension.

    The streaming fold itself has an ID-space kernel (:meth:`_fold_ids`)
    for the chart shape — keys that are plain variables, aggregates that
    are ``COUNT(*)``, ``COUNT(?v)``, ``SUM(?v)`` or ``AVG(?v)`` — which
    never decodes a member row and keeps a group as one flat list,
    ``count, total, bad`` per projection; anything else takes the
    generic per-member fold (:meth:`_absorb`) over
    :class:`_StreamingAgg` objects.  Both save the same accumulator
    dicts, so the saved state does not say which one ran.
    """

    label = "Aggregation"

    def __init__(self, runtime, child, keys, projections, having):
        super().__init__(runtime, )
        self.child = child
        self.keys = list(keys)
        self.projections = list(projections)
        self.having = list(having)
        self._key_specs = self._build_key_specs()
        self._streaming = not self.having and all(
            projection.expression is None
            or _StreamingAgg.supports(projection.expression)
            for projection in self.projections
        )
        # Folds only need the member in term space when some aggregate
        # evaluates an argument expression over it; COUNT(*) does not.
        self._stream_needs_terms = self._streaming and any(
            projection.expression is not None
            and projection.expression.argument is not None
            for projection in self.projections
        )
        self._id_fold = self._plan_id_fold()
        self._id_emit = self._plan_id_emit()
        self._out_names = [
            projection.var.name for projection in self.projections
        ]
        # Per-execution memos shared by every aggregation of the plan:
        # the outer SUM(?sp) of a chart reads the inner COUNT(*) back
        # through them without a Literal or a dictionary round trip.
        self._numbers = _execution_memo(runtime, "_id_numbers")
        self._count_ids = _execution_memo(runtime, "_count_ids")
        #: Positions, in a group key, of the partition variables.
        self._partition_at = self._plan_partition()
        self._partition_of = (
            itemgetter(*self._partition_at)
            if self._partition_at
            else lambda group_key: ()
        )
        self._partition = None  # partition value of the open groups
        # "build" until the input has ended and its last partition is
        # released; saved and loaded, so tokens keep their shape.
        self._phase = "build"
        # Open groups of the current partition, in first-seen order: key
        # -> flat counters (ID fold), accumulators (generic fold) or
        # member rows (buffering).
        self._groups: Dict[Tuple, List] = {}
        # Complete groups awaiting emission, oldest first.
        self._ready: Deque[Tuple[Tuple, List]] = deque()
        self._emitted = 0

    def _plan_id_fold(self):
        """``[(state offset, variable or None, is SUM/AVG)]`` when the
        whole fold can stay in ID space, else ``None``.  Projection
        ``i`` owns ``state[3 * i:3 * i + 3]`` — count, total, bad."""
        from ..ast import VarExpr

        if not self._streaming or any(
            var_name is None for _, var_name, _ in self._key_specs
        ):
            return None
        fold = []
        for slot, projection in enumerate(self.projections):
            agg = projection.expression
            if agg is None:
                continue
            if agg.name not in ("COUNT", "SUM", "AVG"):
                return None
            if agg.argument is None:
                fold.append((3 * slot, None, False))
            elif isinstance(agg.argument, VarExpr):
                fold.append(
                    (3 * slot, agg.argument.var.name, agg.name != "COUNT")
                )
            else:
                return None
        return fold

    def _plan_id_emit(self):
        """How the ID fold builds an output row, in projection order:
        ``(output name, aggregate name or None for a key, offset into
        the state or position in the key)``."""
        if self._id_fold is None:
            return None
        key_at = {
            bind_name: position
            for position, (_, _, bind_name) in enumerate(self._key_specs)
        }
        plan = []
        for slot, projection in enumerate(self.projections):
            name = projection.var.name
            if projection.expression is not None:
                plan.append((name, projection.expression.name, 3 * slot))
            elif name in key_at:
                plan.append((name, None, key_at[name]))
        return plan

    def _plan_partition(self) -> Tuple[int, ...]:
        key_at: Dict[str, int] = {}
        for position, (_, var_name, _) in enumerate(self._key_specs):
            if var_name is not None:
                key_at.setdefault(var_name, position)
        positions = []
        for name in self.child.clustered_on() or ():
            if name not in key_at:
                break
            positions.append(key_at[name])
        return tuple(positions)

    def children(self) -> List[PhysicalOperator]:
        return [self.child]

    def detail(self) -> str:
        names = []
        for key in self.keys:
            var = getattr(key, "var", None)
            names.append(f"?{var.name}" if var is not None else "<expr>")
        text = f"group by {' '.join(names)}" if names else "implicit group"
        if not self._partition_at:
            return text + ", released at end"
        partition = " ".join(
            f"?{self._key_specs[position][1]}" for position in self._partition_at
        )
        return f"{text}, released per {partition}"

    def _build_key_specs(self):
        from ..ast import Projection, VarExpr

        specs = []
        for key in self.keys:
            expression = key.expression if isinstance(key, Projection) else key
            var_name = (
                expression.var.name if isinstance(expression, VarExpr) else None
            )
            if isinstance(key, (Projection, VarExpr)):
                bind_name = key.var.name
            else:
                bind_name = None
            specs.append((expression, var_name, bind_name))
        return specs

    def _key_binding(self, group_key: Tuple) -> Binding:
        """What a group's key contributes to its output row."""
        return {
            bind_name: value
            for (_, _, bind_name), value in zip(self._key_specs, group_key)
            if bind_name is not None and value is not None
        }

    # -- absorbing ------------------------------------------------------

    def _open_group(self, group_key: Tuple) -> List:
        partition = self._partition_of(group_key)
        if partition != self._partition:
            self._release()
            self._partition = partition
        if self._id_fold is not None:
            state = [0, 0, False] * len(self.projections)
        elif self._streaming:
            state = [
                _StreamingAgg(projection.expression)
                if projection.expression is not None
                else None
                for projection in self.projections
            ]
        else:
            state = []
        self._groups[group_key] = state
        return state

    def _release(self) -> None:
        """The open groups have seen their last member."""
        # In place: _fold_ids holds on to the dict across a release.
        self._ready.extend(self._groups.items())
        self._groups.clear()

    def _absorb(self, member: Binding) -> None:
        key_values: List[Optional[int]] = []
        decoded = None  # member in term space, only if an expression runs
        for expression, var_name, _ in self._key_specs:
            if var_name is not None:
                value = member.get(var_name)
            else:
                if decoded is None:
                    decoded = _decode_row(member, self.runtime)
                try:
                    value = evaluate_expression(
                        expression, decoded, context=self.runtime
                    )
                except ExpressionError:
                    value = None
                value = _encode_value(value, self.runtime)
            key_values.append(value)
        group_key = tuple(key_values)
        state = self._groups.get(group_key)
        if state is None:
            state = self._open_group(group_key)
        if self._streaming:
            if self._stream_needs_terms and decoded is None:
                decoded = _decode_row(member, self.runtime)
            for acc in state:
                if acc is not None:
                    acc.absorb(decoded if decoded is not None else {})
        else:
            state.append(member)

    def _fold_ids(self, members: List[Binding]) -> None:
        """Fold a block of encoded members without leaving ID space.

        Same skip/poison rules as :meth:`_StreamingAgg.absorb`: an
        unbound argument contributes nothing, a non-numeric one poisons
        SUM/AVG — boundness is an ID test and the numeric value comes
        from the per-execution ``id -> number`` memo.
        """
        groups = self._groups
        fold = self._id_fold
        numbers = self._numbers
        key_names = [var_name for _, var_name, _ in self._key_specs]
        for member in members:
            get = member.get
            group_key = tuple(map(get, key_names))
            state = groups.get(group_key)
            if state is None:
                state = self._open_group(group_key)
            for at, name, numeric in fold:
                if name is None:  # COUNT(*)
                    state[at] += 1
                    continue
                value = get(name)
                if value is None:
                    continue
                if numeric:
                    if state[at + 2]:
                        continue
                    number = numbers.get(value)
                    if number is None:
                        number = self._number_of(value)
                    if number is _NOT_A_NUMBER:
                        state[at + 2] = True
                        continue
                    state[at + 1] += number
                state[at] += 1

    def _number_of(self, value: int):
        """Fill the ``id -> number`` memo for one term ID."""
        try:
            number = _numeric_value(self.runtime.dictionary.decode(value))
        except ExpressionError:
            number = _NOT_A_NUMBER
        self._numbers[value] = number
        return number

    def _count_id(self, count: int) -> int:
        """The term ID of an integer count, interned once per execution."""
        value = self._count_ids.get(count)
        if value is None:
            value = self.runtime.dictionary.encode(_numeric_literal(count))
            self._count_ids[count] = value
            self._numbers[value] = count
        return value

    # -- the loop -------------------------------------------------------

    def _next(self, limit: int) -> List[Binding]:
        ready = self._ready
        if not ready and self._phase == "build":
            # Input is pulled only once every complete group is out.
            if not self.child.done:
                members = self.child.next(BLOCK)
                if self._id_fold is not None:
                    self._fold_ids(members)
                else:
                    for member in members:
                        self._absorb(member)
            if self.child.done and not ready:
                if not (self.keys or self._groups or self._emitted):
                    # Implicit single group: empty input still yields
                    # one group (COUNT(*) = 0).
                    self._open_group(())
                self._release()  # the last partition ends with the input
                self._phase = "emit"
        # Each group's state is released as soon as it is emitted, so
        # suspended tokens shrink as emission proceeds.  A group gives
        # at most one row (HAVING may reject it), so examining no more
        # groups than rows wanted cannot overshoot.
        examined = [
            ready.popleft() for _ in range(min(limit, BLOCK, len(ready)))
        ]
        if self._id_fold is not None:
            out = [self._id_row(*group) for group in examined]
        elif self._streaming:
            out = [self._streamed_row(*group) for group in examined]
        else:
            rows = [self._buffered_row(*group) for group in examined]
            out = [row for row in rows if row is not None]
        self._emitted += len(examined)
        self.runtime.stats.groups += len(examined)
        self.runtime.stats.intermediate_bindings += len(out)
        if not ready and self._phase == "emit":
            self.done = True
        return out

    def _id_row(self, group_key: Tuple, state: List) -> Binding:
        """One ID-fold group's output row (:meth:`_StreamingAgg.result`
        on the flat counters)."""
        out: Binding = {}
        for name, aggregate, at in self._id_emit:
            if aggregate is None:
                if group_key[at] is not None:
                    out[name] = group_key[at]
            elif aggregate == "COUNT":
                out[name] = self._count_id(state[at])
            elif not state[at + 2] and (aggregate == "SUM" or state[at]):
                total = state[at + 1]
                out[name] = self.runtime.dictionary.encode(
                    _numeric_literal(
                        total if aggregate == "SUM" else total / state[at]
                    )
                )
        return out

    def _streamed_row(self, group_key: Tuple, accs: List) -> Binding:
        key_binding = self._key_binding(group_key)
        out: Binding = {}
        for name, acc in zip(self._out_names, accs):
            if acc is None:
                value = key_binding.get(name)
                if value is not None:
                    out[name] = value
            elif acc.agg.name == "COUNT":
                out[name] = self._count_id(acc.count)
            else:
                try:
                    value = acc.result()
                except ExpressionError:
                    pass
                else:
                    out[name] = _encode_value(value, self.runtime)
        return out

    def _buffered_row(
        self, group_key: Tuple, members: List[Binding]
    ) -> Optional[Binding]:
        """One buffered group's output row, or ``None`` if HAVING drops it."""
        runtime = self.runtime
        key_binding = self._key_binding(group_key)
        # HAVING and the aggregate expressions run in term space:
        # decode the group once, emit back in ID space.
        key_terms = _decode_row(key_binding, runtime)
        member_terms = [_decode_row(member, runtime) for member in members]
        for condition in self.having:
            try:
                if not effective_boolean_value(
                    evaluate_expression(
                        condition, key_terms, member_terms, context=runtime
                    )
                ):
                    return None
            except ExpressionError:
                return None
        out: Binding = {}
        for projection in self.projections:
            if projection.expression is None:
                value = key_binding.get(projection.var.name)
                if value is not None:
                    out[projection.var.name] = value
                continue
            try:
                value = evaluate_expression(
                    projection.expression,
                    key_terms,
                    member_terms,
                    context=runtime,
                )
            except ExpressionError:
                pass
            else:
                out[projection.var.name] = _encode_value(value, runtime)
        return out

    # -- suspension -----------------------------------------------------

    def _save(self) -> Dict:
        pending = []
        for group_key, state in chain(self._ready, self._groups.items()):
            blob = {
                "key": [
                    _encode_opt_term(value, self.runtime)
                    for value in group_key
                ],
                "binding": encode_binding(
                    self._key_binding(group_key), self.runtime
                ),
            }
            if self._id_fold is not None:
                blob["accs"] = [
                    None
                    if projection.expression is None
                    else {
                        "count": state[3 * slot],
                        "total": state[3 * slot + 1],
                        "best": None,
                        "parts": None,
                        "bad": state[3 * slot + 2],
                    }
                    for slot, projection in enumerate(self.projections)
                ]
            elif self._streaming:
                blob["accs"] = [
                    None if acc is None else acc.save() for acc in state
                ]
            else:
                blob["members"] = [
                    encode_binding(member, self.runtime) for member in state
                ]
            pending.append(blob)
        return {
            "phase": self._phase,
            "child": self.child.save(),
            "emitted": self._emitted,
            "groups": pending,
        }

    def _load(self, state: Dict) -> None:
        self.child.load(state["child"])
        self._phase = state.get("phase", "build")
        self._emitted = int(state.get("emitted", 0))
        pending = [self._load_group(blob) for blob in state.get("groups", ())]
        self._ready = deque()
        self._groups = {}
        self._partition = None
        # Which pending groups are still open is not saved: while input
        # remains, those of the newest group's partition (so a blocking
        # engine's token releases all but its last partition at once).
        building = self._phase == "build"
        if pending and building:
            self._partition = self._partition_of(pending[-1][0])
        for group_key, group in pending:
            if building and self._partition_of(group_key) == self._partition:
                self._groups[group_key] = group
            else:
                self._ready.append((group_key, group))

    def _load_group(self, blob: Dict) -> Tuple[Tuple, List]:
        group_key = tuple(
            _decode_opt_term(value, self.runtime) for value in blob["key"]
        )
        if len(group_key) != len(self._key_specs):
            raise PlanStateError("saved group key does not fit the GROUP BY")
        if not self._streaming:
            return group_key, [
                decode_binding(member, self.runtime)
                for member in blob["members"]
            ]
        saved = blob["accs"]
        if len(saved) != len(self.projections):
            raise PlanStateError("saved accumulators do not fit the SELECT")
        if self._id_fold is not None:
            group: List = []
            for acc_state in saved:
                acc_state = acc_state or {}
                group += [
                    int(acc_state.get("count", 0)),
                    acc_state.get("total", 0),
                    bool(acc_state.get("bad", False)),
                ]
            return group_key, group
        group = []
        for projection, acc_state in zip(self.projections, saved):
            acc = None
            if projection.expression is not None:
                acc = _StreamingAgg(projection.expression)
                if acc_state is not None:
                    acc.load(acc_state)
            group.append(acc)
        return group_key, group


class _Reversed:
    """Wrapper inverting the comparison order of a sort key."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.key == other.key


def _order_lt(key_a: List, serial_a: int, key_b: List, serial_b: int) -> bool:
    """Whether row A sorts strictly before row B (arrival-order tiebreak)."""
    if key_a < key_b:
        return True
    if key_b < key_a:
        return False
    return serial_a < serial_b


class _TopKEntry:
    """Heap entry for :class:`TopKOp`.

    ``__lt__`` is inverted so :mod:`heapq`'s min-heap keeps the *worst*
    retained row at the root, ready to be evicted by a better arrival.
    """

    __slots__ = ("key", "serial", "binding")

    def __init__(self, key: List, serial: int, binding: Binding) -> None:
        self.key = key
        self.serial = serial
        self.binding = binding

    def __lt__(self, other: "_TopKEntry") -> bool:
        return _order_lt(other.key, other.serial, self.key, self.serial)


def _order_key(conditions, binding: Binding, runtime) -> List:
    """The ORDER BY comparison key of one solution, shared by the full
    sort and the bounded top-k heap so both rank rows identically.

    ``binding`` is an encoded row; sort keys need lexical values, so
    this is one of the expression boundaries that decodes.
    """
    keys = []
    decoded = _decode_row(binding, runtime)
    for condition in conditions:
        try:
            value = evaluate_expression(
                condition.expression, decoded, context=runtime
            )
        except ExpressionError:
            value = None
        key = term_order_key(value)
        if condition.descending:
            keys.append(_Reversed(key))
        else:
            keys.append(key)
    return keys


_SEGMENTS = REGISTRY.counter(
    "repro_exec_token_segments_total",
    "Chunks of a finished sort crossing a continuation token: encoded "
    "(the first save), forwarded as text (every later save), decoded "
    "(the first emission after a restore)",
    labelnames=("event",),
)


def _decode_rows(blob, runtime) -> List[Binding]:
    """Rows saved inline: by a sort still building, or by a version 2 token."""
    if not isinstance(blob, list):
        raise PlanStateError("expected an inline list of rows")
    return [decode_binding(row, runtime) for row in blob]


class _Run:
    """The rows a finished sort has still to emit.  They never change
    again, so they are cut once into :data:`BLOCK`-row chunks and a page
    costs the rows it emits, not the rows still waiting.

    A chunk is ``[rows, segment]``, either of which may be ``None``.
    The *segment* — ``base64url(JSON([encode_binding(row), ...]))`` — is
    made by the first :meth:`save` that needs it and is the same text in
    every later token; a chunk that arrived as a segment is decoded when
    emission first reaches it and travels on undecoded until then.
    Chunk boundaries are fixed when the run is cut and depend on no page
    size, so the process that sorted a run and any process that restored
    it mint the same token.
    """

    __slots__ = ("runtime", "chunks", "skip", "emitted")

    def __init__(self, runtime, rows=(), emitted=0):
        self.runtime = runtime
        self.chunks = deque(
            [rows[at:at + BLOCK], None] for at in range(0, len(rows), BLOCK)
        )
        self.skip = 0  # rows of chunks[0] already emitted
        self.emitted = int(emitted)  # a count for the record, never a size

    def take(self, limit: int) -> List[Binding]:
        out: List[Binding] = []
        while self.chunks and len(out) < limit:
            rows = self._rows(self.chunks[0])
            part = rows[self.skip:self.skip + limit - len(out)]
            out += part
            self.skip += len(part)
            if self.skip >= len(rows):
                self.chunks.popleft()
                self.skip = 0
        self.emitted += len(out)
        return out

    def _rows(self, chunk: List) -> List[Binding]:
        if chunk[0] is None:
            try:
                blobs = json.loads(base64.urlsafe_b64decode(chunk[1]))
                if not (isinstance(blobs, list) and 0 < len(blobs) <= BLOCK):
                    raise ValueError(f"not a list of 1 to {BLOCK} rows")
                chunk[0] = [decode_binding(blob, self.runtime) for blob in blobs]
            except (ValueError, TypeError, AttributeError) as error:
                raise PlanStateError(f"undecodable run segment: {error}")
            _SEGMENTS.labels(event="decoded").inc()
        return chunk[0]

    def save(self) -> Dict:
        """A reference to the pending segments, which are parked on the
        runtime: ``PhysicalPlan.save`` puts them beside the tree."""
        segments = self.runtime.segments
        first = len(segments)
        fresh = 0
        for chunk in self.chunks:
            if chunk[1] is None:
                blobs = [encode_binding(row, self.runtime) for row in chunk[0]]
                chunk[1] = base64.urlsafe_b64encode(
                    json.dumps(blobs, separators=(",", ":")).encode("utf-8")
                ).decode("ascii")
                fresh += 1
            segments.append(chunk[1])
        _SEGMENTS.labels(event="encoded").inc(fresh)
        _SEGMENTS.labels(event="forwarded").inc(len(self.chunks) - fresh)
        return {"$run": [first, len(self.chunks)], "skip": self.skip}

    @classmethod
    def load(cls, runtime, blob, emitted, emitting: bool = True) -> "_Run":
        """Rebuild from :meth:`save` output, or cut the inline rows of a
        version 2 token.  A reference claims its segments off the runtime
        (``PhysicalPlan.load`` sees which nobody wanted); only the chunk
        ``skip`` points into is decoded now."""
        if not (emitting and isinstance(blob, dict)):
            return cls(runtime, _decode_rows(blob, runtime), emitted)
        first, count = blob["$run"]
        skip = blob.get("skip", 0)
        segments = runtime.segments
        if not (
            type(first) is type(count) is type(skip) is int
            and 0 <= first
            and 0 <= count
            and first + count <= len(segments)
        ):
            raise PlanStateError("run reference out of range")
        claimed = segments[first:first + count]
        if not all(isinstance(segment, str) for segment in claimed):
            raise PlanStateError("run references overlap")
        segments[first:first + count] = [None] * count
        run = cls(runtime, emitted=emitted)
        run.chunks.extend([None, segment] for segment in claimed)
        run.skip = skip
        if not 0 <= skip < (len(run._rows(run.chunks[0])) if claimed else 1):
            raise PlanStateError("run position is outside its first chunk")
        return run


class OrderByOp(_UnaryOp):
    """Full sort: drains its child a block per call, then emits slices."""

    label = "OrderBy"

    def __init__(self, runtime, child, conditions):
        super().__init__(runtime, child)
        self.conditions = list(conditions)
        self._phase = "build"
        self._buffer: List[Binding] = []  # build phase: rows absorbed so far
        self._run = _Run(runtime)  # emit phase: the sorted rows

    def detail(self) -> str:
        return f"{len(self.conditions)} keys"

    def _next(self, limit: int) -> List[Binding]:
        if self._phase == "build":
            if self.child.done:
                self._buffer.sort(
                    key=lambda binding: _order_key(
                        self.conditions, binding, self.runtime
                    )
                )
                self._run = _Run(self.runtime, self._buffer)
                self._buffer = []
                self._phase = "emit"
            else:
                self._buffer += self.child.next(BLOCK)
            return []
        rows = self._run.take(limit)
        self.done = not self._run.chunks
        return rows

    def _save(self) -> Dict:
        # Rows already emitted are never revisited, so only the pending
        # chunks cross the token — suspended sorts shrink as they drain.
        return {
            "phase": self._phase,
            "child": self.child.save(),
            "emitted": self._run.emitted,
            "buffer": (
                self._run.save()
                if self._phase == "emit"
                else [encode_binding(row, self.runtime) for row in self._buffer]
            ),
        }

    def _load(self, state: Dict) -> None:
        self.child.load(state["child"])
        self._phase = state.get("phase", "build")
        saved, emitted = state.get("buffer", []), state.get("emitted", 0)
        # In the emit phase the buffer was serialised post-sort, so no
        # re-sort is needed (and none would be safe: keys are recomputed
        # lazily only in the build phase).
        if self._phase == "emit":
            self._buffer, self._run = [], _Run.load(self.runtime, saved, emitted)
        else:
            self._buffer = _decode_rows(saved, self.runtime)
            self._run = _Run(self.runtime, emitted=emitted)


class TopKOp(_UnaryOp):
    """Bounded heap for fused ORDER BY ... LIMIT.

    Keeps at most ``limit + offset`` rows; ties between equal sort keys
    fall back to arrival order, so the output is identical to a stable
    full sort followed by the slice.
    """

    label = "TopK"

    def __init__(self, runtime, child, conditions, limit, offset=0):
        super().__init__(runtime, child)
        self.conditions = list(conditions)
        self.limit = limit
        self.offset = offset
        self._phase = "build"
        self._heap: List[_TopKEntry] = []
        self._serial = 0
        self._run = _Run(runtime)  # emit phase: the retained rows, sorted

    def detail(self) -> str:
        text = f"{len(self.conditions)} keys, limit {self.limit}"
        if self.offset:
            text += f", offset {self.offset}"
        return text

    def _finalize(self) -> None:
        ordered = sorted(self._heap)
        ordered.reverse()
        self._run = _Run(
            self.runtime, [entry.binding for entry in ordered[self.offset:]]
        )
        self._heap = []
        self._phase = "emit"

    def _next(self, limit: int) -> List[Binding]:
        bound = self.limit + self.offset
        if bound <= 0:
            self.done = True
            return []
        if self._phase == "build":
            if self.child.done:
                self._finalize()
                return []
            for row in self.child.next(BLOCK):
                key = _order_key(self.conditions, row, self.runtime)
                serial = self._serial
                self._serial += 1
                if len(self._heap) < bound:
                    heapq.heappush(self._heap, _TopKEntry(key, serial, row))
                elif _order_lt(
                    key, serial, self._heap[0].key, self._heap[0].serial
                ):
                    heapq.heapreplace(self._heap, _TopKEntry(key, serial, row))
            return []
        rows = self._run.take(limit)
        self.done = not self._run.chunks
        return rows

    def _save(self) -> Dict:
        return {
            "phase": self._phase,
            "child": self.child.save(),
            "serial": self._serial,
            "heap": [
                [entry.serial, encode_binding(entry.binding, self.runtime)]
                for entry in self._heap
            ],
            "emitted": self._run.emitted,
            "ordered": self._run.save() if self._phase == "emit" else [],
        }

    def _load(self, state: Dict) -> None:
        self.child.load(state["child"])
        self._phase = state.get("phase", "build")
        self._serial = int(state.get("serial", 0))
        self._heap = []
        for serial, blob in state.get("heap", ()):
            row = decode_binding(blob, self.runtime)
            key = _order_key(self.conditions, row, self.runtime)
            self._heap.append(_TopKEntry(key, int(serial), row))
        heapq.heapify(self._heap)
        self._run = _Run.load(
            self.runtime,
            state.get("ordered", []),
            state.get("emitted", 0),
            self._phase == "emit",
        )
