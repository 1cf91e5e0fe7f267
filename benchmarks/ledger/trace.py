"""The ledger's own span recorder.

Spans are recorded from the benchmark's files only: :meth:`Recorder.patch`
replaces a *public* callable (a method on a class, a function on a
module) with a timing wrapper for the duration of a traced run and puts
the original back afterwards, so the endpoint's real call sequence is
what gets timed — not a copy of it that drifts when ``src/`` changes —
and no file under ``src/`` carries a span.  A span is recorded only
while a click is open (:meth:`Recorder.click`), so reference queries
and set-up that run through the same patched callables stay out of the
trace and pay one attribute test.

A span is ``(name, start, end, parent, click, value)``; ``parent`` is the
index of the enclosing span in the same list (-1 for a click's root
span) and ``value`` is whatever number the patch's ``measure`` function
read off the call's return value (a token's length, "did it answer").
A span's *self time* is its duration minus the part of that interval
its direct children cover; spans nest strictly (one thread), so that is
duration minus the sum of the children's durations, and the self times
of a click's spans add up to the click's traced wall time exactly.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["Span", "Recorder", "self_times", "totals_by_name", "click_totals"]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    click: int
    value: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store plus the patch bookkeeping."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []  # indices of spans still running
        self._click: Optional[int] = None
        self._patched: List[Tuple[object, str, object]] = []
        #: Called when the harness steps outside the measured program
        #: (a reference query) and when it steps back in.
        self.on_suspend: List[Callable[[], None]] = []
        self.on_resume: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------

    @contextmanager
    def click(self, click_id: int, name: str) -> Iterator[None]:
        """Open the root span of one click; spans record only inside."""
        self._click = click_id
        try:
            with self.span(name):
                yield
        finally:
            self._click = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self._click is None:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        # Placeholder keeps the index stable while children append.
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._click))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            opened = self.spans[index]
            self.spans[index] = opened._replace(end=perf_counter())

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Run harness-side work whose counters must not be attributed
        to the program under test."""
        for callback in self.on_suspend:
            callback()
        try:
            yield
        finally:
            for callback in self.on_resume:
                callback()

    # -- patching -------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, measure=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is a class or a module.  Callers that imported a
        function by name hold their own reference, so patch the module
        that *calls* it (``repro.perf.plancache.parse_query``), not only
        the one that defines it.  ``measure(result) -> number`` is
        stored as the span's ``value``.
        """
        raw = vars(owner)[attr]
        kind = type(raw)
        target = raw.__func__ if kind in (classmethod, staticmethod) else raw
        recorder = self

        def timed(*args, **kwargs):
            if recorder._click is None:
                return target(*args, **kwargs)
            index = len(recorder.spans)
            with recorder.span(name):
                result = target(*args, **kwargs)
            if measure is not None:
                recorder.spans[index] = recorder.spans[index]._replace(
                    value=float(measure(result))
                )
            return result

        timed.__name__ = getattr(target, "__name__", attr)
        timed.__wrapped__ = target
        setattr(owner, attr, kind(timed) if kind in (classmethod, staticmethod) else timed)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- output ---------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "span": index,
                            "name": span.name,
                            "start_s": span.start - origin,
                            "end_s": span.end - origin,
                            "parent": span.parent,
                            "click": span.click,
                            "value": span.value,
                        }
                    )
                    + "\n"
                )


def self_times(spans: Iterable[Span]) -> List[float]:
    """Self time of each span, in the order given (seconds)."""
    spans = list(spans)
    result = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            result[span.parent] -= span.duration
    return result


class NameTotals(NamedTuple):
    count: int
    total_s: float
    self_s: float


def totals_by_name(spans: Iterable[Span]) -> Dict[str, NameTotals]:
    """Per span name: calls, inclusive seconds, self seconds."""
    spans = list(spans)
    totals: Dict[str, List[float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.duration
        entry[2] += own
    return {name: NameTotals(int(c), t, s) for name, (c, t, s) in totals.items()}


def click_totals(spans: Iterable[Span]) -> Dict[int, Tuple[float, float]]:
    """Per click id: (root span wall, sum of all its spans' self times)."""
    spans = list(spans)
    result: Dict[int, List[float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = result.setdefault(span.click, [0.0, 0.0])
        if span.parent < 0:
            entry[0] += span.duration
        entry[1] += own
    return {click: (wall, own) for click, (wall, own) in result.items()}
