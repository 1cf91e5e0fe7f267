"""The paper's formal model: bars and bar charts (Section 2).

A *bar* is a triple ``B = <S, lambda, t>`` where ``S`` is a set of URIs,
``lambda`` is the bar's label, and ``t`` is its type — ``class`` (the
URIs are associated with some class) or ``property`` (the URIs are
associated with some property).  A *bar chart* maps each label in
``labels(B)`` to a bar with that label.

Bars here additionally carry presentation metadata (count, coverage,
direction, a SPARQL membership pattern) that the UI layer and the
endpoint-backed chart engine need; the formal content is exactly the
paper's.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..rdf.terms import Literal, URI

__all__ = ["BarType", "Direction", "Bar", "BarChart", "count_value"]


def count_value(term) -> int:
    """The bar height a backend's count cell stands for.

    Backends are free to type their counts as xsd:decimal/xsd:double
    ("3.0", "3.0e0"); an integral float is still an exact count.
    Anything else — a non-integral number, NaN, ±INF, text, a URI, an
    unbound cell — is no count and reads as an empty bar, never an
    exception out of the chart engine.
    """
    if not isinstance(term, Literal):
        return 0
    try:
        return int(term.lexical)
    except ValueError:
        pass
    try:
        number = float(term.lexical)
    except ValueError:
        return 0
    if math.isfinite(number) and number == int(number):
        return int(number)
    return 0


class BarType(enum.Enum):
    """The type ``t`` of a bar."""

    CLASS = "class"
    PROPERTY = "property"


class Direction(enum.Enum):
    """Whether a property/object expansion follows outgoing or ingoing
    edges (Section 2: "We similarly define the incoming versions")."""

    OUTGOING = "outgoing"
    INCOMING = "incoming"


@dataclass(frozen=True)
class Bar:
    """A bar ``<S, label, type>``.

    ``uris`` holds ``S`` when the bar was computed by the reference
    (in-memory) expansions; endpoint-backed bars may carry only ``count``
    plus a ``pattern`` from which members can be fetched lazily.  At
    least one of the two is always present.
    """

    label: URI
    type: BarType
    uris: Optional[frozenset] = None
    count: Optional[int] = None
    #: SPARQL group-graph-pattern text with ``{S}`` as the member variable
    #: (see :mod:`repro.core.queries`); powers "generate SPARQL code to
    #: extract each of the bars along the exploration".
    pattern: Optional[str] = None
    #: For property bars: the fraction of the parent set featuring the
    #: property (the paper's *coverage*, Section 3.3).
    coverage: Optional[float] = None
    direction: Optional[Direction] = None

    def __post_init__(self) -> None:
        if self.uris is None and self.count is None:
            raise ValueError("a bar needs an explicit URI set or a count")

    @property
    def size(self) -> int:
        """``|S|`` — the bar's height."""
        if self.uris is not None:
            return len(self.uris)
        assert self.count is not None
        return self.count

    def with_uris(self, uris: frozenset) -> "Bar":
        """A copy with members materialised."""
        return replace(self, uris=frozenset(uris), count=len(uris))

    def filter(self, condition: Callable[[URI], bool]) -> "Bar":
        """The paper's *filter* operation: remove the URIs of ``S`` that
        violate ``condition``.  Requires materialised members."""
        if self.uris is None:
            raise ValueError("cannot filter a bar without materialised URIs")
        kept = frozenset(uri for uri in self.uris if condition(uri))
        return replace(self, uris=kept, count=len(kept))

    def __contains__(self, uri: object) -> bool:
        if self.uris is None:
            raise ValueError("bar members are not materialised")
        return uri in self.uris

    def __repr__(self) -> str:
        return (
            f"Bar({self.label.local_name!r}, {self.type.value}, "
            f"size={self.size})"
        )


class BarChart:
    """A finite map from labels to bars, presented tallest-first.

    eLinda sorts bars "by decreasing significance (i.e., support in the
    dataset)" (Section 1); iteration respects that order, ties broken by
    label for determinism.
    """

    def __init__(self, bars: Dict[URI, Bar] | List[Bar] | None = None):
        if bars is None:
            bars = {}
        if isinstance(bars, list):
            mapping: Dict[URI, Bar] = {}
            for bar in bars:
                if bar.label in mapping:
                    raise ValueError(f"duplicate bar label: {bar.label}")
                mapping[bar.label] = bar
            bars = mapping
        self._bars: Dict[URI, Bar] = dict(bars)

    # ------------------------------------------------------------------
    # Formal-model accessors
    # ------------------------------------------------------------------

    def labels(self) -> List[URI]:
        """``labels(B)``, sorted by decreasing bar height."""
        return [bar.label for bar in self.sorted_bars()]

    def __getitem__(self, label: URI) -> Bar:
        """``B[label]``."""
        return self._bars[label]

    def get(self, label: URI) -> Optional[Bar]:
        return self._bars.get(label)

    def __contains__(self, label: object) -> bool:
        return label in self._bars

    def __len__(self) -> int:
        return len(self._bars)

    def __iter__(self) -> Iterator[Bar]:
        return iter(self.sorted_bars())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BarChart):
            return NotImplemented
        return self._bars == other._bars

    def __repr__(self) -> str:
        return f"<BarChart with {len(self._bars)} bars>"

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def sorted_bars(self) -> List[Bar]:
        """Bars by decreasing height, then label (deterministic)."""
        return sorted(
            self._bars.values(), key=lambda bar: (-bar.size, bar.label.value)
        )

    def top(self, count: int) -> List[Bar]:
        """The ``count`` tallest bars."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return self.sorted_bars()[:count]

    def above_coverage(self, threshold: float) -> "BarChart":
        """Bars whose coverage meets ``threshold`` — the property-chart
        significance filter (Section 3.3, default 20 %)."""
        kept = {
            label: bar
            for label, bar in self._bars.items()
            if bar.coverage is not None and bar.coverage >= threshold
        }
        return BarChart(kept)

    def nonempty(self) -> "BarChart":
        """Bars with at least one member."""
        return BarChart(
            {label: bar for label, bar in self._bars.items() if bar.size > 0}
        )

    def total_size(self) -> int:
        """Sum of bar heights (bars may overlap, so this can exceed the
        size of the union)."""
        return sum(bar.size for bar in self._bars.values())

    def filter_bars(self, condition: Callable[[URI], bool]) -> "BarChart":
        """Apply the paper's filter operation to every bar."""
        return BarChart(
            {label: bar.filter(condition) for label, bar in self._bars.items()}
        )

    def as_rows(self) -> List[Tuple[URI, int]]:
        """(label, height) pairs tallest-first — what a rendered chart
        shows and what the benchmark harnesses print."""
        return [(bar.label, bar.size) for bar in self.sorted_bars()]
