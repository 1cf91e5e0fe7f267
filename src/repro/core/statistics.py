"""Dataset and class statistics.

"The very first queries present the user with general statistics about
the dataset such as the total number of RDF triples, and the number of
classes the dataset has" (Section 3.1).  Pane corners additionally show
the instance total and the number of direct and indirect subclasses
(Section 3.2) — the hover box of Fig. 1 reports exactly these for Agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..endpoint.base import Endpoint
from ..rdf.terms import URI
from .model import count_value
from .queries import (
    class_count_query,
    class_instance_count_query,
    subclass_closure_query,
    subclass_counts_query,
    total_triples_query,
)

__all__ = ["DatasetStatistics", "ClassStatistics", "StatisticsService"]


@dataclass(frozen=True)
class DatasetStatistics:
    """The opening statistics of a dataset."""

    total_triples: int
    class_count: int


@dataclass(frozen=True)
class ClassStatistics:
    """Per-class statistics shown in pane corners and hover boxes."""

    cls: URI
    instance_count: int
    direct_subclasses: int
    total_subclasses: int

    def summary(self) -> str:
        """The hover-box text (cf. Fig. 1's box for Agent)."""
        return (
            f"{self.cls.local_name}: {self.instance_count:,} instances, "
            f"{self.direct_subclasses} direct subclasses, "
            f"{self.total_subclasses} subclasses in total"
        )


class StatisticsService:
    """Computes dataset/class statistics through an endpoint, caching
    subclass lists (they are schema-level and small)."""

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint
        self._subclass_cache: Dict[URI, List[URI]] = {}
        self._cache_version: Optional[int] = None

    def dataset_statistics(self) -> DatasetStatistics:
        """The opening statistics (total triples, class count)."""
        total = count_value(self.endpoint.select(total_triples_query()).scalar())
        classes = count_value(self.endpoint.select(class_count_query()).scalar())
        return DatasetStatistics(total_triples=total, class_count=classes)

    def direct_subclasses(self, cls: URI) -> List[URI]:
        """Direct subclasses of ``cls`` (cached per dataset version)."""
        version = self.endpoint.dataset_version
        if version != self._cache_version:
            self._subclass_cache.clear()
            self._cache_version = version
        cached = self._subclass_cache.get(cls)
        if cached is not None:
            return list(cached)
        result = self.endpoint.select(subclass_counts_query(cls))
        subclasses = sorted(
            (term for term in result.column("sub") if isinstance(term, URI)),
            key=lambda uri: uri.value,
        )
        self._subclass_cache[cls] = subclasses
        return list(subclasses)

    def all_subclasses(self, cls: URI) -> Set[URI]:
        """Direct and indirect subclasses of ``cls`` (excluding itself),
        fetched with a single ``rdfs:subClassOf+`` path query."""
        result = self.endpoint.select(subclass_closure_query(cls))
        return {
            term
            for term in result.column("sub")
            if isinstance(term, URI) and term != cls
        }

    def all_subclasses_iterative(self, cls: URI) -> Set[URI]:
        """The same closure via repeated direct-subclass queries (the
        approach a path-less endpoint forces; kept for comparison and
        as the ablation baseline)."""
        found: Set[URI] = set()
        frontier = self.direct_subclasses(cls)
        while frontier:
            current = frontier.pop()
            if current in found or current == cls:
                continue
            found.add(current)
            frontier.extend(self.direct_subclasses(current))
        return found

    def instance_count(self, cls: URI) -> int:
        """Number of instances typed as ``cls``."""
        return count_value(
            self.endpoint.select(class_instance_count_query(cls)).scalar()
        )

    def class_statistics(self, cls: URI) -> ClassStatistics:
        """The full hover-box statistics for one class."""
        return ClassStatistics(
            cls=cls,
            instance_count=self.instance_count(cls),
            direct_subclasses=len(self.direct_subclasses(cls)),
            total_subclasses=len(self.all_subclasses(cls)),
        )
