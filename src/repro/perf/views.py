"""Materialized chart views with incremental maintenance.

The follow-up paper *Efficiently Charting RDF* is about making exactly
eLinda's bar-chart aggregations fast.  Where the HVS caches whole result
sets per query string (and flushes on any update), this module
materializes the aggregate tables *behind* the three expansion shapes —

* subclass instance counts (the subclass expansion and bar heights),
* per-class / per-direction property (subject, triple) counts (the
  property expansion, the paper's heavy query), and
* connection (object-type) counts (the Connections tab),

— as ID-keyed count tables, built once in ID space and then
**maintained incrementally**: the graph notifies the views of every
added/removed triple through the mutation-delta hook
(:meth:`repro.rdf.graph.Graph.add_listener`), and each delta updates
the affected counters in time proportional to the mutated node's degree.  A chart expansion answered from the views is
O(bars) regardless of member count, and — unlike the HVS and the
build-once indexes — stays correct while the graph is being edited.

The decomposer consumes the same tables: its build-once indexes are an
instance with ``track=False``.  The AST shape matchers for all four
answerable shapes live here, next to the tables they are answered from.

Connection tables are materialized lazily per ``(class, property,
direction)`` on first lookup (the key space is quadratic, the queried
keys are few) and maintained incrementally from then on; a membership
change of a class drops its materialized connection keys, which simply
re-materialize on the next lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.model import Direction
from ..endpoint.base import EndpointResponse, observe_response
from ..endpoint.clock import SimClock
from ..endpoint.cost import VIEWS_PROFILE, CostModel
from ..obs.metrics import REGISTRY
from ..rdf.dictionary import KIND_STRIDE
from ..rdf.terms import Literal, URI
from ..rdf.vocab import RDF, RDFS, XSD
from ..sparql.ast import (
    AggregateExpr,
    GroupGraphPattern,
    OptionalPattern,
    SelectQuery,
    SubSelectPattern,
    TriplePatternNode,
    Var,
    VarExpr,
)
from ..sparql.errors import SparqlError
from ..sparql.parser import parse_query
from ..sparql.results import SelectResult

__all__ = [
    "PropertyCount",
    "MaterializedViews",
    "PropertyExpansionSpec",
    "SubclassChartSpec",
    "MemberCountSpec",
    "ObjectChartSpec",
    "match_property_expansion",
    "match_subclass_chart",
    "match_member_count",
    "match_object_chart",
    "property_expansion_result",
]

_RDF_TYPE = RDF.term("type")
_RDFS_SUBCLASS = RDFS.term("subClassOf")
_XSD_INTEGER = XSD.term("integer").value

_OUT = 0
_IN = 1
_DIR_INDEX = {Direction.OUTGOING: _OUT, Direction.INCOMING: _IN}

_VIEW_LOOKUPS_TOTAL = REGISTRY.counter(
    "repro_view_lookups_total",
    "Chart-shape lookups against the materialized views, by shape and outcome",
    labelnames=("shape", "outcome"),
)
_VIEW_DELTAS_TOTAL = REGISTRY.counter(
    "repro_view_deltas_total",
    "Graph mutation deltas applied to the materialized view tables",
    labelnames=("op",),
)
_VIEW_REBUILDS_TOTAL = REGISTRY.counter(
    "repro_view_rebuilds_total",
    "View (re)builds: full scans and lazy connection-table materializations",
    labelnames=("reason",),
)
_DELTA_ADD = _VIEW_DELTAS_TOTAL.labels(op="add")
_DELTA_REMOVE = _VIEW_DELTAS_TOTAL.labels(op="remove")


@dataclass(frozen=True)
class PropertyCount:
    """Counts for one property within one class/direction entry."""

    prop: URI
    subject_count: int  # members featuring the property (coverage numerator)
    triple_count: int   # total member triples with the property


# ----------------------------------------------------------------------
# Shape detection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyExpansionSpec:
    """A recognised property-expansion query."""

    classes: tuple
    direction: Direction
    #: projection variable names for (property, subject count, triple sum)
    var_names: tuple


@dataclass(frozen=True)
class SubclassChartSpec:
    """A recognised subclass-expansion chart query."""

    classes: tuple
    parent: URI
    #: projection variable names for (subclass, member count)
    var_names: tuple


@dataclass(frozen=True)
class MemberCountSpec:
    """A recognised bar-height count query."""

    classes: tuple
    #: projection variable name of the count
    var_name: str


@dataclass(frozen=True)
class ObjectChartSpec:
    """A recognised object-expansion (connections) chart query."""

    classes: tuple
    prop: URI
    direction: Direction
    #: projection variable names for (object type, node count)
    var_names: tuple


def _is_var(term, name: Optional[str] = None) -> bool:
    return isinstance(term, Var) and (name is None or term.name == name)


def _parse(query_text: str, query):
    if query is not None:
        return query
    try:
        return parse_query(query_text)
    except SparqlError:
        return None


def _chart_key(query, projections: int) -> Optional[str]:
    """The variable a chart query groups by, or None for any other query.

    The three chart shapes share their outer frame: ``SELECT ?key`` plus
    aggregates (``projections`` columns in all), ``GROUP BY ?key``, and
    no HAVING / DISTINCT / LIMIT / OFFSET.
    """
    if (
        not isinstance(query, SelectQuery)
        or query.projections is None
        or len(query.projections) != projections
        or len(query.group_by) != 1
        or not isinstance(query.group_by[0], VarExpr)
        or query.having
        or query.distinct
        or query.limit is not None
        or query.offset
    ):
        return None
    key = query.group_by[0].var.name
    first = query.projections[0]
    if first.expression is not None or first.var.name != key:
        return None
    return key


def _count_distinct_var(expression) -> Optional[str]:
    """The argument variable of a ``COUNT(DISTINCT ?x)`` expression."""
    if (
        isinstance(expression, AggregateExpr)
        and expression.name == "COUNT"
        and expression.distinct
        and isinstance(expression.argument, VarExpr)
    ):
        return expression.argument.var.name
    return None


def _aggregate_projection(query: SelectQuery, agg_name: str) -> Optional[str]:
    """The AS-variable of the (single) aggregate projection ``agg_name``."""
    assert query.projections is not None
    for projection in query.projections:
        expression = projection.expression
        if isinstance(expression, AggregateExpr) and expression.name == agg_name:
            return projection.var.name
    return None


def match_property_expansion(
    query_text: str, query=None
) -> Optional[PropertyExpansionSpec]:
    """Detect the property-expansion query shape; None when not matched.

    ``query`` may carry the already-parsed AST (the router hands the
    ladder the one its backend compiled) to skip re-parsing the text.

    Matched shape (member variable ``?s``, any variable names accepted):

    .. code-block:: sparql

        SELECT ?p (COUNT(?p) AS ?c) (SUM(?sp) AS ?t) WHERE {
          { SELECT ?s ?p (COUNT(*) AS ?sp) WHERE {
              ?s rdf:type <C1> .  ...  ?s rdf:type <Ck> .
              ?s ?p ?o .          # or  ?o ?p ?s .  for incoming
            } GROUP BY ?s ?p }
        } GROUP BY ?p

    The member pattern must consist solely of ``rdf:type`` constraints —
    that is, the bar sits on a (materialised) subclass chain, which is
    the paper's "subclasses of owl:Thing" condition.
    """
    query = _parse(query_text, query)
    # Outer: GROUP BY one variable, projections = that var + COUNT + SUM.
    prop_var = _chart_key(query, projections=3)
    if prop_var is None:
        return None
    count_var = _aggregate_projection(query, "COUNT")
    sum_var = _aggregate_projection(query, "SUM")
    if count_var is None or sum_var is None:
        return None
    # Body: exactly one sub-select.
    children = query.where.children
    if len(children) != 1 or not isinstance(children[0], SubSelectPattern):
        return None
    inner = children[0].query
    if inner.projections is None or len(inner.group_by) != 2:
        return None
    if not all(isinstance(key, VarExpr) for key in inner.group_by):
        return None
    inner_keys = {key.var.name for key in inner.group_by}  # type: ignore[union-attr]
    if prop_var not in inner_keys:
        return None
    member_var = (inner_keys - {prop_var}).pop()
    # Inner projections: ?s ?p (COUNT(*) AS ?sp).
    inner_count = None
    for projection in inner.projections:
        expression = projection.expression
        if isinstance(expression, AggregateExpr):
            if expression.name != "COUNT" or expression.argument is not None:
                return None
            inner_count = projection.var.name
    if inner_count is None:
        return None
    # Inner body: only triple patterns.
    if not isinstance(inner.where, GroupGraphPattern):
        return None
    type_classes: List[URI] = []
    edge: Optional[TriplePatternNode] = None
    for child in inner.where.children:
        if not isinstance(child, TriplePatternNode):
            return None
        if (
            _is_var(child.subject, member_var)
            and child.predicate == _RDF_TYPE
            and isinstance(child.object, URI)
        ):
            type_classes.append(child.object)
        elif _is_var(child.predicate, prop_var):
            if edge is not None:
                return None
            edge = child
        else:
            return None
    if edge is None or not type_classes:
        return None
    if _is_var(edge.subject, member_var) and _is_var(edge.object):
        direction = Direction.OUTGOING
    elif _is_var(edge.object, member_var) and _is_var(edge.subject):
        direction = Direction.INCOMING
    else:
        return None
    return PropertyExpansionSpec(
        classes=tuple(type_classes),
        direction=direction,
        var_names=(prop_var, count_var, sum_var),
    )


def match_subclass_chart(query_text: str, query=None) -> Optional[SubclassChartSpec]:
    """Detect the subclass-chart shape of
    :func:`repro.core.queries.subclass_chart_query`; None when unmatched.

    .. code-block:: sparql

        SELECT ?sub (COUNT(DISTINCT ?s) AS ?count) WHERE {
          ?sub rdfs:subClassOf <parent> .
          OPTIONAL {
            ?s rdf:type <C1> .  ...  ?s rdf:type <Ck> .
            ?s rdf:type ?sub .
          }
        } GROUP BY ?sub ORDER BY DESC(?count)

    The member pattern must consist solely of ``rdf:type`` constraints.
    """
    query = _parse(query_text, query)
    sub_var = _chart_key(query, projections=2)
    if sub_var is None:
        return None
    member_var = _count_distinct_var(query.projections[1].expression)
    if member_var is None or member_var == sub_var:
        return None
    count_var = query.projections[1].var.name
    children = query.where.children
    if len(children) != 2:
        return None
    anchor, optional = children
    if (
        not isinstance(anchor, TriplePatternNode)
        or not _is_var(anchor.subject, sub_var)
        or anchor.predicate != _RDFS_SUBCLASS
        or not isinstance(anchor.object, URI)
    ):
        return None
    if not isinstance(optional, OptionalPattern):
        return None
    type_classes: List[URI] = []
    link_seen = False
    for child in optional.pattern.children:
        if (
            not isinstance(child, TriplePatternNode)
            or not _is_var(child.subject, member_var)
            or child.predicate != _RDF_TYPE
        ):
            return None
        if isinstance(child.object, URI):
            type_classes.append(child.object)
        elif _is_var(child.object, sub_var) and not link_seen:
            link_seen = True
        else:
            return None
    if not link_seen or not type_classes:
        return None
    return SubclassChartSpec(
        classes=tuple(type_classes),
        parent=anchor.object,
        var_names=(sub_var, count_var),
    )


def match_member_count(query_text: str, query=None) -> Optional[MemberCountSpec]:
    """Detect the bar-height shape of
    :func:`repro.core.queries.count_query` over a pure type pattern:
    ``SELECT (COUNT(DISTINCT ?s) AS ?count) WHERE { ?s rdf:type <Ci> . ... }``.
    """
    query = _parse(query_text, query)
    if not isinstance(query, SelectQuery) or query.projections is None:
        return None
    if len(query.projections) != 1 or query.group_by:
        return None
    member_var = _count_distinct_var(query.projections[0].expression)
    if member_var is None:
        return None
    if query.having or query.distinct or query.limit is not None or query.offset:
        return None
    type_classes: List[URI] = []
    for child in query.where.children:
        if (
            not isinstance(child, TriplePatternNode)
            or not _is_var(child.subject, member_var)
            or child.predicate != _RDF_TYPE
            or not isinstance(child.object, URI)
        ):
            return None
        type_classes.append(child.object)
    if not type_classes:
        return None
    return MemberCountSpec(
        classes=tuple(type_classes), var_name=query.projections[0].var.name
    )


def match_object_chart(query_text: str, query=None) -> Optional[ObjectChartSpec]:
    """Detect the connections-chart shape of
    :func:`repro.core.queries.object_chart_query`; None when unmatched.

    .. code-block:: sparql

        SELECT ?type (COUNT(DISTINCT ?node) AS ?count) WHERE {
          ?s rdf:type <C1> .  ...  ?s rdf:type <Ck> .
          ?s <prop> ?node .        # or  ?node <prop> ?s .  for incoming
          ?node rdf:type ?type .
        } GROUP BY ?type ORDER BY DESC(?count)

    The bar's own property-existence line (``?s <prop> ?vN .`` with an
    otherwise unused variable, added by ``MemberPattern.and_property``)
    is accepted as redundant — the chart's edge line subsumes it.
    """
    query = _parse(query_text, query)
    type_var = _chart_key(query, projections=2)
    if type_var is None:
        return None
    node_var = _count_distinct_var(query.projections[1].expression)
    if node_var is None or node_var == type_var:
        return None
    count_var = query.projections[1].var.name
    children = query.where.children
    if not all(isinstance(child, TriplePatternNode) for child in children):
        return None
    uses: Dict[str, int] = {}
    for child in children:
        for term in (child.subject, child.predicate, child.object):
            if isinstance(term, Var):
                uses[term.name] = uses.get(term.name, 0) + 1
    node_type = [
        child
        for child in children
        if _is_var(child.subject, node_var)
        and child.predicate == _RDF_TYPE
        and _is_var(child.object, type_var)
    ]
    if len(node_type) != 1 or uses.get(type_var) != 1 or uses.get(node_var) != 2:
        return None
    edges = [
        child
        for child in children
        if child is not node_type[0]
        and (_is_var(child.subject, node_var) or _is_var(child.object, node_var))
    ]
    if len(edges) != 1 or not isinstance(edges[0].predicate, URI):
        return None
    edge = edges[0]
    prop = edge.predicate
    if _is_var(edge.object, node_var) and _is_var(edge.subject):
        member_var = edge.subject.name
        direction = Direction.OUTGOING
    elif _is_var(edge.subject, node_var) and _is_var(edge.object):
        member_var = edge.object.name
        direction = Direction.INCOMING
    else:
        return None
    if member_var in (node_var, type_var):
        return None
    type_classes: List[URI] = []
    for child in children:
        if child is edge or child is node_type[0]:
            continue
        if (
            _is_var(child.subject, member_var)
            and child.predicate == _RDF_TYPE
            and isinstance(child.object, URI)
        ):
            type_classes.append(child.object)
            continue
        if child.predicate == prop:
            # The bar pattern's own "?s <prop> ?vN" existence line.
            if (
                direction is Direction.OUTGOING
                and _is_var(child.subject, member_var)
                and isinstance(child.object, Var)
                and uses.get(child.object.name) == 1
            ):
                continue
            if (
                direction is Direction.INCOMING
                and _is_var(child.object, member_var)
                and isinstance(child.subject, Var)
                and uses.get(child.subject.name) == 1
            ):
                continue
        return None
    if not type_classes:
        return None
    return ObjectChartSpec(
        classes=tuple(type_classes),
        prop=prop,
        direction=direction,
        var_names=(type_var, count_var),
    )


# ----------------------------------------------------------------------
# The view store
# ----------------------------------------------------------------------


class MaterializedViews:
    """ID-keyed aggregate tables behind the three chart shapes.

    Built eagerly from the graph; with ``track=True`` (the default, on
    stores that support mutation listeners) the instance registers
    itself as a :meth:`~repro.rdf.graph.Graph.add_listener` delta
    listener and stays current across ``add``/``remove``/``bulk_load``
    without rebuilding — ``is_fresh`` then never goes stale.  With
    ``track=False`` the tables are the decomposer's build-once
    specialised indexes (paper, Section 4): ``version`` records the
    build version and ``is_fresh`` compares it against the live graph,
    so the router falls back to the backend after the first mutation.
    """

    def __init__(
        self,
        graph,
        clock: Optional[SimClock] = None,
        cost_model: CostModel = VIEWS_PROFILE,
        track: bool = True,
    ):
        self.graph = graph
        self.clock = clock or SimClock()
        self.cost_model = cost_model
        self._track = bool(track) and hasattr(graph, "add_listener")
        self.hits = 0
        self.misses = 0
        #: Number of index entries touched by lookups (drives the
        #: decomposer's simulated latency; views charge per bar instead).
        self.entries_touched = 0
        # Cached predicate IDs; None until the term is interned.
        self._rdf_type_id: Optional[int] = None
        self._subclass_id: Optional[int] = None
        # --- eager ID-keyed tables -----------------------------------
        # class id -> set of member ids (URI members only)
        self._instances: Dict[int, Set[int]] = {}
        # node id -> set of class ids (reverse of _instances)
        self._types: Dict[int, Set[int]] = {}
        # parent class id -> set of direct subclass ids
        self._subclasses: Dict[int, Set[int]] = {}
        # per direction: node id -> property id -> triple count
        self._props: Tuple[Dict[int, Dict[int, int]], ...] = ({}, {})
        # (class id, direction) -> property id -> [subject_count, triple_count]
        self._class_props: Dict[Tuple[int, int], Dict[int, List[int]]] = {}
        # --- lazy connection tables ----------------------------------
        # (class id, property id, direction) -> connected node id -> refcount
        self._conn: Dict[Tuple[int, int, int], Dict[int, int]] = {}
        self._build()
        _VIEW_REBUILDS_TOTAL.labels(reason="initial").inc()
        if self._track:
            graph.add_listener(self)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def _build(self) -> None:
        # Entirely in ID space over the encoded indexes: "is this a URI?"
        # is an integer range check (URI-kind IDs sit below KIND_STRIDE)
        # and all counting hashes plain ints.  Terms are decoded only at
        # the lookup boundary.
        graph = self.graph
        dictionary = graph.dictionary
        instances = self._instances
        types = self._types
        self._rdf_type_id = dictionary.lookup(_RDF_TYPE)
        if self._rdf_type_id is not None:
            for s, _p, o in graph.triples_ids(None, self._rdf_type_id, None):
                if o < KIND_STRIDE and s < KIND_STRIDE:
                    instances.setdefault(o, set()).add(s)
                    types.setdefault(s, set()).add(o)
        self._subclass_id = dictionary.lookup(_RDFS_SUBCLASS)
        if self._subclass_id is not None:
            for s, _p, o in graph.triples_ids(None, self._subclass_id, None):
                if o < KIND_STRIDE and s < KIND_STRIDE:
                    self._subclasses.setdefault(o, set()).add(s)
        out_counts, in_counts = self._props
        for s, p, o in graph.triples_ids():
            if s < KIND_STRIDE:
                node_out = out_counts.setdefault(s, {})
                node_out[p] = node_out.get(p, 0) + 1
            if o < KIND_STRIDE:
                node_in = in_counts.setdefault(o, {})
                node_in[p] = node_in.get(p, 0) + 1
        for cls, members in instances.items():
            for direction, node_counts in ((_OUT, out_counts), (_IN, in_counts)):
                per_property: Dict[int, List[int]] = {}
                for member in members:
                    for prop, count in node_counts.get(member, {}).items():
                        entry = per_property.setdefault(prop, [0, 0])
                        entry[0] += 1
                        entry[1] += count
                if per_property:
                    self._class_props[(cls, direction)] = per_property
        self.version = graph.version

    def _rebuild(self, reason: str) -> None:
        self._instances = {}
        self._types = {}
        self._subclasses = {}
        self._props = ({}, {})
        self._class_props = {}
        self._conn = {}
        self._build()
        _VIEW_REBUILDS_TOTAL.labels(reason=reason).inc()

    def detach(self) -> None:
        """Stop tracking graph mutations (freshness becomes version-based)."""
        if self._track:
            self.graph.remove_listener(self)
            self._track = False

    @property
    def is_fresh(self) -> bool:
        """Whether lookups reflect the graph's current state.

        Tracked views are maintained by mutation deltas and never go
        stale; untracked (build-once) views compare versions.
        """
        return self._track or self.graph.version == self.version

    # ------------------------------------------------------------------
    # Delta maintenance (Graph mutation-listener protocol)
    # ------------------------------------------------------------------

    def on_added(self, s: int, p: int, o: int) -> None:
        self._apply_delta(s, p, o, 1)
        _DELTA_ADD.inc()

    def on_removed(self, s: int, p: int, o: int) -> None:
        self._apply_delta(s, p, o, -1)
        _DELTA_REMOVE.inc()

    def on_cleared(self) -> None:
        self._rebuild(reason="clear")

    def _apply_delta(self, s: int, p: int, o: int, sign: int) -> None:
        # rdf:type / rdfs:subClassOf may have been interned by this very
        # mutation; resolve lazily until found (IDs are stable after).
        if self._rdf_type_id is None:
            self._rdf_type_id = self.graph.dictionary.lookup(_RDF_TYPE)
        if self._subclass_id is None:
            self._subclass_id = self.graph.dictionary.lookup(_RDFS_SUBCLASS)
        s_is_uri = s < KIND_STRIDE
        o_is_uri = o < KIND_STRIDE
        # 1. Generic edge accounting against the *pre-mutation* class
        # membership (every triple is an edge — rdf:type included).
        if s_is_uri:
            self._edge_delta(_OUT, s, p, o, sign)
        if o_is_uri:
            self._edge_delta(_IN, o, p, s, sign)
        # 2. Membership / hierarchy maintenance, folding the node's full
        # per-property counts into (or out of) the class entry.
        if p == self._rdf_type_id and s_is_uri and o_is_uri:
            if sign > 0:
                self._member_added(o, s)
            else:
                self._member_removed(o, s)
        elif p == self._subclass_id and s_is_uri and o_is_uri:
            if sign > 0:
                self._subclasses.setdefault(o, set()).add(s)
            else:
                subs = self._subclasses.get(o)
                if subs is not None:
                    subs.discard(s)
                    if not subs:
                        del self._subclasses[o]
        self.version = self.graph.version

    def _edge_delta(self, direction: int, node: int, prop: int, other: int, sign: int) -> None:
        side = self._props[direction]
        node_props = side.setdefault(node, {})
        old = node_props.get(prop, 0)
        new = old + sign
        if new:
            node_props[prop] = new
        else:
            node_props.pop(prop, None)
        if not node_props:
            del side[node]
        for cls in self._types.get(node, ()):
            table = self._class_props.setdefault((cls, direction), {})
            entry = table.setdefault(prop, [0, 0])
            entry[1] += sign
            if sign > 0 and old == 0:
                entry[0] += 1
            elif sign < 0 and new == 0:
                entry[0] -= 1
            if entry[0] == 0 and entry[1] == 0:
                del table[prop]
            if not table:
                del self._class_props[(cls, direction)]
            conn = self._conn.get((cls, prop, direction))
            if conn is not None and other < KIND_STRIDE:
                refcount = conn.get(other, 0) + sign
                if refcount:
                    conn[other] = refcount
                else:
                    conn.pop(other, None)

    def _member_added(self, cls: int, member: int) -> None:
        self._instances.setdefault(cls, set()).add(member)
        self._types.setdefault(member, set()).add(cls)
        for direction in (_OUT, _IN):
            node_props = self._props[direction].get(member)
            if node_props:
                table = self._class_props.setdefault((cls, direction), {})
                for prop, count in node_props.items():
                    entry = table.setdefault(prop, [0, 0])
                    entry[0] += 1
                    entry[1] += count
        self._drop_connections(cls)

    def _member_removed(self, cls: int, member: int) -> None:
        members = self._instances.get(cls)
        if members is None or member not in members:
            return
        members.discard(member)
        if not members:
            del self._instances[cls]
        types = self._types.get(member)
        if types is not None:
            types.discard(cls)
            if not types:
                del self._types[member]
        for direction in (_OUT, _IN):
            node_props = self._props[direction].get(member)
            if not node_props:
                continue
            key = (cls, direction)
            table = self._class_props.get(key)
            if table is None:
                continue
            for prop, count in node_props.items():
                entry = table.get(prop)
                if entry is None:
                    continue
                entry[0] -= 1
                entry[1] -= count
                if entry[0] == 0 and entry[1] == 0:
                    del table[prop]
            if not table:
                del self._class_props[key]
        self._drop_connections(cls)

    def _drop_connections(self, cls: int) -> None:
        # A membership change invalidates the class's materialized
        # connection tables; they re-materialize lazily on next lookup.
        doomed = [key for key in self._conn if key[0] == cls]
        for key in doomed:
            del self._conn[key]

    # ------------------------------------------------------------------
    # Lookups (term-space boundary)
    # ------------------------------------------------------------------

    def _instance_ids(self, cls: URI) -> Optional[Set[int]]:
        cls_id = self.graph.dictionary.lookup(cls)
        if cls_id is None:
            return None
        return self._instances.get(cls_id)

    def instances(self, cls: URI) -> FrozenSet[URI]:
        """The instance set of ``cls`` (empty when unknown)."""
        members = self._instance_ids(cls)
        if not members:
            return frozenset()
        decode = self.graph.dictionary.decode
        return frozenset(decode(member) for member in members)

    def instance_count(self, cls: URI) -> int:
        members = self._instance_ids(cls)
        return len(members) if members else 0

    def classes(self) -> List[URI]:
        """All classes with at least one instance."""
        decode = self.graph.dictionary.decode
        return sorted(
            (decode(cls) for cls in self._instances), key=lambda cls: cls.value
        )

    def _chain_base(self, classes) -> Optional[Tuple[int, Set[int]]]:
        """The smallest class ID + members along a nested class chain.

        Returns None when a class is unknown or the instance sets do not
        nest (arbitrary intersections are not covered by the per-class
        tables; the router falls through to the backend).
        """
        if not classes:
            return None
        lookup = self.graph.dictionary.lookup
        pairs = []
        for cls in classes:
            cls_id = lookup(cls)
            members = self._instances.get(cls_id) if cls_id is not None else None
            if members is None:
                return None
            pairs.append((cls_id, members))
        pairs.sort(key=lambda pair: len(pair[1]))
        smallest_id, smallest = pairs[0]
        if not all(smallest <= members for _cls, members in pairs[1:]):
            return None
        return smallest_id, smallest

    def property_expansion(
        self, classes: List[URI], direction: Direction
    ) -> Optional[List[PropertyCount]]:
        """Per-property counts for the members of all given classes.

        With a single class (or when one class's instance set is
        contained in all others — always true along a materialised
        subclass chain) the maintained entry is decoded directly, in
        O(bars).  Returns None when any class is unknown to the views.
        """
        base = self._chain_base(classes)
        if base is None:
            return None
        cls_id, members = base
        table = self._class_props.get((cls_id, _DIR_INDEX[direction]), {})
        decode = self.graph.dictionary.decode
        rows = [
            PropertyCount(decode(prop), subjects, triples)
            for prop, (subjects, triples) in table.items()
        ]
        rows.sort(key=lambda row: (-row.subject_count, row.prop.value))
        self.entries_touched += len(rows) + len(members)
        return rows

    def member_count(self, classes) -> Optional[int]:
        """``COUNT(DISTINCT ?s)`` over the intersection of type constraints.

        Unlike the chain-gated expansions this is exact for arbitrary
        intersections — the instance ID sets are at hand.  Returns None
        only when no class was given.
        """
        if not classes:
            return None
        sets = []
        for cls in classes:
            members = self._instance_ids(cls)
            if not members:
                return 0
            sets.append(members)
        sets.sort(key=len)
        base = sets[0]
        for other in sets[1:]:
            base = base & other
            if not base:
                return 0
        return len(base)

    def subclass_chart(
        self, classes, parent: URI
    ) -> Optional[List[Tuple[URI, int]]]:
        """Per-direct-subclass member counts under the given type pattern.

        Row per subclass (zero counts included, mirroring the OPTIONAL
        in the generated query), sorted by descending count.
        """
        if not classes:
            return None
        dictionary = self.graph.dictionary
        parent_id = dictionary.lookup(parent)
        subs = self._subclasses.get(parent_id, ()) if parent_id is not None else ()
        sets = []
        for cls in classes:
            members = self._instance_ids(cls)
            if not members:
                sets = None
                break
            sets.append(members)
        base: Set[int] = set()
        if sets:
            sets.sort(key=len)
            base = sets[0]
            for other in sets[1:]:
                base = base & other
        decode = dictionary.decode
        rows = []
        for sub in subs:
            members = self._instances.get(sub)
            count = len(members & base) if (members and base) else 0
            rows.append((decode(sub), count))
        rows.sort(key=lambda row: (-row[1], row[0].value))
        return rows

    def connection_expansion(
        self, classes, prop: URI, direction: Direction
    ) -> Optional[List[Tuple[URI, int]]]:
        """Connected nodes of the members via ``prop``, grouped by type.

        Served from the lazily materialized refcount table for the
        chain's smallest class; None when the class sets do not nest.
        """
        if not classes:
            return None
        known = [cls for cls in classes if self._instance_ids(cls)]
        if len(known) < len(classes):
            # Some class has no instances: no members, no connections.
            return []
        base = self._chain_base(classes)
        if base is None:
            return None
        cls_id, _members = base
        prop_id = self.graph.dictionary.lookup(prop)
        if prop_id is None:
            return []
        table = self._connection_table(cls_id, prop_id, _DIR_INDEX[direction])
        counts: Dict[int, int] = {}
        for node, refcount in table.items():
            if refcount <= 0:
                continue
            for cls in self._types.get(node, ()):
                counts[cls] = counts.get(cls, 0) + 1
        decode = self.graph.dictionary.decode
        rows = [(decode(cls), count) for cls, count in counts.items()]
        rows.sort(key=lambda row: (-row[1], row[0].value))
        return rows

    def _connection_table(
        self, cls_id: int, prop_id: int, direction: int
    ) -> Dict[int, int]:
        key = (cls_id, prop_id, direction)
        table = self._conn.get(key)
        if table is not None:
            return table
        table = {}
        members = self._instances.get(cls_id, ())
        graph = self.graph
        if direction == _OUT:
            for member in members:
                for _s, _p, node in graph.triples_ids(member, prop_id, None):
                    if node < KIND_STRIDE:
                        table[node] = table.get(node, 0) + 1
        else:
            for member in members:
                for node, _p, _o in graph.triples_ids(None, prop_id, member):
                    if node < KIND_STRIDE:
                        table[node] = table.get(node, 0) + 1
        self._conn[key] = table
        _VIEW_REBUILDS_TOTAL.labels(reason="connection").inc()
        return table

    # ------------------------------------------------------------------
    # Endpoint-facing answering
    # ------------------------------------------------------------------

    def try_answer(self, query_text: str, query=None) -> Optional[EndpointResponse]:
        """Answer a recognised chart query from the views, or None.

        ``query`` is the text's AST when the caller already has it (the
        router's door); without one the text is parsed here.
        """
        parsed = _parse(query_text, query)
        if parsed is None:
            return self._miss("other")
        # Property expansion — the paper's heavy query — first: it is by
        # far the most frequent view-served shape.
        prop_spec = match_property_expansion(query_text, query=parsed)
        if prop_spec is not None:
            rows = self.property_expansion(
                list(prop_spec.classes), prop_spec.direction
            )
            if rows is None:
                return self._miss("property")
            return self._hit(
                "property", property_expansion_result(prop_spec, rows), query_text
            )
        sub_spec = match_subclass_chart(query_text, query=parsed)
        if sub_spec is not None:
            pairs = self.subclass_chart(list(sub_spec.classes), sub_spec.parent)
            if pairs is None:
                return self._miss("subclass")
            sub_var, count_var = sub_spec.var_names
            result = SelectResult(
                [sub_var, count_var],
                [
                    {sub_var: sub, count_var: _int_literal(count)}
                    for sub, count in pairs
                ],
            )
            return self._hit("subclass", result, query_text)
        obj_spec = match_object_chart(query_text, query=parsed)
        if obj_spec is not None:
            pairs = self.connection_expansion(
                list(obj_spec.classes), obj_spec.prop, obj_spec.direction
            )
            if pairs is None:
                return self._miss("connection")
            type_var, count_var = obj_spec.var_names
            result = SelectResult(
                [type_var, count_var],
                [
                    {type_var: cls, count_var: _int_literal(count)}
                    for cls, count in pairs
                ],
            )
            return self._hit("connection", result, query_text)
        count_spec = match_member_count(query_text, query=parsed)
        if count_spec is not None:
            count = self.member_count(list(count_spec.classes))
            if count is None:
                return self._miss("count")
            result = SelectResult(
                [count_spec.var_name],
                [{count_spec.var_name: _int_literal(count)}],
            )
            return self._hit("count", result, query_text)
        return self._miss("other")

    def _miss(self, shape: str) -> None:
        self.misses += 1
        _VIEW_LOOKUPS_TOTAL.labels(shape=shape, outcome="miss").inc()
        return None

    def _hit(
        self, shape: str, result: SelectResult, query_text: str
    ) -> EndpointResponse:
        self.hits += 1
        _VIEW_LOOKUPS_TOTAL.labels(shape=shape, outcome="hit").inc()
        # Simulated latency: per-bar row assembly only — the aggregates
        # are already sitting in the maintained tables (O(bars)).
        elapsed = self.cost_model.simulate_ms(
            intermediate_bindings=0,
            pattern_scans=0,
            result_rows=len(result.rows),
        )
        self.clock.advance(elapsed)
        response = EndpointResponse(
            result=result,
            elapsed_ms=elapsed,
            source="views",
            query_text=query_text,
            stats=None,
        )
        observe_response(response)
        return response

    # ------------------------------------------------------------------
    # Testing support
    # ------------------------------------------------------------------

    def table_state(self):
        """Normalized snapshot of the eager tables (delta ≡ rebuild tests)."""
        return {
            "instances": {
                cls: frozenset(members)
                for cls, members in self._instances.items()
            },
            "types": {
                node: frozenset(classes) for node, classes in self._types.items()
            },
            "subclasses": {
                parent: frozenset(subs)
                for parent, subs in self._subclasses.items()
            },
            "props": tuple(
                {node: dict(props) for node, props in side.items()}
                for side in self._props
            ),
            "class_props": {
                key: {prop: tuple(entry) for prop, entry in table.items()}
                for key, table in self._class_props.items()
            },
        }


def _int_literal(value: int) -> Literal:
    return Literal(str(value), datatype=_XSD_INTEGER)


def property_expansion_result(
    spec: PropertyExpansionSpec, rows: List[PropertyCount]
) -> SelectResult:
    """The property chart's result under the query's own variable names
    (the one answer body of the views rung and the decomposer rung)."""
    prop_var, count_var, sum_var = spec.var_names
    return SelectResult(
        [prop_var, count_var, sum_var],
        [
            {
                prop_var: row.prop,
                count_var: _int_literal(row.subject_count),
                sum_var: _int_literal(row.triple_count),
            }
            for row in rows
        ],
    )
