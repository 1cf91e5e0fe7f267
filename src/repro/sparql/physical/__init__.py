"""Suspendable physical operators for the SPARQL engine.

This package is the engine's execution layer, in the style of
sage-engine's preemptable iterators.  A tree of recursive generators
keeps its control state on the Python stack and can only run to
completion, so a heavy query could not be paused; here every operator
is an explicit object with a uniform

    ``next(limit) -> List[Binding]`` / ``save() -> state`` / ``load(state)``

protocol.  ``next(limit)`` performs one *bounded* unit of work and
returns at most ``limit`` solution mappings — possibly none, when the
call made progress but has no row yet (a build phase, rejected
candidates, a suspended child).  ``done`` reports exhaustion.  One
constant, :data:`BLOCK`, bounds the unit everywhere: rows returned,
child rows a blocking phase absorbs (``child.next(BLOCK)``), candidates
a scan examines, groups an aggregation emits.  Operators whose resume
state is "current outer row + offset" (the scans, hash-join and OPTIONAL
probe sides) pull their streaming input one row at a time
(``child.next(1)``) and fill the block across outer rows; the executor
asks the root for no more rows than the page has room for, so nothing
ever has to hold produced rows back.  Because no control state hides in
generator frames, an operator tree can be stopped between any two
``next(limit)`` calls, serialised with :meth:`PhysicalOperator.save`
into a JSON-able state tree, and reconstructed later with
:meth:`PhysicalOperator.load` — the substrate of the time-quantum
executor (:mod:`repro.sparql.executor`) and its continuation tokens.

Determinism contract: ``load`` replays index scans by skipping
``offset`` candidates, which reproduces the original sequence as long as
the graph is unchanged (the executor enforces this through the graph
``version`` stamped into every token) and iteration happens in the same
process.  Blocking state (hash-join build tables, DISTINCT seen sets,
heaps, aggregation groups, sort buffers still building) is serialised
verbatim, so a restored plan continues exactly where it stopped.  The
exception is state that can no longer change: a *finished* sort's
output is cut once into :data:`BLOCK`-row chunks (``aggregate._Run``),
each encoded at most once per process into a text *segment* that
travels beside the state tree (``"$segments"``; behind the head of a
continuation token) and is decoded at most once, when emission reaches
it — the tree itself holds ``{"$run": [first, count], "skip": n}``.

**ID-space execution.**  Since PR 5 every in-plan binding value is a raw
``int`` — the :class:`~repro.rdf.dictionary.TermDictionary` ID of the
term — not a :class:`~repro.rdf.terms.Term` object.  Scans read
``Graph.triples_ids``; join probes, DISTINCT seen-sets, MINUS
compatibility checks, and group keys all hash and compare plain
integers.  The only places terms are materialized are the expression
boundaries (FILTER / BIND / ORDER BY / aggregates outside the chart
shape decode a row, and any computed term is re-interned so binding
values stay uniformly encoded) and the :class:`MaterializeOp` the
planner mounts at the plan root, which decodes each result row exactly
once.  The chart shape itself never crosses: the pattern scan extends a
slice of candidate ID triples with one comprehension, and
:class:`AggregationOp` folds ``COUNT(*)`` / ``COUNT(?v)`` / ``SUM(?v)``
/ ``AVG(?v)`` over plain-variable keys on IDs alone (one flat counter
list per group; per-execution ``id -> number`` and ``count -> id``
memos).  Scan-offset continuation
state therefore lives in ID space; IDs are stable for the lifetime of
the store, and the executor's graph-``version`` check already rejects
tokens whose triples changed.

**Order property.**  :meth:`PhysicalOperator.clustered_on` carries the
stores' sorted-scan contract (:data:`repro.rdf.graph.SCAN_ORDER`) up the
tree as the variables an output is *keyed and sorted by*:
:class:`SingletonOp` says ``()``, a :class:`PatternScanOp` over a keyed
child appends its open variables in scan order, everything else claims
nothing.  :class:`AggregationOp` releases a group when the partition it
belongs to — the leading group keys of that claim — has ended; an
unordered input is the one partition that ends with the input.

Layout: :mod:`.base` defines the operator protocol and the ID/term
boundary helpers, :mod:`.scan` the leaves (singleton, VALUES, pattern
scan), :mod:`.ppath` the preemptable property-path traversal (BFS
closures over int frontiers with the frontier/visited/cursor state
serialised into the token instead of a skip-ahead offset),
:mod:`.rows` the streaming per-row operators (filter/bind/project/
distinct/slice), :mod:`.join` the stream combinators (hash join,
OPTIONAL, MINUS, UNION), :mod:`.aggregate` the blocking analytics
(GROUP BY, ORDER BY, top-k), and :mod:`.materialize` the plan-root
decode boundary.  This ``__init__`` re-exports everything so
``repro.sparql.physical`` keeps its original flat surface.

Operator trees are compiled from algebra trees by
:mod:`repro.sparql.planner`; this package only defines the operators.
"""

from __future__ import annotations

from .base import (
    BLOCK,
    PhysicalOperator,
    PlanStateError,
    _UnaryOp,
    _check,
    _check_ids,
    _decode_opt_term,
    _decode_row,
    _encode_opt_term,
    _encode_value,
    _value_from_json,
    _value_to_json,
    decode_binding,
    encode_binding,
)
from .scan import PatternScanOp, SingletonOp, ValuesOp
from .ppath import PathScanOp
from .rows import (
    DistinctOp,
    ExtendOp,
    FilterOp,
    ProjectOp,
    ReducedOp,
    SliceOp,
    _decode_key,
    _encode_key,
    _KeyOrder,
)
from .join import HashJoinOp, LeftJoinOp, MinusOp, UnionOp
from .aggregate import AggregationOp, OrderByOp, TopKOp, _order_key
from .materialize import MaterializeOp, drain

__all__ = [
    "BLOCK",
    "PlanStateError",
    "PhysicalOperator",
    "SingletonOp",
    "ValuesOp",
    "PatternScanOp",
    "PathScanOp",
    "FilterOp",
    "ExtendOp",
    "HashJoinOp",
    "LeftJoinOp",
    "MinusOp",
    "UnionOp",
    "AggregationOp",
    "ProjectOp",
    "DistinctOp",
    "ReducedOp",
    "OrderByOp",
    "TopKOp",
    "SliceOp",
    "MaterializeOp",
    "encode_binding",
    "decode_binding",
    "drain",
]
