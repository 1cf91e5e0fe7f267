"""RDF substrate: terms, triples, indexed graph store, namespaces, and I/O.

This package implements the data model of the paper's Section 2 from
scratch: URIs **U**, literals **L**, RDF triples in ``U x U x (U ∪ L)``,
and finite RDF graphs with pattern-matching access.
"""

from .dictionary import KIND_STRIDE, TermDictionary, kind_name, kind_of_id
from .graph import SCAN_ORDER, Graph
from .namespace import Namespace, NamespaceManager
from .stats import GraphStatistics, statistics_for
from .ntriples import (
    NTriplesError,
    dump_ntriples,
    load_ntriples,
    parse_ntriples,
    parse_ntriples_line,
    serialize_ntriples,
)
from .snapshot import (
    SnapshotChecksumError,
    SnapshotDictionary,
    SnapshotError,
    SnapshotFormatError,
    SnapshotGraph,
    SnapshotMagicError,
    SnapshotReadOnlyError,
    SnapshotTruncatedError,
    SnapshotVersionError,
    build_snapshot_bytes,
    open_snapshot,
    snapshot_info,
    write_snapshot,
)
from .terms import BNode, Literal, RDFObject, Subject, Term, URI
from .triple import Triple, TriplePattern
from .turtle import TurtleError, parse_turtle, serialize_turtle
from .vocab import (
    DBO,
    DBR,
    DC,
    ELINDA,
    FOAF,
    OWL,
    RDF,
    RDFS,
    XSD,
    default_namespace_manager,
)

__all__ = [
    "Term",
    "URI",
    "BNode",
    "Literal",
    "Subject",
    "RDFObject",
    "Triple",
    "TriplePattern",
    "Graph",
    "SCAN_ORDER",
    "TermDictionary",
    "KIND_STRIDE",
    "kind_of_id",
    "kind_name",
    "GraphStatistics",
    "statistics_for",
    "SnapshotGraph",
    "SnapshotDictionary",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotMagicError",
    "SnapshotVersionError",
    "SnapshotChecksumError",
    "SnapshotTruncatedError",
    "SnapshotReadOnlyError",
    "build_snapshot_bytes",
    "write_snapshot",
    "open_snapshot",
    "snapshot_info",
    "Namespace",
    "NamespaceManager",
    "NTriplesError",
    "parse_ntriples",
    "parse_ntriples_line",
    "serialize_ntriples",
    "load_ntriples",
    "dump_ntriples",
    "TurtleError",
    "parse_turtle",
    "serialize_turtle",
    "RDF",
    "RDFS",
    "OWL",
    "XSD",
    "FOAF",
    "DC",
    "DBO",
    "DBR",
    "ELINDA",
    "default_namespace_manager",
]
