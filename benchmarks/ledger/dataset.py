"""The pinned dataset, its manifest, and the machine fingerprint.

The dataset seed is fixed; ``--seed`` only drives the click generator.
``manifest.json`` records, per named scale, what
``generate_dbpedia(DBpediaConfig(scale, seed))`` must produce: the
triple count and the SHA-256 of the sorted N-Triples dump.  A run
recomputes both and refuses to start on drift, so a ledger row always
refers to the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import subprocess
from typing import Dict

from repro.datasets import DBpediaConfig, generate_dbpedia
from repro.rdf.ntriples import serialize_ntriples

__all__ = [
    "DATASET_SEED",
    "SCALES",
    "MANIFEST_PATH",
    "DatasetDrift",
    "generate",
    "content_hash",
    "describe",
    "verify",
    "fingerprint",
]

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST_PATH = HERE / "manifest.json"

DATASET_SEED = 42
#: "pinned" is the ledger's dataset (the ROADMAP "100k column");
#: "smoke" is the quick harness check (``run.py --smoke``, the tests).
SCALES: Dict[str, float] = {"pinned": 0.001, "smoke": 0.00025}


class DatasetDrift(RuntimeError):
    """The generated dataset no longer matches the manifest."""


def generate(scale_name: str):
    """The synthetic dataset at a named scale (a fresh graph each call)."""
    return generate_dbpedia(DBpediaConfig(scale=SCALES[scale_name], seed=DATASET_SEED))


def content_hash(graph) -> str:
    """SHA-256 of the graph's sorted N-Triples dump."""
    text = serialize_ntriples(graph.triples(), sort=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def describe(scale_name: str, graph) -> Dict[str, object]:
    """The manifest entry ``graph`` amounts to."""
    return {
        "generator": "repro.datasets.generate_dbpedia",
        "seed": DATASET_SEED,
        "scale": SCALES[scale_name],
        "triples": len(graph),
        "sha256_sorted_ntriples": content_hash(graph),
    }


def verify(scale_name: str, graph) -> str:
    """Check ``graph`` against the manifest; returns its content hash."""
    with open(MANIFEST_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)["datasets"][scale_name]
    actual = describe(scale_name, graph)
    if actual != expected:
        raise DatasetDrift(
            f"dataset {scale_name!r} drifted from {MANIFEST_PATH.name}: "
            f"expected {expected}, generated {actual}; if the generator "
            "changed on purpose, regenerate the manifest with "
            "`run.py --write-manifest` and re-measure every baseline"
        )
    return str(actual["sha256_sorted_ntriples"])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_rev(root: pathlib.Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(root: pathlib.Path, dataset_hash: str) -> Dict[str, object]:
    """What a results file says about where it was measured."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_rev": _git_rev(root),
        "dataset_sha256": dataset_hash,
    }
