"""The benchmark's names, read from ``/BENCHMARK.json``.

That file is the one place a workload or a metric is declared (name,
unit, direction, bound): the driver reads it, and so does the harness,
so the two cannot disagree.  What a name *means* is in README.md.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Tuple

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER"]

_SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(
        encoding="utf-8"
    )
)

#: name -> why it exists, in run order.
WORKLOADS: Dict[str, str] = {w["name"]: w["why"] for w in _SPEC["workloads"]}

#: (name, unit, better, bound) of the metrics every untraced run prints.
#: ``bound`` is the share of the parent's median by which the metric may
#: worsen: the issue's figure where the spread across ten seeds (README,
#: "Steadiness") stays under a third of it on every workload, else three
#: times the widest spread seen, rounded up to 0.05.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = tuple(
    (m["name"], m["unit"], m["better"], m["bound"]) for m in _SPEC["end_to_end"]
)

#: (name, unit, better) of the metrics every traced run prints.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (m["name"], m["unit"], m["better"]) for m in _SPEC["per_layer"]
)
