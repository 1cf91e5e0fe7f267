"""Make ``ledger`` and ``repro`` importable from the checkout.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger/tests``
(``benchmarks/conftest.py``, one level up, imports ``repro`` before this
file is read)."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT / "benchmarks")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
