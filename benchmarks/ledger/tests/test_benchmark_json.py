"""BENCHMARK.json stays within the benchmark contract's limits."""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_keys_command_and_sizes():
    doc = load()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert doc["paths"] == ["benchmarks/ledger"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])


def test_bounds_and_setup_s():
    rows = load()["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in rows)
    (setup,) = [m for m in rows if m["name"] == "setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in rows)


def test_names_and_units_are_within_the_contracts_alphabet():
    doc = load()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in doc[key])
    assert all(m["better"] in ("lower", "higher") for key in ("end_to_end", "per_layer") for m in doc[key])
