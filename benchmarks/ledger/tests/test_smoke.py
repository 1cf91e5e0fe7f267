"""``run.py --smoke``: all four workloads, both passes, answer checks, under 30 s."""

import json
import pathlib
import subprocess
import sys
import time

from ledger import spec

LEDGER = pathlib.Path(__file__).resolve().parents[1]


def test_smoke_runs_every_workload_and_checks_its_answers():
    out = LEDGER / "results" / "ledger-smoke-seed3.json"
    out.unlink(missing_ok=True)
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--smoke", "--seed", "3"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30.0
    ledger = json.loads(out.read_text(encoding="utf-8"))
    assert ledger["scale"] == "smoke"
    assert set(ledger["workloads"]) == {
        "chart_oneshot", "chart_paged", "explore_ladder", "pool_serve",
    }
    for entry in ledger["workloads"].values():
        (run,) = entry["runs"]
        assert run["failed"] == 0 and run["attempted"] > 0
        assert set(run["metrics"]) >= {name for name, *_ in spec.END_TO_END}
        assert all(run["metrics"][name] > 0 for name, *_ in spec.END_TO_END)
        # Too few property-chart clicks for a p90: refused, not printed.
        assert "prop_mix_p50_ms" in run["metrics"]
        assert "prop_mix_p90_ms" not in run["metrics"]
        traced = entry["traced"]
        assert traced["failed"] == 0
        assert set(traced["metrics"]) == {name for name, *_ in spec.PER_LAYER}
        assert abs(traced["trace_summary"]["self_time_over_click_wall"] - 1.0) < 0.05
        assert traced["trace_overhead_ratio"] > 0
    assert "refused" in done.stdout and "SimClock" not in done.stdout
