#!/usr/bin/env python3
"""The ledger's one command.

Driver form — one workload, one run; the last stdout line is the result
object the benchmark contract asks for::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Ledger form — every workload, three untraced runs each and then one
traced run, each in its own process; prints every metric by name
with its unit and sample count, checks the answers, and writes
``results/ledger-seed<N>.json``::

    PYTHONPATH=src python benchmarks/ledger/run.py --seed N [--compare OLD.json]

``--smoke`` is the ledger form on the small dataset with a tenth of the
clicks.  See README.md in this directory for what each row means.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(
        f"run.py: {ROOT / 'src' / 'repro'} not found; the ledger measures "
        "the program in src/ and has nothing to run without it"
    )
# Import the harness as the package ``ledger`` — not as loose modules:
# its trace.py must not shadow the standard library's ``trace`` — and
# ``repro`` from this checkout rather than from any installed copy.
if __name__ == "__main__":
    sys.path[0] = str(HERE.parent)
else:
    sys.path.insert(0, str(HERE.parent))
sys.path.insert(1, str(ROOT / "src"))

from ledger import compare, dataset, harness, layers, spec  # noqa: E402
from ledger import workloads as wl  # noqa: E402
from ledger.stats import median  # noqa: E402
from ledger.trace import Recorder, click_totals  # noqa: E402

RESULTS_DIR = HERE / "results"
WORK_DIR = HERE / ".work"
#: Ledger-form run length: long enough for 100 property-chart clicks on
#: the chart workloads, which is what p90 needs.
LEDGER_SECONDS = 30.0
SMOKE_SECONDS = 1.2
#: Ledger-form untraced runs per workload; ``--compare`` reads the
#: spread between them.  A smoke ledger makes one.
LEDGER_REPEATS = 3
WORKLOAD_ORDER = tuple(spec.WORKLOADS)


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            scale_name: str = "pinned") -> dict:
    """Warm up, set up, run, check; the full record of one run.

    At smoke scale the warm-up and the repeated set-ups are skipped: a
    smoke run checks the harness, its timings are not for quoting."""
    smoke = scale_name == "smoke"
    workdir = WORK_DIR / f"{workload_name}-{scale_name}-{seed}-{int(trace)}"
    harness.clean_workdir(workdir)
    workdir.mkdir(parents=True)
    recorder = Recorder() if trace else None
    try:
        if not smoke:
            harness.warm_up(workload_name, workdir)
        workload = harness.WORKLOAD_CLASSES[workload_name](
            harness.RunContext(scale_name, seed, wl.sizes_for(seconds), workdir)
        )
        setups, build_steps = harness.timed_setups(
            workload, repeats=1 if smoke else harness.SETUP_REPEATS
        )
        record = {
            "workload": workload_name,
            "seed": seed,
            "seconds": seconds,
            "scale": scale_name,
            "trace": int(trace),
            "dataset_sha256": workload.context.dataset_hash,
        }
        window = layers.install(recorder) if trace else None
        record["peak_rss_reset"] = harness.reset_peak_rss()
        try:
            if trace:
                window.open()
            result = workload.run(recorder)
            peak_mb = harness.peak_rss_mb()
        finally:
            if trace:
                window.close()
            workload.close()

        def read_layers(reference_graph) -> None:
            record["metrics"] = layers.collect(
                workload, result, recorder, window, build_steps, reference_graph
            )

        harness.after_run(workload, result, read_layers if trace else None)
        if trace:
            record["trace_summary"] = trace_summary(workload, recorder)
        else:
            record["metrics"] = harness.end_to_end_metrics(setups, result, peak_mb)
    finally:
        if recorder is not None:
            recorder.restore()
        harness.clean_workdir(workdir)
    record.update(
        attempted=result.attempted,
        failed=len(result.failures),
        failures=result.failures,
        busy_s=result.busy_s,
        samples={
            "clicks": result.completed,
            "fig4": len(result.fig4_full_ms),
            "prop_mix": len(result.mix_full_ms),
            "edits": len(result.edit_ms),
            "setups": len(setups),
        },
        raw_ms={
            "fig4_full": result.fig4_full_ms,
            "fig4_first": result.fig4_first_ms,
            "prop_mix_full": result.mix_full_ms,
            "prop_mix_first": result.mix_first_ms,
            "edit": result.edit_ms,
            "setup": [value * 1000.0 for value in setups],
        },
    )
    return record


def trace_summary(workload, recorder: Recorder) -> dict:
    """Write the trace file; what the run record says about the trace."""
    totals = click_totals(recorder.spans)
    summary = {
        "spans": len(recorder.spans),
        # By construction 1.0: a span's self time is what its children
        # leave of it, and every span hangs off a click's root.
        "self_time_over_click_wall": sum(own for _wall, own in totals.values())
        / sum(wall for wall, _own in totals.values()),
    }
    if workload.name == "explore_ladder":
        summary["views_backend_boundary_percentile"] = layers.ladder_boundary(
            recorder.spans, workload.property_click_ids
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    recorder.write_jsonl(RESULTS_DIR / f"trace-{workload.name}.jsonl")
    return summary


def dump_json(value) -> str:
    """Indented JSON with each list of plain values on one line (the
    raw sample arrays would otherwise be most of a results file)."""
    text = json.dumps(value, indent=1)
    return re.sub(
        r"\[\s*([^\[\]{}]*?)\s*\]",
        lambda match: "[" + re.sub(r"\s*\n\s*", " ", match.group(1)) + "]",
        text,
    ) + "\n"


def contract_line(record: dict) -> str:
    """The result object the driver reads from the last stdout line."""
    if record["trace"]:
        units = {name: unit for name, unit, _better in spec.PER_LAYER}
    else:
        units = {name: unit for name, unit, _better, _bound in spec.END_TO_END}
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": record["metrics"][name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def run_one(args) -> int:
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    detail = RESULTS_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(dump_json(record), encoding="utf-8")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{record['samples']['clicks']} clicks in {record['busy_s']:.2f} s busy, "
        f"{record['failed']} of {record['attempted']} failed; detail in {detail.name}"
    )
    print(contract_line(record))
    return 0


# ----------------------------------------------------------------------
# The ledger: all workloads, repeats, traced pass, table
# ----------------------------------------------------------------------


def child_run(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """One driver-form run in a fresh process (its own peak RSS, its
    own REGISTRY); returns the detail record it wrote."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
        ],
        capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} (trace={trace}) exited {done.returncode}:\n{done.stderr}"
        )
    detail = RESULTS_DIR / f"run-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(detail.read_text(encoding="utf-8"))


def run_ledger(args) -> int:
    scale = "smoke" if args.smoke else "pinned"
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else LEDGER_SECONDS)
    repeats = 1 if args.smoke else LEDGER_REPEATS
    ledger = {
        "schema": 1,
        "seed": args.seed,
        "seconds": seconds,
        "repeats": repeats,
        "scale": scale,
        "workloads": {},
    }
    def one_workload(name: str) -> dict:
        runs = [child_run(name, args.seed, seconds, 0, scale) for _ in range(repeats)]
        traced = child_run(name, args.seed, seconds, 1, scale)
        traced["trace_overhead_ratio"] = traced["busy_s"] / median(
            [run["busy_s"] for run in runs]
        )
        return {"runs": runs, "traced": traced}

    # Measured runs never share the box; a smoke run only checks the
    # harness, so two workloads at a time keep it under half a minute.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        for name, entry in zip(WORKLOAD_ORDER, pool.map(one_workload, WORKLOAD_ORDER)):
            ledger["workloads"][name] = entry
            print_workload(name, entry["runs"], entry["traced"])
    ledger["fingerprint"] = dataset.fingerprint(
        ROOT, ledger["workloads"][WORKLOAD_ORDER[0]]["runs"][0]["dataset_sha256"]
    )
    ledger["derived"] = derived_rows(ledger)
    print("\nderived")
    for name, value in ledger["derived"].items():
        print(f"  {name:<44}{value:>12.4f}")
    out = RESULTS_DIR / f"ledger-{'smoke-' if args.smoke else ''}seed{args.seed}.json"
    out.write_text(dump_json(ledger), encoding="utf-8")
    print(f"\nwrote {out}")
    failed = sum(
        run["failed"]
        for entry in ledger["workloads"].values()
        for run in entry["runs"] + [entry["traced"]]
    )
    status = 1 if failed else 0
    if args.compare:
        old = json.loads(pathlib.Path(args.compare).read_text(encoding="utf-8"))
        rows, warnings = compare.compare_ledgers(
            old, ledger, spec.END_TO_END + harness.LEDGER_ONLY
        )
        print("\n" + compare.render(rows, warnings))
        if any(row["verdict"] == "regressed" for row in rows):
            status = 1
    return status


def print_workload(name: str, runs, traced) -> None:
    print(f"\n== {name}: {spec.WORKLOADS[name]}")
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    samples = runs[0]["samples"]
    print(
        f"  end to end (tracing off; median of {len(runs)} run(s); per run "
        f"{samples['clicks']} clicks, of them {samples['fig4']} Fig. 4 and "
        f"{samples['prop_mix']} property-chart; {samples['edits']} edit "
        f"batches, {samples['setups']} set-ups)"
    )
    for metric, unit, _better, bound in spec.END_TO_END + harness.LEDGER_ONLY:
        values = [run["metrics"][metric] for run in runs if metric in run["metrics"]]
        if values:
            print(f"  {metric:<44}{median(values):>12.4f} {unit:<6} bound {bound:.2f}")
        else:
            print(f"  {metric:<44}{'refused':>12} (fewer than 100 property-chart clicks)")
    print(f"  {'failed_share':<44}{failed / attempted:>12.4f} ratio  must stay 0")
    for run in runs + [traced]:
        for failure in run["failures"]:
            print(f"  FAILED {failure}")
    print(f"  per layer (traced run, {traced['trace_summary']['spans']} spans)")
    for metric, unit, _better in spec.PER_LAYER:
        value = traced["metrics"][metric]
        if value:
            print(f"  {metric:<44}{value:>12.4f} {unit}")
    print(f"  {'trace_overhead_ratio':<44}{traced['trace_overhead_ratio']:>12.4f} ratio")
    boundary = traced["trace_summary"].get("views_backend_boundary_percentile")
    if boundary is not None:
        print(
            f"  views/backend boundary at p{boundary:.1f} of property-chart "
            "latency (p50 and p90 must stay 5 points clear of it)"
        )


def derived_rows(ledger: dict) -> dict:
    """The ratios this ledger re-measures in wall time, each with its base."""
    def med(workload: str, metric: str) -> float:
        return median([r["metrics"][metric] for r in ledger["workloads"][workload]["runs"]])

    pool = ledger["workloads"]["pool_serve"]["traced"]["metrics"]
    oneshot = ledger["workloads"]["chart_oneshot"]["traced"]["metrics"]
    return {
        "paged_over_oneshot.clicks_wall": med("chart_oneshot", "clicks_per_s")
        / med("chart_paged", "clicks_per_s"),
        "paged_over_oneshot.prop_chart_p50": med("chart_paged", "prop_chart_p50_ms")
        / med("chart_oneshot", "prop_chart_p50_ms"),
        "serve.pool.scaling_2w_over_1w": pool["serve.pool.scaling_2w_over_1w"],
        "serve.pool.ipc_overhead_ratio": pool["serve.pool.ipc_overhead_ratio"],
        "front_half_ms_per_distinct_text.chart_oneshot": oneshot["sparql.parser.parse_ms"]
        + oneshot["sparql.algebra.translate_ms"]
        + oneshot["sparql.optimizer.optimize_ms"],
    }


def write_manifest() -> int:
    entries = {
        name: dataset.describe(name, dataset.generate(name).graph)
        for name in dataset.SCALES
    }
    dataset.MANIFEST_PATH.write_text(
        json.dumps({"datasets": entries}, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {dataset.MANIFEST_PATH}")
    return 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_ORDER,
                        help="driver form: run just this workload, once")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the click generator only; the dataset is pinned")
    parser.add_argument("--seconds", type=float, default=None,
                        help="size of a run (click counts scale with it)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(dataset.SCALES), default="pinned")
    parser.add_argument("--smoke", action="store_true",
                        help="ledger form on the small dataset, a tenth of the clicks")
    parser.add_argument("--compare", metavar="OLD.json",
                        help="ledger form: gate against a parent ledger")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate manifest.json from the current generator")
    args = parser.parse_args(argv)
    if args.write_manifest:
        return write_manifest()
    if args.workload:
        if args.seconds is None:
            args.seconds = LEDGER_SECONDS
        return run_one(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
