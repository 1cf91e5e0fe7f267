"""--compare verdicts."""

from ledger.compare import compare_ledgers, verdict

METRICS = (("prop_chart_p50_ms", "ms", "lower", 0.10), ("clicks_per_s", "1/s", "higher", 0.10))


def ledger(p50, rate, failed=0, **fingerprint):
    return {
        "fingerprint": {"nproc": 2, "cpu_model": "x", "python": "3", "dataset_sha256": "d", **fingerprint},
        "seconds": 30,
        "workloads": {
            "chart_oneshot": {
                "runs": [
                    {"metrics": {"prop_chart_p50_ms": a, "clicks_per_s": b},
                     "attempted": 100, "failed": failed}
                    for a, b in zip(p50, rate)
                ]
            }
        },
    }


def test_within_bound_is_ok():
    assert verdict([100, 101, 99], [105, 106, 104], "lower", 0.10) == "ok"


def test_beyond_bound_is_regressed_in_the_metrics_own_direction():
    assert verdict([100, 101, 99], [115, 116, 114], "lower", 0.10) == "regressed"
    assert verdict([100, 101, 99], [85, 86, 84], "lower", 0.10) == "ok"
    assert verdict([10, 10.1, 9.9], [8.5, 8.6, 8.4], "higher", 0.10) == "regressed"


def test_wide_spread_is_unresolved_unless_every_run_wins():
    noisy = [100, 140, 80, 120]
    assert verdict(noisy, [105, 100, 110], "lower", 0.10) == "unresolved"
    assert verdict(noisy, [50, 55, 60], "lower", 0.10) == "ok"


def test_a_single_repeat_is_judged_on_the_bound_alone():
    assert verdict([100], [120], "lower", 0.10) == "regressed"
    assert verdict([100], [105], "lower", 0.10) == "ok"


def test_rows_and_fingerprint_warning():
    old = ledger([100, 101, 99], [10, 10, 10])
    new = ledger([120, 121, 119], [10, 10, 10], failed=1, cpu_model="y")
    rows, warnings = compare_ledgers(old, new, METRICS)
    by_metric = {row["metric"]: row["verdict"] for row in rows}
    assert by_metric == {
        "prop_chart_p50_ms": "regressed", "clicks_per_s": "ok",
        "failed_share": "regressed",
    }
    assert len(warnings) == 1 and "cpu_model" in warnings[0]
