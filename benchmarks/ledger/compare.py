"""``run.py --compare OLD.json``: the regression gate between two ledgers.

Per (workload, end-to-end metric): the parent's median, the new median,
the bound the benchmark fixed, and a verdict.

* ``regressed``  — the new median is worse than the parent's by more
  than the bound;
* ``unresolved`` — the spread between repeats (quartile distance over
  the median, on either side) is wider than the bound, so the medians
  cannot be told apart — unless every new repeat beats every parent
  repeat, which is ``ok``;
* ``ok``         — otherwise.

Any rise in ``failed_share`` is a regression whatever the timings say.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .stats import median, quartile_spread

__all__ = ["verdict", "compare_ledgers", "render"]

#: Fingerprint fields whose difference makes timings incomparable.
_MACHINE_FIELDS = ("nproc", "cpu_model", "python", "dataset_sha256")


def _worse_by(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if better == "lower" else -change


def _spread(values: Sequence[float]) -> float:
    return quartile_spread(values) if len(values) >= 2 else 0.0


def verdict(old: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric's repeats."""
    if max(_spread(old), _spread(new)) > bound:
        if better == "lower":
            clear_win = max(new) < min(old)
        else:
            clear_win = min(new) > max(old)
        return "ok" if clear_win else "unresolved"
    if _worse_by(median(old), median(new), better) > bound:
        return "regressed"
    return "ok"


def _values(ledger: dict, workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]
        for run in ledger["workloads"][workload]["runs"]
        if metric in run["metrics"]
    ]


def _failed_share(ledger: dict, workload: str) -> float:
    runs = ledger["workloads"][workload]["runs"]
    return sum(r["failed"] for r in runs) / max(sum(r["attempted"] for r in runs), 1)


def compare_ledgers(
    old: dict, new: dict, metrics: Iterable[Tuple[str, str, str, float]]
) -> Tuple[List[dict], List[str]]:
    """Rows (one per workload x metric both ledgers hold) and warnings."""
    warnings = [
        f"fingerprints differ on {name}: {old['fingerprint'].get(name)!r} "
        f"vs {new['fingerprint'].get(name)!r}; timings are not comparable"
        for name in _MACHINE_FIELDS
        if old["fingerprint"].get(name) != new["fingerprint"].get(name)
    ]
    if old.get("seconds") != new.get("seconds"):
        warnings.append(
            f"run sizes differ (--seconds {old.get('seconds')} vs "
            f"{new.get('seconds')}); percentiles cover different populations"
        )
    rows: List[dict] = []
    for workload in new["workloads"]:
        if workload not in old["workloads"]:
            warnings.append(f"{workload}: not in the parent ledger")
            continue
        for name, unit, better, bound in metrics:
            before = _values(old, workload, name)
            after = _values(new, workload, name)
            if not before or not after:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": unit,
                    "parent_median": median(before),
                    "new_median": median(after),
                    "bound": bound,
                    "verdict": verdict(before, after, better, bound),
                }
            )
        before, after = _failed_share(old, workload), _failed_share(new, workload)
        rows.append(
            {
                "workload": workload,
                "metric": "failed_share",
                "unit": "ratio",
                "parent_median": before,
                "new_median": after,
                "bound": 0.0,
                "verdict": "regressed" if after > before else "ok",
            }
        )
    return rows, warnings


def render(rows: Sequence[Dict], warnings: Sequence[str]) -> str:
    lines = [f"warning: {warning}" for warning in warnings]
    lines.append(
        f"{'workload':<16}{'metric':<22}{'parent':>12}{'new':>12}"
        f"{'bound':>8}  verdict"
    )
    for row in rows:
        lines.append(
            f"{row['workload']:<16}{row['metric']:<22}"
            f"{row['parent_median']:>12.4f}{row['new_median']:>12.4f}"
            f"{row['bound']:>8.2f}  {row['verdict']}"
            f"{'' if row['verdict'] == 'ok' else '  <--'}"
        )
    return "\n".join(lines)
