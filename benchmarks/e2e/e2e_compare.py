"""``run.py --compare A.json B.json``: same / worse / unresolved.

Each file holds one or more invocations saved with ``run.py --out``.
Per end-to-end metric per workload, B is held against A with the bound
from BENCHMARK.json:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the bound, so a difference
  of that size could not be told from noise -- unless every B value
  reads better than every A value, which is ``better``;
* ``same``       otherwise (``better`` when B gained more than the bound).

Two reported metrics are not in BENCHMARK.json, whose metrics must apply
to every workload and never be 0: ``splits_s`` exists on ``rehash-storm``
only and is held to ``SPLITS_S_BOUND`` there; ``fail_share`` is normally 0
and has an absolute rule, any increase above 0.001 is worse.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List

FAIL_SHARE_SLACK = 0.001
SPLITS_S_BOUND = 0.1
#: Reported and compared, but outside BENCHMARK.json (see above).
EXTRA_UNITS = {"splits_s": "1/s", "fail_share": "share"}


def append_invocation(path: Path, invocation: Dict) -> None:
    """Add one invocation to ``path`` (created if missing)."""
    saved = json.loads(path.read_text()) if path.exists() else {"invocations": []}
    saved["invocations"].append(invocation)
    path.write_text(json.dumps(saved, indent=1, default=str) + "\n")


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one value).

    Quartiles by the inclusive method: one invocation gives three values
    per metric, on which the default method's quartiles are the extremes.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(statistics.median(values))


def series(saved: Dict, workload: str, metric: str) -> List[float]:
    """Every per-repeat value of ``metric`` on ``workload`` in a file
    (per-invocation values for metrics that have no per-repeat series)."""
    values: List[float] = []
    for invocation in saved["invocations"]:
        for run in invocation["workloads"]:
            if run["workload"] == workload and metric in run["metrics"]:
                values.extend(run["values"].get(metric, [run["metrics"][metric]]))
    return values


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = sign * (med_b - med_a) / abs(med_a)
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    if max(spread(a), spread(b)) > bound:
        return "better" if all_better else "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def compare(saved_a: Dict, saved_b: Dict, contract: Dict) -> List[Dict]:
    splits_s = {"name": "splits_s", "better": "higher", "bound": SPLITS_S_BOUND}
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        row: Dict = {"workload": workload, "cells": {}}
        for metric in [*contract["end_to_end"], splits_s]:
            a = series(saved_a, workload, metric["name"])
            b = series(saved_b, workload, metric["name"])
            if not a and not b:
                continue  # the metric does not exist on this workload
            row["cells"][metric["name"]] = {
                "verdict": verdict(a, b, metric["better"], metric["bound"]),
                "a": statistics.median(a),
                "b": statistics.median(b),
                "spread": max(spread(a), spread(b)),
                "bound": metric["bound"],
            }
        fail_a = max(series(saved_a, workload, "fail_share"))
        fail_b = max(series(saved_b, workload, "fail_share"))
        row["cells"]["fail_share"] = {
            "verdict": "worse" if fail_b > fail_a + FAIL_SHARE_SLACK else "same",
            "a": fail_a,
            "b": fail_b,
            "spread": 0.0,
            "bound": FAIL_SHARE_SLACK,
        }
        rows.append(row)
    return rows


def render(rows: List[Dict]) -> List[str]:
    names = list(dict.fromkeys(name for row in rows for name in row["cells"]))
    lines = [f"{'workload':<18}" + "".join(f"{name:>15}" for name in names)]
    for row in rows:
        lines.append(
            f"{row['workload']:<18}"
            + "".join(f"{row['cells'].get(name, {}).get('verdict', '-'):>15}" for name in names)
        )
    lines.append("")
    for row in rows:
        for name, cell in row["cells"].items():
            lines.append(
                f"  {row['workload']:<18}{name:<15} A {cell['a']:>12.4f}  "
                f"B {cell['b']:>12.4f}  spread {cell['spread']:.3f}  "
                f"bound {cell['bound']:g}  {cell['verdict']}"
            )
    return lines


def main(path_a: Path, path_b: Path, contract: Dict) -> int:
    """Print the table; exit 1 if anything is worse or unresolved."""
    rows = compare(
        json.loads(path_a.read_text()), json.loads(path_b.read_text()), contract
    )
    print("\n".join(render(rows)))
    verdicts = {cell["verdict"] for row in rows for cell in row["cells"].values()}
    return 1 if verdicts & {"worse", "unresolved"} else 0
