#!/usr/bin/env python3
"""The repo benchmark: four pinned live-service workloads, end to end.

    python benchmarks/e2e/run.py [--seed 7] [--trace] [--out FILE]
        all four workloads (3 repeats each), every end-to-end metric by
        name with its unit; with --trace also every per-layer metric and
        the locate latency budget
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload; the last line of stdout is one JSON object
        (--trace 0: the end-to-end metrics, --trace 1: the per-layer ones)
    python benchmarks/e2e/run.py --compare A.json B.json
        hold two saved invocations against the bounds in BENCHMARK.json

Cluster and generator share one process, one thread and one asyncio
loop; traffic crosses the host loopback interface. Metric names, units,
directions and bounds are declared once, in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
DEFAULT_SEED = 7

if not (ROOT / "src" / "repro").is_dir():
    sys.exit("benchmarks/e2e/run.py: src/repro (the program under test) is not in this checkout")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import e2e_compare  # noqa: E402
import e2e_harness as harness  # noqa: E402


def load_contract() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units_of(contract: Dict, section: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in contract[section]}


def render_metrics(title: str, values: Dict[str, float], units: Dict[str, str]) -> List[str]:
    lines = [title]
    for name, unit in units.items():
        if name in values:
            lines.append(f"  {name:<34} {values[name]:>14.4f} {unit}")
    return lines


def render_workload(run: Dict, contract: Dict) -> List[str]:
    spec = harness.workload_named(run["workload"])
    shape = (
        f"{spec.population} agents, 1 -> {spec.storm_leaves} leaves by forged reports"
        if spec.storm_leaves
        else f"{spec.population} agents, {spec.leaves} leaves"
    )
    lines = [
        f"workload {spec.name}: {shape}, {spec.workers} closed-loop worker(s) "
        f"over {run['drivers']} per-node client(s), loopback, binary wire",
        f"  why      {spec.why}",
        f"  repeats  {run['repeats']} x ({run['warmup_s']:g} s warm-up + "
        f"{'the storm' if spec.storm_leaves else format(run['window_s'], '.2f') + ' s measured'})"
        f", seed {run['seed']}; leaves at end {run['leaves']}; "
        f"latency samples {run['samples']}",
    ]
    if run["storage"]:
        lines.append(f"  storage  {run['storage']}")
    if run["round_s"]:
        lines.append(f"  rounds   seconds per breadth-first round {run['round_s']}")
    for reason in run["discarded"]:
        lines.append(f"  guard    discarded a repeat and re-ran it: {reason}")
    lines.append(f"  op log   sha256 {', '.join(run['op_log_sha256'])}")
    lines.append(
        f"  oracle   {run['attempted']} answers checked, {run['failed']} failed or wrong"
    )
    lines.extend(f"  error    {sample}" for sample in run["error_samples"])
    metrics = dict(run["metrics"])
    lines.extend(render_metrics("  end to end", metrics, units_of(contract, "end_to_end")))
    for name, unit in e2e_compare.EXTRA_UNITS.items():
        if name in metrics:
            lines.append(f"  {name:<34} {metrics[name]:>14.6f} {unit}")
    lines.append(
        f"  as measured, before scaling to the reference host speed (calibration unit "
        f"{metrics['host.unit_ms']:.2f} ms here, {harness.REFERENCE_UNIT_S * 1e3:g} ms reference): "
        f"ops_s {metrics['raw.ops_s']:.1f}, cpu_us_per_op {metrics['raw.cpu_us_per_op']:.1f}, "
        f"p50_ms {metrics['raw.p50_ms']:.4f}, set-up wall clock {metrics['raw.setup_wall_s']:.4f} s"
    )
    lines.extend(render_metrics("  measured in this workload", metrics, units_of(contract, "per_layer")))
    return lines


def render_layers(report: Dict, contract: Dict) -> List[str]:
    title = (
        "per-layer metrics (loadgen.* and client.*_per_op as measured in "
        f"{report['in_situ_from']})"
    )
    return report["lines"] + render_metrics(
        title, report["metrics"], units_of(contract, "per_layer")
    )


def result_line(runs: List[Dict], metrics: Dict[str, float], units: Dict[str, str]) -> str:
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


async def run_one(args: argparse.Namespace, contract: Dict) -> int:
    """The driver's contract: one workload, one JSON line."""
    spec = harness.workload_named(args.workload)
    if not args.trace:
        run = await harness.run_workload(spec, args.seed, args.seconds, OUT_DIR)
        print("\n".join(render_workload(run, contract)))
        print(result_line([run], run["metrics"], units_of(contract, "end_to_end")))
        return 0 if run["failed"] == 0 else 1
    import e2e_layers

    report = await e2e_layers.run_layers(
        args.seed, args.seconds / harness.REPEATS, OUT_DIR, in_situ=spec
    )
    print("\n".join(render_layers(report, contract)))
    print(result_line(report["runs"], report["metrics"], units_of(contract, "per_layer")))
    return 0 if all(run["failed"] == 0 for run in report["runs"]) else 1


async def run_all(args: argparse.Namespace, contract: Dict) -> int:
    """Every workload, then (with --trace) the separate traced pass."""
    print(
        "one process, one thread, one asyncio loop holds cluster and generator; "
        "traffic crosses the host loopback interface"
    )
    runs = []
    for spec in harness.WORKLOADS:
        run = await harness.run_workload(spec, args.seed, args.seconds, OUT_DIR)
        print("\n".join(render_workload(run, contract)), flush=True)
        runs.append(run)
    saved: Dict = {"seed": args.seed, "seconds": args.seconds, "workloads": runs}
    failed = sum(run["failed"] for run in runs)
    if args.trace:
        import e2e_layers

        report = await e2e_layers.run_layers(
            args.seed,
            args.seconds / harness.REPEATS,
            OUT_DIR,
            untraced={run["workload"]: run for run in runs},
        )
        print("\n".join(render_layers(report, contract)))
        saved["per_layer"] = report["metrics"]
        failed += sum(run["failed"] for run in report["runs"])
    if args.out:
        e2e_compare.append_invocation(Path(args.out), saved)
    print(f"benchmark {'OK' if failed == 0 else 'FAILED'}: {failed} failed or wrong answers")
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in harness.WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(contract["run_seconds"]),
        help="measured seconds per workload, shared by its three repeats",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="also (with --workload: instead) run the traced per-layer pass",
    )
    parser.add_argument("--out", help="append this invocation's numbers to a JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return e2e_compare.main(Path(args.compare[0]), Path(args.compare[1]), contract)
    try:
        return asyncio.run((run_one if args.workload else run_all)(args, contract))
    except harness.GuardViolation as violation:
        print(f"benchmark invalid: {violation}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
