#!/usr/bin/env python
"""Record the perf trajectory of the hot paths to ``BENCH_core.json``.

Runs the two benchmark suites every PR is gated against --
``bench_core_microbench.py`` (raw data-structure and kernel cost) and
``bench_exp1_agent_scaling.py`` (end-to-end figure regeneration) -- and
writes the median timing of every benchmark to ``BENCH_core.json`` at
the repo root. Commit the refreshed snapshot whenever a PR moves the
numbers; diffs of that file *are* the perf history.

On top of the pytest-benchmark suites, the runner times one figure
sweep three ways through the harness executor -- serial (``-j 1``),
parallel (``-j 4``) and warm content-addressed cache -- and records the
wall clocks (plus the derived speedups and the machine's CPU count, so
a single-core box's numbers are interpretable) in the same snapshot.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full run
    PYTHONPATH=src python benchmarks/run_bench.py --sweep-only
    PYTHONPATH=src python benchmarks/run_bench.py --quick     # CI smoke
    PYTHONPATH=src python benchmarks/run_bench.py --output /tmp/b.json

Unless ``--sweep-only``, the runner also refreshes the service-layer
snapshot (``BENCH_service.json``) through ``bench_service_rpc.py`` (the
locate arms plus the sharded-coordinator and discovery sections),
``bench_service_load.py`` (the capacity curves: saturation throughput
vs nodes / replicas / shards) and ``bench_service_netem.py`` (the
hostile-network resilience gates) -- so one invocation advances every
trajectory.

``--quick`` is the CI arm: one round per sweep arm, a smaller grid and
fast pytest-benchmark settings (the service benches run their quick
arms too). Its numbers are *not* comparable to a full run and should
never be committed over a full snapshot. ``--check`` makes the service
benches compare their fresh numbers against the committed gate
constants and fail the run on regression -- the CI perf gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Workers used by the parallel arm of the sweep benchmark.
SWEEP_BENCH_JOBS = 4

#: Repetitions per sweep arm; the median is recorded.
SWEEP_BENCH_ROUNDS = 3

#: The gated suites, in run order.
BENCH_FILES = (
    "benchmarks/bench_core_microbench.py",
    "benchmarks/bench_storage_wal.py",
    "benchmarks/bench_wire_codec.py",
    "benchmarks/bench_exp1_agent_scaling.py",
)


#: The service-layer benches, in run order. Each sets only its own
#: keys in BENCH_service.json (``capacity`` and ``netem`` belong to the
#: load and netem benches, the rest to ``bench_service_rpc.py``).
SERVICE_BENCH_FILES = (
    "benchmarks/bench_service_rpc.py",
    "benchmarks/bench_service_load.py",
    "benchmarks/bench_service_netem.py",
)


def run_service_bench(quick: bool = False, check: bool = False) -> None:
    """Refresh ``BENCH_service.json`` via the service benches.

    The service snapshot is its own file (locate arms + sharded
    coordinator section + capacity curves), but the trajectory should
    advance whenever this runner does -- including the CI ``--quick``
    arm. With ``check=True`` each bench also compares its fresh numbers
    against its committed gate constants and raises on regression.
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    for bench_file in SERVICE_BENCH_FILES:
        command = [sys.executable, bench_file]
        if quick:
            command.append("--quick")
        if check:
            command.append("--check")
        subprocess.run(command, cwd=REPO_ROOT, env=env, check=True)


def run_suite(bench_file: str, scratch: Path, quick: bool = False) -> dict:
    """Run one benchmark file; return ``{test_name: median_seconds}``,
    plus ``{test_name.key: value}`` for what a benchmark recorded in its
    ``extra_info`` (the key names the unit)."""
    report = scratch / (Path(bench_file).stem + ".json")
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    command = [
        sys.executable,
        "-m",
        "pytest",
        bench_file,
        "-q",
        "--benchmark-json",
        str(report),
    ]
    if quick:
        command += [
            "--benchmark-min-rounds=1",
            "--benchmark-warmup=off",
            "--benchmark-disable-gc",
        ]
    subprocess.run(
        command,
        cwd=REPO_ROOT,
        env=env,
        check=True,
    )
    data = json.loads(report.read_text())
    medians = {}
    for bench in data["benchmarks"]:
        medians[bench["name"]] = bench["stats"]["median"]
        for key, value in bench["extra_info"].items():
            medians[f"{bench['name']}.{key}"] = value
    return medians


def _median(samples):
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def _sweep_once(executor_factory, quick: bool = False) -> float:
    """Wall clock of one mid-size figure sweep through ``executor``."""
    from repro.harness.sweeps import sweep
    from repro.workloads.scenarios import exp1_scenario

    started = time.perf_counter()
    sweep(
        lambda n: exp1_scenario(int(n)),
        xs=(10, 30) if quick else (10, 30, 100),
        mechanisms=("centralized", "hash"),
        seeds=(1,) if quick else (1, 2),
        executor=executor_factory(),
    )
    return time.perf_counter() - started


def run_sweep_bench(quick: bool = False) -> dict:
    """Time the executor's three paths on one figure grid.

    Returns ``{benchmark_name: seconds}`` plus derived speedups. The
    cache arm cold-fills a temporary cache once, then measures hits
    only -- the recorded number is a pure warm-cache regeneration.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.harness.cache import RunCache
    from repro.harness.executor import Executor

    rounds = 1 if quick else SWEEP_BENCH_ROUNDS

    print("[sweep] serial (-j 1) ...")
    serial = _median(
        [_sweep_once(lambda: Executor(jobs=1), quick) for _ in range(rounds)]
    )
    print(f"[sweep] serial median {serial:.3f}s")

    print(f"[sweep] parallel (-j {SWEEP_BENCH_JOBS}) ...")
    parallel = _median(
        [
            _sweep_once(lambda: Executor(jobs=SWEEP_BENCH_JOBS), quick)
            for _ in range(rounds)
        ]
    )
    print(f"[sweep] parallel median {parallel:.3f}s")

    print("[sweep] warm cache ...")
    with tempfile.TemporaryDirectory() as cache_dir:
        factory = lambda: Executor(jobs=1, cache=RunCache(root=cache_dir))
        _sweep_once(factory, quick)  # cold fill
        warm = _median(
            [_sweep_once(factory, quick) for _ in range(rounds)]
        )
    print(f"[sweep] warm-cache median {warm:.3f}s")

    return {
        "sweep_exp1_serial_j1": serial,
        f"sweep_exp1_parallel_j{SWEEP_BENCH_JOBS}": parallel,
        "sweep_exp1_warm_cache": warm,
        "sweep_parallel_speedup_x": serial / parallel if parallel else 0.0,
        "sweep_cache_speedup_x": serial / warm if warm else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_core.json",
        help="where to write the snapshot (default: BENCH_core.json)",
    )
    parser.add_argument(
        "--sweep-only",
        action="store_true",
        help="skip the pytest-benchmark suites; only run the sweep bench",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: one round per arm, smaller grid, fast pytest-"
        "benchmark settings (numbers not comparable to a full run)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression gate: the service benches compare their fresh "
        "numbers against the committed gate constants and fail the "
        "run on regression",
    )
    args = parser.parse_args(argv)

    medians: dict = {}
    if not args.sweep_only:
        with tempfile.TemporaryDirectory() as scratch:
            for bench_file in BENCH_FILES:
                medians.update(run_suite(bench_file, Path(scratch), args.quick))
        run_service_bench(args.quick, args.check)
    medians.update(run_sweep_bench(args.quick))

    snapshot = {
        "units": "seconds (median over benchmark rounds)",
        "suites": list(BENCH_FILES),
        "cpu_count": os.cpu_count(),
        "quick": args.quick,
        "benchmarks": {name: medians[name] for name in sorted(medians)},
    }
    args.output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {len(medians)} medians to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
