#!/usr/bin/env python
"""Capacity curves for the live cluster, via the load generator.

Answers the ROADMAP's scaling question -- "how many users can an N-node
cluster serve?" -- by driving :mod:`repro.service.loadgen` against real
localhost clusters and recording three curves:

* ``nodes``    -- saturation throughput at 1 / 3 / 5 nodes: an open-loop
  binary search for the knee where the p99 first exceeds the latency
  budget (or any op fails), with the full p50/p95/p99/p999 distribution
  measured *at* the knee. This is the headline capacity trajectory.
* ``replicas`` -- closed-loop throughput at 5 nodes with 1 vs 3 HAgent
  replicas: what the hot-standby tier costs on the serving path.
* ``shards``   -- closed-loop throughput at 5 nodes with 1 vs 4
  coordinator shards: what prefix-sharding costs (or buys) when the
  workload is serving-heavy rather than rehash-heavy.

Every run replays deterministically from its seed (see
``repro/service/loadgen.py``); the workload is the default weighted mix
(60% locate / 25% move / 10% register / 5% batch-locate).

The results are *merged* into ``BENCH_service.json`` as a ``capacity``
section -- every service bench sets only its own keys in that file.
Commit the refreshed snapshot when a PR moves the numbers.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_load.py           # full
    PYTHONPATH=src python benchmarks/bench_service_load.py --quick   # CI
    PYTHONPATH=src python benchmarks/bench_service_load.py --quick --check

``--check`` exits non-zero unless every closed-loop curve point ran
error-free, every node count found a saturation knee at or above the
search floor, and the largest cluster's knee clears a generous absolute
floor -- a trajectory gate, deliberately loose enough for noisy CI
runners (the whole cluster shares one event loop, so these are protocol
numbers, not hardware-parallelism numbers). ``--quick`` numbers are not
comparable to a full run and should never be committed over a full
snapshot.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.service.cluster import ClusterConfig
from repro.service.loadgen import LoadConfig, run_load, saturation_search

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Node counts the saturation curve sweeps (the acceptance trajectory).
NODE_COUNTS = (1, 3, 5)

#: HAgent replica counts compared at the largest node count.
REPLICA_COUNTS = (1, 3)

#: Coordinator shard counts compared at the largest node count.
SHARD_COUNTS = (1, 4)

#: The latency budget the saturation search probes against.
P99_BUDGET_MS = 150.0

#: Saturation search range (open-loop arrival rate, ops/sec).
RATE_LO = 100.0
RATE_HI = 4000.0

#: Gate: the largest cluster's knee must clear this (ops/sec). A 5-node
#: localhost cluster sustains several hundred; 150 is the "something is
#: badly broken" floor, not a perf target.
MIN_KNEE_RATE = 150.0


def _cluster_config(nodes: int, replicas: int = 1, shards: int = 1) -> ClusterConfig:
    return ClusterConfig(
        nodes=nodes,
        agents=1,  # population is the loadgen's, not the drill's
        ops=0,
        seed=7,
        shards=shards,
        hagent_replicas=replicas,
    )


def _load_config(quick: bool) -> LoadConfig:
    return LoadConfig(
        population=80 if quick else 200,
        duration_s=2.0 if quick else 6.0,
        warmup_s=0.5 if quick else 1.5,
        drain_s=1.5 if quick else 2.0,
        seed=7,
        record_ops=False,
    )


def run_nodes_curve(quick: bool) -> Dict[str, Dict]:
    """Saturation knee + latency distribution per node count."""
    curve: Dict[str, Dict] = {}
    for nodes in NODE_COUNTS:
        print(f"== capacity vs nodes: {nodes} node(s), open-loop knee search ==")
        result = asyncio.run(
            saturation_search(
                _cluster_config(nodes),
                _load_config(quick),
                budget_p99_ms=P99_BUDGET_MS,
                rate_lo=RATE_LO,
                rate_hi=RATE_HI,
                probes=4 if quick else 6,
            )
        )
        curve[str(nodes)] = result
        knee = result["knee_rate"]
        if knee is None:
            print(f"  saturated below the {RATE_LO:g} ops/s search floor")
        else:
            latency = result["latency"]
            print(
                f"  knee {knee:g} ops/s   p50 {latency['p50_ms']:.2f} ms   "
                f"p95 {latency['p95_ms']:.2f} ms   p99 {latency['p99_ms']:.2f} ms   "
                f"p999 {latency['p999_ms']:.2f} ms"
            )
    return curve


def _closed_point(
    quick: bool, label: str, nodes: int, replicas: int, shards: int
) -> Dict:
    load = _load_config(quick)
    report = asyncio.run(
        run_load(_cluster_config(nodes, replicas=replicas, shards=shards), load)
    )
    print(
        f"  {label:<12} {report.throughput_ops_s:>8.1f} ops/s   "
        f"p50 {report.latency['p50_ms']:.2f} ms   "
        f"p99 {report.latency['p99_ms']:.2f} ms   "
        f"({report.ops_failed} failed)"
    )
    return {
        "throughput_ops_s": report.throughput_ops_s,
        "latency": report.latency,
        "ops_issued": report.ops_issued,
        "ops_failed": report.ops_failed,
        "ops_abandoned": report.ops_abandoned,
        "error_rate": report.error_rate,
    }


def run_replicas_curve(quick: bool, nodes: int) -> Dict[str, Dict]:
    print(f"== capacity vs replicas: {nodes} nodes, closed loop ==")
    return {
        str(replicas): _closed_point(
            quick, f"replicas={replicas}", nodes, replicas, 1
        )
        for replicas in REPLICA_COUNTS
    }


def run_shards_curve(quick: bool, nodes: int) -> Dict[str, Dict]:
    print(f"== capacity vs shards: {nodes} nodes, closed loop ==")
    return {
        str(shards): _closed_point(quick, f"shards={shards}", nodes, 1, shards)
        for shards in SHARD_COUNTS
    }


def run(quick: bool) -> Dict:
    load = _load_config(quick)
    section: Dict = {
        "schema": 1,
        "generated_unix": int(time.time()),
        "quick": quick,
        "config": {
            "node_counts": list(NODE_COUNTS),
            "replica_counts": list(REPLICA_COUNTS),
            "shard_counts": list(SHARD_COUNTS),
            "p99_budget_ms": P99_BUDGET_MS,
            "rate_lo": RATE_LO,
            "rate_hi": RATE_HI,
            "population": load.population,
            "duration_s": load.duration_s,
            "closed_clients": load.clients,
            "mix": load.mix.as_dict(),
            "seed": load.seed,
        },
        "nodes": run_nodes_curve(quick),
    }
    biggest = NODE_COUNTS[-1]
    section["replicas"] = run_replicas_curve(quick, biggest)
    section["shards"] = run_shards_curve(quick, biggest)
    return section


def check(section: Dict) -> List[str]:
    """The CI gate; returns a list of failures (empty = pass)."""
    failures = []
    for nodes, result in section["nodes"].items():
        if result["knee_rate"] is None:
            failures.append(
                f"{nodes}-node cluster saturated below the "
                f"{section['config']['rate_lo']:g} ops/s search floor"
            )
    biggest = str(max(int(n) for n in section["nodes"]))
    knee = section["nodes"][biggest].get("knee_rate")
    if knee is not None and knee < MIN_KNEE_RATE:
        failures.append(
            f"{biggest}-node saturation knee ({knee:g} ops/s) is below the "
            f"{MIN_KNEE_RATE:g} ops/s floor"
        )
    for curve in ("replicas", "shards"):
        for point_key, point in section[curve].items():
            if point["ops_failed"] or point["ops_abandoned"]:
                failures.append(
                    f"capacity-vs-{curve} point {point_key}: "
                    f"{point['ops_failed']} failed / "
                    f"{point['ops_abandoned']} abandoned ops"
                )
    return failures


def merge_into_snapshot(section: Dict, output: Path) -> None:
    """Set the ``capacity`` key in ``BENCH_service.json``, keeping the
    codec/shard sections ``bench_service_rpc.py`` wrote."""
    snapshot: Dict = {}
    if output.exists():
        snapshot = json.loads(output.read_text())
    snapshot["capacity"] = section
    output.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"merged capacity section into {output}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: shorter probes, smaller population",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the capacity gates hold (see module docs)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_service.json",
        help="snapshot to merge into (default: BENCH_service.json)",
    )
    args = parser.parse_args(argv)
    section = run(args.quick)
    merge_into_snapshot(section, args.output)
    if args.check:
        failures = check(section)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
