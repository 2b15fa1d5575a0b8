#!/usr/bin/env python
"""Hostile-network resilience numbers for the live cluster.

Quantifies what the client resilience layer (adaptive Jacobson-style
timeouts, hedged reads, the retry loop inside each op's deadline -- see
``docs/PROTOCOLS.md`` §14) buys under wire-level faults injected by
:class:`repro.service.netem.NetemController`. Three experiments:

* ``hostile``   -- the same open-loop locate-heavy load on a clean
  network and under a global 5% loss + 50ms jitter degrade, offered at
  a rate sustainable under the faults (above hostile capacity an
  open-loop run measures queue growth, not resilience). The gate: the
  hostile locate p99 stays within 10x of the clean baseline, where the
  baseline is floored at the injected-delay budget of a two-RPC locate
  (4 frames x jitter) -- the recovery path must cost adaptive-timeout
  money, not the 2s-fixed-timeout kind, and nothing may fail or
  collapse on either run.
* ``partition`` -- the tree is forged to ``PARTITION_LEAVES`` IAgents
  before the load starts, then the 30% of the nodes hosting the most of
  them are asymmetrically partitioned (inbound frames dropped) for the
  middle third of an open-loop window: part of the directory goes dark.
  The gate: goodput never reaches zero -- ops on the dark IAgents retry
  inside their deadline while the rest of the directory keeps serving
  -- no op fails or is abandoned, and the arm records retries (a
  partition no op notices measures nothing).
* ``hedging``   -- a jittery network with light loss, hedged reads on
  vs off. The gate: hedging beats the unhedged locate p99 -- a lost
  frame is recovered by the duplicate racing on its own connection in
  ~(hedge delay + one RTT), where the unhedged path pays the adaptive
  timeout, a backoff sleep and a refresh round to notice it.

Results merge into ``BENCH_service.json`` as a ``netem`` section
(every service bench sets only its own keys in that file).

Usage::

    PYTHONPATH=src python benchmarks/bench_service_netem.py           # full
    PYTHONPATH=src python benchmarks/bench_service_netem.py --quick   # CI
    PYTHONPATH=src python benchmarks/bench_service_netem.py --quick --check

``--quick`` numbers are not comparable to a full run and should never
be committed over a full snapshot.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

from repro.core.config import HashMechanismConfig
from repro.service.client import ClientConfig
from repro.service.cluster import ClusterConfig, booted_cluster
from repro.service.loadgen import LoadConfig, LoadGenerator, LoadReport, OpMix
from repro.service.server import ServiceConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

NODES = 5
SEED = 7

#: The hostile-network operating point the headline gate measures at.
HOSTILE_LOSS = 0.05
HOSTILE_JITTER_MS = 50.0

#: Operating point for the hedging comparison. Light loss is the
#: essential ingredient: under bounded jitter alone a duplicate rarely
#: beats a primary that always arrives, but when the primary's frame
#: is *lost* the duplicate recovers in ~(hedge delay + one RTT) where
#: the unhedged path pays the adaptive timeout plus backoff plus a
#: refresh round.
HEDGE_JITTER_MS = 40.0
HEDGE_LOSS = 0.02

#: Fraction of nodes asymmetrically partitioned mid-window: the ones
#: hosting the most IAgents.
PARTITION_FRACTION = 0.3

#: IAgents the partition arm forges the tree to before its load, so the
#: dark nodes host part of the directory.
PARTITION_LEAVES = 8

#: Seconds one forged report may take to land its split.
SPLIT_TIMEOUT_S = 10.0

#: Gate: hostile locate p99 must stay within this factor of clean.
HOSTILE_P99_FACTOR = 10.0

#: Offered rate for the hostile comparison (both runs). Chosen below
#: the cluster's capacity *under* 5% loss + 50ms jitter: an open-loop
#: rate above hostile capacity measures unbounded queue growth, not
#: resilience.
HOSTILE_RATE = 60.0


def _cluster_config(hedge: bool = True) -> ClusterConfig:
    return ClusterConfig(
        nodes=NODES,
        agents=1,  # population is the loadgen's, not the drill's
        ops=0,
        seed=SEED,
        netem_seed=SEED,  # install the controller; faults come from us
        service=ServiceConfig(
            # Pin rehashing off: a mid-run split adds seconds of
            # cross-server choreography to the tail, which is real but
            # is bench_service_load's story -- here it would only blur
            # the transport-resilience comparison. No cooldown: the
            # partition arm's forged splits may hit a leaf twice in a row.
            mechanism=HashMechanismConfig(t_max=1e9, t_min=0.0, cooldown=0.0),
        ),
        client=ClientConfig(
            hedge=hedge,
            # Hostile operating point: the adaptive estimator rules, the
            # fixed cap only bounds how long a lost frame can stall one
            # attempt -- 1s is ample for a LAN-scale cluster.
            rpc_timeout=1.0,
        ),
    )


def _load_config(quick: bool, rate: float) -> LoadConfig:
    return LoadConfig(
        mode="open",
        rate=rate,
        population=60 if quick else 150,
        duration_s=3.0 if quick else 8.0,
        warmup_s=0.5 if quick else 1.5,
        drain_s=2.0 if quick else 3.0,
        mix=OpMix(locate=0.85, move=0.10, register=0.05, batch=0.0),
        seed=SEED,
        record_ops=False,
    )


async def _run_load_with_netem(
    cluster_config: ClusterConfig,
    load: LoadConfig,
    setup=None,
    script=None,
    prepare=None,
) -> LoadReport:
    """Boot, optionally pre-fault the wires, run one load, tear down.

    ``await prepare(cluster)`` reshapes the cluster once the population
    is registered (the partition arm's forged tree); ``setup(netem)``
    installs steady-state faults before the load starts;
    ``script(netem, generator)`` runs concurrently with it (the
    mid-window partition).
    """
    async with booted_cluster(cluster_config) as cluster:
        generator = LoadGenerator(
            cluster.clients, [node.name for node in cluster.nodes], load
        )
        await generator.setup()
        if prepare is not None:
            await prepare(cluster)
        assert cluster.netem is not None
        if setup is not None:
            setup(cluster.netem)
        task = (
            asyncio.ensure_future(script(cluster.netem, generator))
            if script is not None
            else None
        )
        try:
            report = await generator.run()
        finally:
            if task is not None:
                await task
    report.nodes = cluster_config.nodes
    return report


def _point(report: LoadReport) -> Dict:
    counters = report.counters
    return {
        "throughput_ops_s": report.throughput_ops_s,
        "latency": report.latency,
        "locate_p99_ms": report.kinds.get("locate", {}).get("p99_ms", 0.0),
        "ops_issued": report.ops_issued,
        "ops_failed": report.ops_failed,
        "ops_abandoned": report.ops_abandoned,
        "goodput_timeline": report.goodput_timeline,
        "hedges": counters.get("hedges", 0),
        "hedge_wins": counters.get("hedge_wins", 0),
        "retries": counters.get("retries", 0),
    }


def run_hostile(quick: bool) -> Dict[str, Dict]:
    """Clean vs 5% loss + 50ms jitter, same seed, same arrivals."""
    rate = HOSTILE_RATE
    print("== hostile: clean baseline ==")
    clean = asyncio.run(
        _run_load_with_netem(_cluster_config(), _load_config(quick, rate))
    )
    print(
        f"  clean       {clean.throughput_ops_s:>7.1f} ops/s   "
        f"locate p99 {clean.kinds['locate']['p99_ms']:.2f} ms   "
        f"({clean.ops_failed} failed)"
    )

    def degrade_all(netem) -> None:
        netem.degrade("*", jitter_ms=HOSTILE_JITTER_MS, loss=HOSTILE_LOSS)

    print(
        f"== hostile: {HOSTILE_LOSS:.0%} loss + {HOSTILE_JITTER_MS:g}ms jitter =="
    )
    hostile = asyncio.run(
        _run_load_with_netem(
            _cluster_config(), _load_config(quick, rate), setup=degrade_all
        )
    )
    print(
        f"  hostile     {hostile.throughput_ops_s:>7.1f} ops/s   "
        f"locate p99 {hostile.kinds['locate']['p99_ms']:.2f} ms   "
        f"({hostile.ops_failed} failed, "
        f"{hostile.counters.get('hedges', 0)} hedges / "
        f"{hostile.counters.get('hedge_wins', 0)} won, "
        f"{hostile.counters.get('retries', 0)} retries)"
    )
    return {"clean": _point(clean), "hostile": _point(hostile)}


async def _forge_leaves(cluster, target: int) -> None:
    """Split the tree to ``target`` IAgents with forged over-threshold
    ``load-report``s, one leaf at a time, each awaited until the
    coordinator has logged its split."""
    primary = cluster.primary()

    def splits_logged() -> int:
        return sum(1 for entry in primary.rehash_log if entry["event"] == "split")

    while len(primary.iagent_nodes) < target:
        for owner in list(primary.iagent_nodes):
            if len(primary.iagent_nodes) >= target:
                break
            landed = primary.splits
            deadline = time.monotonic() + SPLIT_TIMEOUT_S
            await cluster.nodes[0].channel.call(
                primary.addr,
                "hagent",
                "load-report",
                {"owner": owner, "rate": 2e9, "mature": True},
            )
            while primary.splits == landed or splits_logged() < primary.splits:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"forged report for {owner} did not split")
                await asyncio.sleep(0.01)


def run_partition(quick: bool) -> Dict:
    """Goodput through a 30% asymmetric partition of the directory's nodes."""
    rate = 120.0 if quick else 200.0
    load = _load_config(quick, rate)
    dark_count = max(1, int(NODES * PARTITION_FRACTION))
    window = load.duration_s / 3.0
    dark: List[str] = []
    hosted: Counter = Counter()

    async def forge(cluster) -> None:
        await _forge_leaves(cluster, PARTITION_LEAVES)
        hosted.update(cluster.primary().iagent_nodes.values())
        dark.extend(sorted(hosted, key=lambda node: (-hosted[node], node))[:dark_count])

    async def partition_script(netem, generator) -> None:
        # Sleep into the measured window, blind the busiest nodes'
        # inbound direction for the middle third, then heal.
        await asyncio.sleep(load.warmup_s + window)
        for node in dark:
            netem.block(node, "in")
        await asyncio.sleep(window)
        for node in dark:
            netem.unblock(node, "in")

    print(
        f"== partition: {PARTITION_LEAVES} IAgents, the busiest {dark_count}/{NODES} "
        f"nodes inbound-dark for {window:.1f}s mid-window =="
    )
    report = asyncio.run(
        _run_load_with_netem(
            _cluster_config(), load, script=partition_script, prepare=forge
        )
    )
    timeline = report.goodput_timeline
    dark_iagents = sum(hosted[node] for node in dark)
    print(f"  dark        {', '.join(dark)} ({dark_iagents}/{PARTITION_LEAVES} IAgents)")
    print(
        f"  goodput/s   {timeline}   min {min(timeline) if timeline else 0}  "
        f"({report.ops_failed} failed, {report.ops_abandoned} abandoned, "
        f"{report.counters.get('retries', 0)} retries)"
    )
    point = _point(report)
    point["leaves"] = PARTITION_LEAVES
    point["dark_nodes"] = dark
    point["dark_iagents"] = dark_iagents
    point["window_s"] = round(window, 2)
    return point


def run_hedging(quick: bool) -> Dict[str, Dict]:
    """Hedged vs unhedged locate p99 under jitter plus light loss."""
    rate = 100.0 if quick else 150.0

    def jitter_all(netem) -> None:
        netem.degrade("*", jitter_ms=HEDGE_JITTER_MS, loss=HEDGE_LOSS)

    results: Dict[str, Dict] = {}
    for label, hedge in (("unhedged", False), ("hedged", True)):
        print(
            f"== hedging: {label} under {HEDGE_JITTER_MS:g}ms jitter "
            f"+ {HEDGE_LOSS:.0%} loss =="
        )
        report = asyncio.run(
            _run_load_with_netem(
                _cluster_config(hedge=hedge),
                _load_config(quick, rate),
                setup=jitter_all,
            )
        )
        print(
            f"  {label:<10} locate p99 {report.kinds['locate']['p99_ms']:.2f} ms   "
            f"({report.counters.get('hedges', 0)} hedges, "
            f"{report.counters.get('hedge_wins', 0)} won)"
        )
        results[label] = _point(report)
    return results


def run(quick: bool) -> Dict:
    return {
        "schema": 1,
        "generated_unix": int(time.time()),
        "quick": quick,
        "config": {
            "nodes": NODES,
            "seed": SEED,
            "hostile_loss": HOSTILE_LOSS,
            "hostile_jitter_ms": HOSTILE_JITTER_MS,
            "hostile_rate": HOSTILE_RATE,
            "hedge_jitter_ms": HEDGE_JITTER_MS,
            "hedge_loss": HEDGE_LOSS,
            "partition_fraction": PARTITION_FRACTION,
            "partition_leaves": PARTITION_LEAVES,
            "hostile_p99_factor": HOSTILE_P99_FACTOR,
        },
        "hostile": run_hostile(quick),
        "partition": run_partition(quick),
        "hedging": run_hedging(quick),
    }


def check(section: Dict) -> List[str]:
    """The CI gate; returns a list of failures (empty = pass)."""
    failures = []
    clean = section["hostile"]["clean"]
    hostile = section["hostile"]["hostile"]
    if clean["ops_failed"] or clean["ops_abandoned"]:
        failures.append(
            f"clean baseline had {clean['ops_failed']} failed / "
            f"{clean['ops_abandoned']} abandoned ops"
        )
    # The reference is floored at the injected-delay budget: a locate
    # is at least two RPCs = four one-way frames, each delayed up to
    # ``hostile_jitter_ms`` by the fault model itself. No client
    # cleverness can locate faster than the injected delays allow, so
    # gating against a (near-zero) clean-LAN p99 alone would demand the
    # physically impossible.
    jitter_budget = 4.0 * section["config"]["hostile_jitter_ms"]
    reference = max(clean["locate_p99_ms"], jitter_budget)
    factor = section["config"]["hostile_p99_factor"]
    if hostile["locate_p99_ms"] > factor * reference:
        failures.append(
            f"hostile locate p99 ({hostile['locate_p99_ms']:.1f} ms) exceeds "
            f"{factor:g}x the clean baseline ({clean['locate_p99_ms']:.1f} ms)"
        )
    partition = section["partition"]
    timeline = partition["goodput_timeline"]
    if not timeline or min(timeline) == 0:
        failures.append(
            f"goodput hit zero during the asymmetric partition: {timeline}"
        )
    if partition["ops_failed"] or partition["ops_abandoned"]:
        failures.append(
            f"partition run had {partition['ops_failed']} failed / "
            f"{partition['ops_abandoned']} abandoned ops"
        )
    if partition["retries"] == 0:
        failures.append(
            "partition run recorded 0 retries: no op touched the dark nodes"
        )
    hedged = section["hedging"]["hedged"]
    unhedged = section["hedging"]["unhedged"]
    # Strictly worse fails; a tie can happen when both runs' p99 lands
    # on the same quantized sample (same seeded arrivals) and is noise,
    # not a regression -- the hedge_wins gate below carries the signal.
    if hedged["locate_p99_ms"] > unhedged["locate_p99_ms"]:
        failures.append(
            f"hedged locate p99 ({hedged['locate_p99_ms']:.1f} ms) did not "
            f"beat unhedged ({unhedged['locate_p99_ms']:.1f} ms)"
        )
    if hedged["hedges"] == 0:
        failures.append("hedged run fired no hedges (hedging inert?)")
    elif hedged["hedge_wins"] == 0:
        failures.append(
            "no hedge ever won despite injected loss (duplicates may be "
            "queueing behind their primaries again)"
        )
    return failures


def merge_into_snapshot(section: Dict, output: Path) -> None:
    """Set the ``netem`` key in ``BENCH_service.json``, keeping the
    sections the other service benches wrote."""
    snapshot: Dict = {}
    if output.exists():
        snapshot = json.loads(output.read_text())
    snapshot["netem"] = section
    output.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"merged netem section into {output}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: shorter windows, smaller population",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the resilience gates hold (see module docs)",
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
