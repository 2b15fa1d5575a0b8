#!/usr/bin/env python
"""Measure the service RPC path: three driving disciplines.

Boots a real localhost cluster (one HAgent, N node servers, every RPC a
TCP round-trip) and drives the ``locate`` hot path three ways:

* ``sequential`` -- one locate at a time, full round-trip each: the
  baseline every speedup is quoted against.
* ``pipelined``  -- a window of concurrent locates multiplexed over the
  pooled connections, correlated by ``message_id``.
* ``batched``    -- ``locate_batch`` amortizing one ``locate-batch``
  RPC over many agents.

On top of the locate arms, a **sharded coordinator** section boots the
cluster at 1 / 2 / 4 prefix shards (each shard its own primary HAgent,
see ``docs/PROTOCOLS.md`` §12) and measures the coordination plane two
ways per shard count:

* ``rehash``  -- forged over-threshold load reports storm every leaf
  until a fixed total split count lands; splits/sec is the rehash
  throughput. One shard serializes every split behind a single rehash
  lock; S shards run S splits' RPC round-trips concurrently.
* ``reports`` -- benign pipelined load reports, aggregate ops/sec
  across every shard's primary.

A **discovery** section covers the multi-result path (PROTOCOLS.md
§13) three ways:

* ``walk``    -- the prefix-pruned Hamming walk over a ~1k-leaf tree
  against a brute popcount scan of all 4096 agent ids, same answers
  asserted before either arm is timed.
* ``capability_rpc`` -- sequential ``discover-capability`` round-trips
  against the batched ``discover-capability-batch`` RPC over a live
  cluster.
* ``shard_consistency`` -- the same seeded population queried at 1 / 2
  / 4 shards; the canonicalized result sets must be identical.

Sets ops/sec and p50/p99 latency for the three locate arms plus the
sharded and discovery sections in ``BENCH_service.json`` at the repo
root, leaving the sections other benches own (``capacity``, ``netem``)
as they are. Commit the refreshed snapshot when a PR moves the numbers;
diffs of that file are the perf history.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_rpc.py           # full
    PYTHONPATH=src python benchmarks/bench_service_rpc.py --quick   # CI
    PYTHONPATH=src python benchmarks/bench_service_rpc.py --quick --check

``--check`` exits non-zero unless rehash throughput at 4 shards clears
1.6x the single-shard baseline, the pruned Hamming walk clears 5x the
brute scan, batched capability discovery clears 1.5x sequential, and
discovery results are shard-count invariant (gates (c) -- (f) of
``docs/REPORT.md``).
``--quick`` numbers are not comparable to a full run and should never
be committed over a full snapshot.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import statistics
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.config import HashMechanismConfig
from repro.core.hash_tree import HashTree
from repro.discovery.capability import PREDICATE_PALETTE, assign_capabilities
from repro.platform.naming import AgentId, AgentNamer
from repro.service.client import ServiceClient
from repro.service.cluster import ClusterConfig, booted_cluster
from repro.service.server import ServiceConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Concurrent locates in flight during the pipelined arm.
PIPELINE_WINDOW = 32

#: Agents per ``locate-batch`` RPC during the batched arm.
BATCH_SIZE = 64

#: Coordinator shard counts the sharded section sweeps.
SHARD_COUNTS = (1, 2, 4)

#: Concurrent benign load reports in flight per shard primary.
REPORT_WINDOW = 32

#: Wall-clock ceiling on one rehash storm (a storm that cannot reach
#: its split target is reported with whatever it achieved, not hung).
REHASH_DEADLINE_S = 45.0

#: Modeled one-way coordinator-to-node/IAgent RPC latency during the
#: sharded section (s). Localhost round-trips cost ~nothing, which
#: hides the sequential-RPC serialization inside each split that
#: sharding actually removes; a WAN-representative delay restores it.
RPC_DELAY_S = 0.004

#: Agent population of the Hamming-walk micro-bench (the gate is
#: quoted at this size, so ``--quick`` does not shrink it).
DISCOVERY_WALK_AGENTS = 4096

#: Hamming radius of the discovery arms.
DISCOVERY_D = 2

#: Shard counts the discovery-consistency arm sweeps.
DISCOVERY_SHARD_COUNTS = (1, 2, 4)

#: The gate on batched over sequential capability discovery; a batch
#: that stops amortizing reads ~1.0x. Measured 2.2-2.8x over 13
#: ``--quick`` arms and 2.0-3.0x over 14 full ones (docs/REPORT.md)
#: while each sequential query also paid a ``discover-candidates`` round
#: trip. Candidates are local now, so the sequential arm runs ~1.37x
#: faster and the quick ratio reads 1.59-1.88x over 12 arms on a quiet
#: 2-vCPU host (median 1.84), 1.36x at worst on a loaded one: the
#: margin is thin.
CAPABILITY_BATCH_GATE = 1.5


# ----------------------------------------------------------------------
# The three driving disciplines
# ----------------------------------------------------------------------


async def _run_sequential(
    client: ServiceClient, agents: List[AgentId], ops: int
) -> Tuple[List[float], float]:
    latencies: List[float] = []
    start = time.perf_counter()
    for index in range(ops):
        begin = time.perf_counter()
        await client.locate(agents[index % len(agents)])
        latencies.append(time.perf_counter() - begin)
    return latencies, time.perf_counter() - start


async def _run_pipelined(
    client: ServiceClient, agents: List[AgentId], ops: int
) -> Tuple[List[float], float]:
    latencies: List[float] = []

    async def one(agent: AgentId) -> None:
        begin = time.perf_counter()
        await client.locate(agent)
        latencies.append(time.perf_counter() - begin)

    start = time.perf_counter()
    for base in range(0, ops, PIPELINE_WINDOW):
        window = range(base, min(base + PIPELINE_WINDOW, ops))
        await asyncio.gather(
            *(one(agents[index % len(agents)]) for index in window)
        )
    return latencies, time.perf_counter() - start


async def _run_batched(
    client: ServiceClient, agents: List[AgentId], ops: int
) -> Tuple[List[float], float]:
    # Each item's latency is its batch's round-trip: that is what the
    # caller of locate_batch actually waits.
    latencies: List[float] = []
    start = time.perf_counter()
    done = 0
    while done < ops:
        chunk = [
            agents[(done + offset) % len(agents)]
            for offset in range(min(BATCH_SIZE, ops - done))
        ]
        begin = time.perf_counter()
        located = await client.locate_batch(chunk)
        elapsed = time.perf_counter() - begin
        assert len(located) == len(set(chunk))
        latencies.extend([elapsed] * len(chunk))
        done += len(chunk)
    return latencies, time.perf_counter() - start


ARMS = {
    "sequential": _run_sequential,
    "pipelined": _run_pipelined,
    "batched": _run_batched,
}


# ----------------------------------------------------------------------
# The locate arms
# ----------------------------------------------------------------------


def _summarize(latencies: List[float], duration: float) -> Dict[str, float]:
    ordered = sorted(latencies)

    def quantile(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    return {
        "ops": len(latencies),
        "duration_s": round(duration, 6),
        "ops_per_sec": round(len(latencies) / duration, 1),
        "p50_ms": round(quantile(0.50) * 1e3, 4),
        "p99_ms": round(quantile(0.99) * 1e3, 4),
        "mean_ms": round(statistics.mean(latencies) * 1e3, 4),
    }


async def _bench_locate(
    nodes: int, agent_count: int, ops: int
) -> Dict[str, Dict[str, float]]:
    config = ClusterConfig(
        nodes=nodes,
        agents=agent_count,
        ops=0,
        seed=7,
    )
    async with booted_cluster(config) as cluster:
        agents = [await cluster.spawn_agent() for _ in range(agent_count)]
        driver = cluster.clients[0]
        results: Dict[str, Dict[str, float]] = {}
        for arm, runner in ARMS.items():
            # Warm the connection pool + secondary copies out of band.
            await runner(driver, agents, min(len(agents), PIPELINE_WINDOW))
            latencies, duration = await runner(driver, agents, ops)
            results[arm] = _summarize(latencies, duration)
        return results


# ----------------------------------------------------------------------
# Sharded coordinator section (PROTOCOLS.md §12)
# ----------------------------------------------------------------------


def _sharded_mechanism() -> HashMechanismConfig:
    """Mechanism knobs for the coordination-plane storm.

    Cooldown off so forged reports can drive back-to-back splits;
    merges off so the storm only ever grows the trees; the real IAgent
    report loops quieted so every report on the wire is the bench's.
    """
    return HashMechanismConfig(
        t_max=15.0,
        t_min=1.0,
        rate_window=1.0,
        report_interval=30.0,
        warmup_fraction=0.5,
        cooldown=0.0,
        enable_merge=False,
    )


async def _bench_sharded(
    shards: int, nodes: int, agent_count: int, split_target: int, report_ops: int
) -> Dict[str, Dict[str, float]]:
    """One shard count: benign-report ops/sec, then the rehash storm."""
    config = ClusterConfig(
        nodes=nodes,
        agents=agent_count,
        ops=0,
        seed=11,
        shards=shards,
        service=ServiceConfig(
            mechanism=_sharded_mechanism(),
            coordinator_rpc_delay=RPC_DELAY_S,
        ),
    )
    async with booted_cluster(config) as cluster:
        for _ in range(agent_count):
            await cluster.spawn_agent()
        channel = cluster.clients[0].channel
        primaries = {
            shard: cluster.primary(shard).addr for shard in range(shards)
        }

        # -- benign reports: aggregate coordination-plane capacity.
        # Total in-flight window is held constant across shard counts
        # (split evenly over the shard primaries) so the arm compares
        # routing fan-out, not offered concurrency.
        per_shard_ops = report_ops // shards
        per_shard_window = max(1, REPORT_WINDOW // shards)

        async def pump_reports(shard: int, addr) -> None:
            reply = await channel.call(addr, "hagent", "list-iagents", {})
            owner = reply["iagents"][0]["owner"]
            done = 0
            while done < per_shard_ops:
                window = min(per_shard_window, per_shard_ops - done)
                await asyncio.gather(
                    *(
                        channel.call(
                            addr,
                            "hagent",
                            "load-report",
                            {
                                "owner": owner,
                                "rate": 0.0,
                                "mature": False,
                                "shard": shard,
                            },
                        )
                        for _ in range(window)
                    )
                )
                done += window

        start = time.perf_counter()
        await asyncio.gather(
            *(pump_reports(shard, addr) for shard, addr in primaries.items())
        )
        report_duration = time.perf_counter() - start
        reports = {
            "ops": per_shard_ops * shards,
            "duration_s": round(report_duration, 6),
            "ops_per_sec": round(per_shard_ops * shards / report_duration, 1),
        }

        # -- rehash storm: splits/sec until the shared target lands ----
        splits_seen: Dict[int, int] = {shard: 0 for shard in primaries}
        stop = asyncio.Event()

        async def storm(shard: int, addr) -> None:
            deadline = start + REHASH_DEADLINE_S
            while not stop.is_set() and time.perf_counter() < deadline:
                reply = await channel.call(addr, "hagent", "list-iagents", {})
                owners = [entry["owner"] for entry in reply["iagents"]]
                await asyncio.gather(
                    *(
                        channel.call(
                            addr,
                            "hagent",
                            "load-report",
                            {
                                "owner": owner,
                                "rate": 1e9,
                                "mature": True,
                                "shard": shard,
                            },
                        )
                        for owner in owners
                    )
                )
                stats = await channel.call(addr, "hagent", "stats", {})
                splits_seen[shard] = stats["splits"]
                if sum(splits_seen.values()) >= split_target:
                    stop.set()

        start = time.perf_counter()
        await asyncio.gather(
            *(storm(shard, addr) for shard, addr in primaries.items())
        )
        storm_duration = time.perf_counter() - start
        achieved = sum(splits_seen.values())
        rehash = {
            "split_target": split_target,
            "splits": achieved,
            "duration_s": round(storm_duration, 6),
            "splits_per_sec": round(achieved / storm_duration, 2),
        }
        return {"reports": reports, "rehash": rehash}


def run_sharded(
    quick: bool, nodes: int, agent_count: int, split_target: int, report_ops: int
) -> Dict:
    section: Dict = {
        "config": {
            "nodes": nodes,
            "agents": agent_count,
            "split_target": split_target,
            "report_ops": report_ops,
            "report_window": REPORT_WINDOW,
            "rpc_delay_ms": RPC_DELAY_S * 1e3,
        },
        "counts": {},
    }
    for shards in SHARD_COUNTS:
        print(
            f"== shards {shards}: {split_target} splits + {report_ops} reports "
            f"over {nodes} nodes =="
        )
        results = asyncio.run(
            _bench_sharded(shards, nodes, agent_count, split_target, report_ops)
        )
        section["counts"][str(shards)] = results
        print(
            f"  rehash     {results['rehash']['splits_per_sec']:>9.2f} splits/s "
            f"({results['rehash']['splits']}/{split_target} in "
            f"{results['rehash']['duration_s']:.3f}s)"
        )
        print(
            f"  reports    {results['reports']['ops_per_sec']:>9.1f} ops/s"
        )
    baseline = section["counts"]["1"]["rehash"]["splits_per_sec"]
    report_baseline = section["counts"]["1"]["reports"]["ops_per_sec"]
    section["rehash_speedup_vs_1"] = {
        str(shards): round(
            section["counts"][str(shards)]["rehash"]["splits_per_sec"]
            / baseline,
            2,
        )
        for shards in SHARD_COUNTS
    }
    section["report_speedup_vs_1"] = {
        str(shards): round(
            section["counts"][str(shards)]["reports"]["ops_per_sec"]
            / report_baseline,
            2,
        )
        for shards in SHARD_COUNTS
    }
    return section


# ----------------------------------------------------------------------
# Discovery section (PROTOCOLS.md §13)
# ----------------------------------------------------------------------


def _grow_balanced_tree(leaves: int, width: int) -> HashTree:
    """A tree grown breadth-first to ``leaves`` owners.

    Splitting the shallowest leaf each step (always by its first
    candidate, the paper's preferred one) yields the near-balanced
    shape a uniform id population drives the mechanism toward."""
    tree = HashTree("o0", width=width)
    queue = deque(["o0"])
    count = 1
    while count < leaves and queue:
        owner = queue.popleft()
        candidates = tree.split_candidates(owner)
        if not candidates:
            continue
        new_owner = f"o{count}"
        tree.apply_split(candidates[0], new_owner)
        count += 1
        queue.append(owner)
        queue.append(new_owner)
    return tree


def _bench_walk(agent_count: int, queries: int, d: int) -> Dict:
    """Prefix-pruned walk + per-owner scan vs brute popcount scan."""
    namer = AgentNamer(seed=13)
    agents = [namer.next_id() for _ in range(agent_count)]
    leaves = max(256, agent_count // 4)
    tree = _grow_balanced_tree(leaves, agents[0].width)
    buckets: Dict[str, List[AgentId]] = {}
    for agent in agents:
        buckets.setdefault(tree.lookup_id(agent), []).append(agent)
    rng = random.Random(29)
    query_ids = [agents[rng.randrange(agent_count)] for _ in range(queries)]
    values = [agent.value for agent in agents]

    def pruned(query: AgentId) -> List[int]:
        qv = query.value
        return [
            agent.value
            for owner in tree.find_within_hamming(query, d)
            for agent in buckets.get(owner, ())
            if agent.value != qv and bin(agent.value ^ qv).count("1") <= d
        ]

    def brute(query: AgentId) -> List[int]:
        qv = query.value
        return [v for v in values if v != qv and bin(v ^ qv).count("1") <= d]

    # The arms must agree before timing either means anything.
    for query in query_ids[:16]:
        assert sorted(pruned(query)) == sorted(brute(query))
    sample = query_ids[: min(32, queries)]
    scanned = sum(
        len(buckets.get(owner, ()))
        for query in sample
        for owner in tree.find_within_hamming(query, d)
    ) / len(sample)

    start = time.perf_counter()
    for query in query_ids:
        pruned(query)
    pruned_s = time.perf_counter() - start
    start = time.perf_counter()
    for query in query_ids:
        brute(query)
    brute_s = time.perf_counter() - start
    return {
        "agents": agent_count,
        "leaves": len(tree),
        "d": d,
        "queries": queries,
        "avg_candidates_scanned": round(scanned, 1),
        "pruned_queries_per_sec": round(queries / pruned_s, 1),
        "brute_queries_per_sec": round(queries / brute_s, 1),
        "speedup_vs_brute": round(brute_s / pruned_s, 2),
    }


async def _bench_capability_rpc(
    batched: bool, agent_count: int, query_count: int
) -> Dict:
    """Time ``query_count`` capability discoveries over a live cluster."""
    config = ClusterConfig(
        nodes=3,
        agents=0,
        ops=0,
        seed=5,
    )
    async with booted_cluster(config) as cluster:
        for index in range(agent_count):
            await cluster.spawn_agent(assign_capabilities(index))
        client = cluster.clients[0]
        predicates = [
            PREDICATE_PALETTE[index % len(PREDICATE_PALETTE)]
            for index in range(query_count)
        ]
        # Warm the connection pool + secondary copies out of band.
        await client.discover_capability(predicates[0])
        start = time.perf_counter()
        if batched:
            results = await client.discover_capability_batch(predicates)
        else:
            results = [
                await client.discover_capability(predicate)
                for predicate in predicates
            ]
        duration = time.perf_counter() - start
        assert all(found is not None for found in results)
        return {
            "discipline": "batched" if batched else "sequential",
            "agents": agent_count,
            "queries": query_count,
            "matches": sum(len(found) for found in results),
            "duration_s": round(duration, 6),
            "queries_per_sec": round(query_count / duration, 1),
        }


async def _discovery_shard_results(shards: int, agent_count: int) -> List:
    """Canonicalized discovery answers for one shard count."""
    config = ClusterConfig(
        nodes=4,
        agents=0,
        ops=0,
        seed=17,
        shards=shards,
    )
    async with booted_cluster(config) as cluster:
        agents = [
            await cluster.spawn_agent(assign_capabilities(index))
            for index in range(agent_count)
        ]
        client = cluster.clients[0]
        results: List = []
        for query in agents[:8]:
            for d in (1, DISCOVERY_D):
                found = await client.discover_similar(query, d)
                results.append(
                    [[match["agent"].value, match["distance"]] for match in found]
                )
        for predicate in PREDICATE_PALETTE:
            found = await client.discover_capability(predicate)
            results.append(sorted(match["agent"].value for match in found))
        return results


def run_discovery(quick: bool) -> Dict:
    walk_queries = 64 if quick else 256
    # Population held at 32 in both modes: the arm measures RPC
    # discipline (round-trip amortization), and match-payload codec
    # cost grows with population on both sides of the ratio.
    rpc_agents = 32
    rpc_queries = 24 if quick else 64
    shard_agents = 32 if quick else 64
    print(
        f"== discovery: walk over {DISCOVERY_WALK_AGENTS} agents, "
        f"{rpc_queries} capability queries, shard sweep =="
    )
    walk = _bench_walk(DISCOVERY_WALK_AGENTS, walk_queries, DISCOVERY_D)
    print(
        f"  walk       {walk['pruned_queries_per_sec']:>9.1f} q/s pruned vs "
        f"{walk['brute_queries_per_sec']:.1f} q/s brute "
        f"({walk['speedup_vs_brute']:.1f}x, "
        f"{walk['avg_candidates_scanned']:.0f}/{walk['agents']} scanned)"
    )
    sequential = asyncio.run(_bench_capability_rpc(False, rpc_agents, rpc_queries))
    batched = asyncio.run(_bench_capability_rpc(True, rpc_agents, rpc_queries))
    rpc_speedup = round(
        batched["queries_per_sec"] / sequential["queries_per_sec"], 2
    )
    print(
        f"  capability {batched['queries_per_sec']:>9.1f} q/s batched "
        f"vs {sequential['queries_per_sec']:.1f} q/s sequential "
        f"({rpc_speedup:.1f}x)"
    )
    baseline = asyncio.run(_discovery_shard_results(1, shard_agents))
    identical = all(
        asyncio.run(_discovery_shard_results(shards, shard_agents)) == baseline
        for shards in DISCOVERY_SHARD_COUNTS[1:]
    )
    print(
        f"  shards     result sets "
        f"{'identical' if identical else 'DIVERGED'} at "
        f"{'/'.join(str(s) for s in DISCOVERY_SHARD_COUNTS)} shards"
    )
    return {
        "config": {
            "walk_agents": DISCOVERY_WALK_AGENTS,
            "walk_queries": walk_queries,
            "d": DISCOVERY_D,
            "rpc_agents": rpc_agents,
            "rpc_queries": rpc_queries,
            "shard_agents": shard_agents,
            "shard_counts": list(DISCOVERY_SHARD_COUNTS),
        },
        "walk": walk,
        "capability_rpc": {
            "sequential": sequential,
            "batched": batched,
            "speedup_batched_vs_sequential": rpc_speedup,
        },
        "shard_consistency": {
            "counts": list(DISCOVERY_SHARD_COUNTS),
            "identical": identical,
        },
    }


def run(quick: bool, nodes: int, agents: int, ops: int) -> Dict:
    snapshot: Dict = {
        "schema": 4,
        "generated_unix": int(time.time()),
        "quick": quick,
        "config": {
            "nodes": nodes,
            "agents": agents,
            "ops_per_arm": ops,
            "pipeline_window": PIPELINE_WINDOW,
            "batch_size": BATCH_SIZE,
        },
    }
    print(f"== locate: {ops} per arm over {nodes} nodes ==")
    results = snapshot["locate"] = asyncio.run(_bench_locate(nodes, agents, ops))
    for arm, summary in results.items():
        print(
            f"  {arm:<10} {summary['ops_per_sec']:>9.1f} ops/s   "
            f"p50 {summary['p50_ms']:.3f} ms   p99 {summary['p99_ms']:.3f} ms"
        )
    baseline = results["sequential"]["ops_per_sec"]
    snapshot["speedups_vs_sequential"] = {
        arm: round(results[arm]["ops_per_sec"] / baseline, 2) for arm in ARMS
    }
    snapshot["shards"] = run_sharded(
        quick,
        nodes,
        agent_count=48 if quick else 96,
        split_target=12 if quick else 32,
        report_ops=384 if quick else 1536,
    )
    snapshot["discovery"] = run_discovery(quick)
    return snapshot


def check(snapshot: Dict) -> List[str]:
    """The CI gate; returns a list of failures (empty = pass)."""
    failures = []
    sharded = snapshot.get("shards")
    if sharded is not None:
        one = sharded["counts"]["1"]["rehash"]["splits_per_sec"]
        four = sharded["counts"]["4"]["rehash"]["splits_per_sec"]
        if four < 1.6 * one:
            failures.append(
                f"4-shard rehash throughput ({four:.2f} splits/s) is below "
                f"1.6x the single-shard baseline ({one:.2f} splits/s)"
            )
    discovery = snapshot.get("discovery")
    if discovery is not None:
        walk = discovery["walk"]
        if walk["speedup_vs_brute"] < 5.0:
            failures.append(
                f"pruned Hamming walk ({walk['pruned_queries_per_sec']:.0f} "
                f"q/s) is below 5x the brute scan "
                f"({walk['brute_queries_per_sec']:.0f} q/s) at "
                f"{walk['agents']} agents, d={walk['d']}"
            )
        rpc = discovery["capability_rpc"]
        if rpc["speedup_batched_vs_sequential"] < CAPABILITY_BATCH_GATE:
            failures.append(
                f"batched capability discovery "
                f"({rpc['batched']['queries_per_sec']:.0f} q/s) is below "
                f"{CAPABILITY_BATCH_GATE}x sequential "
                f"({rpc['sequential']['queries_per_sec']:.0f} q/s)"
            )
        if not discovery["shard_consistency"]["identical"]:
            failures.append(
                "discovery result sets diverged across "
                f"{discovery['shard_consistency']['counts']} shards"
            )
    return failures


def merge_into_snapshot(sections: Dict, output: Path) -> None:
    """Set this script's keys in ``BENCH_service.json``, keeping the
    ``capacity`` / ``netem`` sections their own benches merged in."""
    snapshot: Dict = {}
    if output.exists():
        snapshot = json.loads(output.read_text())
    snapshot.update(sections)
    output.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"merged {', '.join(sorted(sections))} into {output}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: fewer ops, small cluster"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every gate clears (see module docs)",
    )
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--agents", type=int, default=None)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_service.json",
        help="snapshot to merge into (default: BENCH_service.json)",
    )
    args = parser.parse_args(argv)
    nodes = args.nodes or (3 if args.quick else 5)
    agents = args.agents or (48 if args.quick else 128)
    ops = args.ops or (384 if args.quick else 2000)
    snapshot = run(args.quick, nodes, agents, ops)
    merge_into_snapshot(snapshot, args.output)
    if args.check:
        failures = check(snapshot)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
