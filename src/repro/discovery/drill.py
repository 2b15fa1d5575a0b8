"""Live discovery acceptance drill: every result verified against truth.

The cluster drill (:mod:`repro.service.cluster`) verifies single-result
locates; this module is its discovery twin. It boots a real cluster,
registers a population whose capability sets cycle the palette, then
interleaves locates and migrations with Hamming-similarity and
capability discovery queries -- and checks **every** multi-result answer
against the driver's own ground truth (brute-force
:func:`~repro.discovery.hamming.ids_within` over the registered ids,
:func:`~repro.discovery.capability.matches_predicate` over the assigned
capability sets, and the per-agent location truth the migrations
maintain). A run passes only if every query's result set matched
exactly; any divergence is reported, never sampled away.

Deliberately not re-exported from :mod:`repro.discovery`'s package
namespace: the package is imported by the simulator core, while this
module pulls in the live service stack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.discovery.capability import (
    PREDICATE_PALETTE,
    assign_capabilities,
    matches_predicate,
)
from repro.discovery.hamming import ids_within
from repro.platform.naming import AgentId
from repro.service.cluster import ClusterConfig, booted_cluster

__all__ = [
    "DiscoveryDrillConfig",
    "DiscoveryDrillReport",
    "run_discovery_drill",
]


@dataclass(frozen=True)
class DiscoveryDrillConfig:
    """One discovery drill: topology, population, query volume."""

    #: Cluster topology and service settings (its ``agents``/``ops`` are
    #: ignored; the drill drives its own population and workload).
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    #: Mobile agents registered up front, capability sets cycling the
    #: palette.
    agents: int = 24

    #: Discovery queries to issue (alternating similar / capability;
    #: the last few go through the batched RPCs).
    queries: int = 20

    #: Locate/migrate ops interleaved between queries, so discovery is
    #: verified *while* records move and secondaries go stale.
    ops: int = 60

    #: Hamming radius of the similarity queries.
    d: int = 2

    #: Queries answered via the batched multi-result RPCs at the end.
    batched_queries: int = 4

    seed: int = 1


@dataclass
class DiscoveryDrillReport:
    """What the drill did, and whether every result set verified."""

    nodes: int = 0
    shards: int = 1
    agents: int = 0
    seed: int = 0
    duration: float = 0.0
    locates: int = 0
    locate_mismatches: int = 0
    migrations: int = 0
    similar_queries: int = 0
    similar_verified: int = 0
    capability_queries: int = 0
    capability_verified: int = 0
    #: Queries answered through the batched discover RPCs (subset of
    #: the totals above).
    batched_queries: int = 0
    #: Matches returned across every verified query.
    matches_returned: int = 0
    #: First few divergences, spelled out (empty on a passing run).
    mismatches: List[str] = field(default_factory=list)
    #: Client-counter totals (retries, bounces, discovery retries).
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Something ran, and every single result set verified."""
        return (
            self.similar_queries + self.capability_queries > 0
            and self.similar_verified == self.similar_queries
            and self.capability_verified == self.capability_queries
            and self.locate_mismatches == 0
            and not self.mismatches
        )

    def to_dict(self) -> Dict:
        record = dict(self.__dict__)
        record["passed"] = self.passed
        return record

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"discovery drill: {status}",
            f"  cluster     {self.nodes} nodes, {self.shards} shard(s), seed {self.seed}",
            f"  population  {self.agents} agents "
            f"(capability palette cycled over slots)",
            f"  workload    {self.locates} locates "
            f"({self.locate_mismatches} mismatched), "
            f"{self.migrations} migrations interleaved",
            f"  similar     {self.similar_verified}/{self.similar_queries} "
            f"queries verified against brute force",
            f"  capability  {self.capability_verified}/"
            f"{self.capability_queries} queries verified against truth",
            f"  results     {self.matches_returned} matches returned, "
            f"{self.batched_queries} queries via batched RPCs, "
            f"{self.counters.get('discovery_retries', 0)} stale-set retries",
        ]
        for message in self.mismatches:
            lines.append(f"  mismatch    {message}")
        return "\n".join(lines)


async def run_discovery_drill(
    config: Optional[DiscoveryDrillConfig] = None,
) -> DiscoveryDrillReport:
    """Boot a cluster, drive verified discovery, tear down."""
    import time

    config = config or DiscoveryDrillConfig()
    if config.agents < 2:
        raise ValueError("discovery drill needs at least two agents")
    if config.queries < 1:
        raise ValueError("discovery drill needs at least one query")
    report = DiscoveryDrillReport(
        nodes=config.cluster.nodes,
        shards=config.cluster.shards,
        agents=config.agents,
        seed=config.seed,
    )
    rng = random.Random(f"repro-discovery-drill-{config.seed}")
    started = time.monotonic()
    async with booted_cluster(
        replace(config.cluster, agents=0, ops=0, seed=config.seed)
    ) as cluster:
        caps_by_agent: Dict[AgentId, Dict] = {}
        agents: List[AgentId] = []
        for index in range(config.agents):
            caps = assign_capabilities(index)
            agent = await cluster.spawn_agent(caps)
            caps_by_agent[agent] = caps
            agents.append(agent)

        def truth_node(agent: AgentId) -> str:
            return cluster.nodes[cluster.truth[agent][0]].name

        def check_similar(query: AgentId, found: List[Dict]) -> None:
            report.similar_queries += 1
            expected = ids_within(agents, query, config.d)
            got = [(match["agent"], match["distance"]) for match in found]
            if got != expected:
                if len(report.mismatches) < 5:
                    report.mismatches.append(
                        f"similar {query}: got {got}, expected {expected}"
                    )
                return
            for match in found:
                if match["node"] != truth_node(match["agent"]):
                    if len(report.mismatches) < 5:
                        report.mismatches.append(
                            f"similar {query}: {match['agent']} reported on "
                            f"{match['node']}, truth "
                            f"{truth_node(match['agent'])}"
                        )
                    return
            report.similar_verified += 1
            report.matches_returned += len(found)

        def check_capability(predicate: Dict, found: List[Dict]) -> None:
            report.capability_queries += 1
            expected = {
                agent
                for agent, caps in caps_by_agent.items()
                if matches_predicate(caps, predicate)
            }
            got = {match["agent"] for match in found}
            if got != expected:
                if len(report.mismatches) < 5:
                    missing = sorted(str(a) for a in expected - got)
                    extra = sorted(str(a) for a in got - expected)
                    report.mismatches.append(
                        f"capability {predicate}: missing {missing}, "
                        f"extra {extra}"
                    )
                return
            for match in found:
                if match["capabilities"] != caps_by_agent[match["agent"]]:
                    if len(report.mismatches) < 5:
                        report.mismatches.append(
                            f"capability {predicate}: {match['agent']} "
                            f"returned stale capability set"
                        )
                    return
            report.capability_verified += 1
            report.matches_returned += len(found)

        async def interleave(count: int) -> None:
            for _ in range(count):
                agent = agents[rng.randrange(len(agents))]
                if rng.random() < 0.5:
                    ok = await cluster.locate_agent(
                        agent, rng.randrange(len(cluster.nodes))
                    )
                    report.locates += 1
                    if not ok:
                        report.locate_mismatches += 1
                else:
                    await cluster.migrate_agent(agent)
                    report.migrations += 1

        single = max(0, config.queries - config.batched_queries)
        per_gap = max(1, config.ops // max(1, config.queries))
        for index in range(single):
            await interleave(per_gap)
            client = cluster.clients[rng.randrange(len(cluster.clients))]
            if index % 2 == 0:
                query = agents[rng.randrange(len(agents))]
                check_similar(
                    query, await client.discover_similar(query, config.d)
                )
            else:
                predicate = PREDICATE_PALETTE[
                    rng.randrange(len(PREDICATE_PALETTE))
                ]
                check_capability(
                    predicate, await client.discover_capability(predicate)
                )

        # The tail goes through the batched multi-result RPCs, split
        # between the two query families.
        batched = min(config.batched_queries, config.queries)
        if batched:
            await interleave(per_gap)
            client = cluster.clients[0]
            similar_n = (batched + 1) // 2
            queries = [
                (agents[rng.randrange(len(agents))], config.d)
                for _ in range(similar_n)
            ]
            predicates = [
                PREDICATE_PALETTE[rng.randrange(len(PREDICATE_PALETTE))]
                for _ in range(batched - similar_n)
            ]
            for (query, _), found in zip(
                queries, await client.discover_similar_batch(queries)
            ):
                check_similar(query, found)
            if predicates:
                for predicate, found in zip(
                    predicates,
                    await client.discover_capability_batch(predicates),
                ):
                    check_capability(predicate, found)
            report.batched_queries = batched

        report.counters = cluster.merged_counters().as_dict()
    report.duration = time.monotonic() - started
    return report
