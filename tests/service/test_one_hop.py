"""One-hop locate: the requester's own copy against its LHAgent's.

A ``ServiceClient`` resolves against secondary copies of its own and
asks its node's LHAgent only for what takes them forward. After every
kind of change to the hash function -- split, merge, an IAgent moved by
takeover, a coordinator failover whose successor numbers versions below
the dead primary's, a cross-shard merge re-pointing a prefix -- each
requester's local resolve must equal what its LHAgent would have
answered (``whois``, the pre-one-hop resolve), and every locate must
agree with the driver's ground truth. Discovery candidates come from the
same copies: after the cross-shard merges, every result set must equal
brute force and no round may ask an IAgent twice.
"""

import asyncio
from dataclasses import replace

from repro.core.rehashing import takeover_saga
from repro.discovery.capability import (
    PREDICATE_PALETTE,
    assign_capabilities,
    matches_predicate,
)
from repro.discovery.hamming import ids_within
from repro.service.cluster import ClusterConfig, booted_cluster
from repro.service.routing import shard_of

from tests.service.test_sharding import fast_config

SAMPLE = 200


def run(coro):
    return asyncio.run(coro)


def cluster_config(**topology):
    """Failover in tens of ms; rehashing only when the test says so."""
    service = fast_config()
    mechanism = replace(service.mechanism, enable_merge=False, cooldown=0.0, t_max=1e12)
    return ClusterConfig(
        agents=0, ops=0, seed=31, service=replace(service, mechanism=mechanism), **topology
    )


async def converged(cluster, agents):
    """Every locate, from every node, is right; then each requester's
    own copy resolves the sampled ids exactly as its LHAgent would."""
    for requester, (client, node) in enumerate(zip(cluster.clients, cluster.nodes)):
        for agent in agents:
            assert await cluster.locate_agent(agent, requester), f"{agent} from {node.name}"
        sent = client.counters.ops
        for agent in agents[:SAMPLE]:
            shard = shard_of(agent, client._shards)
            reference = await client.channel.call(
                node.addr, "lhagent", "whois", {"agent": agent}
            )
            assert client._held.resolve(shard, agent) == reference
        assert client.counters.ops == sent


async def discovered_exactly(client, caps_by_agent):
    """``client``'s similarity and capability results, single and
    batched, equal brute force over the population, and no round names
    an IAgent twice among its candidates."""
    rounds = []
    candidates = client._candidates

    async def recording(*args):
        found = await candidates(*args)
        if found is not None:
            rounds.append([cand["iagent"] for cand in found[0]])
        return found

    client._candidates = recording
    agents = list(caps_by_agent)
    for query in agents[:3]:
        for d in (2, 28):
            truth = {agent for agent, _ in ids_within(agents, query, d)}
            found = await client.discover_similar(query, d)
            assert {match["agent"] for match in found} == truth
    predicates = PREDICATE_PALETTE[:4]
    truths = [
        {agent for agent, caps in caps_by_agent.items() if matches_predicate(caps, predicate)}
        for predicate in predicates
    ]
    for predicate, truth in zip(predicates, truths):
        found = await client.discover_capability(predicate)
        assert {match["agent"] for match in found} == truth
    batched = await client.discover_capability_batch(predicates)
    assert [{match["agent"] for match in found} for found in batched] == truths
    del client._candidates
    assert len(rounds) >= 3 * 2 + len(predicates) + 1  # a retry adds a round
    assert all(len(names) == len(set(names)) for names in rounds)


class TestLocalResolveEqualsTheLHAgents:
    def test_split_merge_takeover_and_a_failover_numbering_below(self):
        async def scenario():
            config = cluster_config(nodes=3, hagent_replicas=2)
            async with booted_cluster(config) as cluster:
                agents = [await cluster.spawn_agent() for _ in range(240)]
                primary = cluster.primary()
                (root,) = primary.iagent_nodes
                await converged(cluster, agents)

                # An IAgent crashes and is re-hosted elsewhere (a move).
                crashed_on = cluster.node_by_name(primary.iagent_nodes[root])
                await cluster.clients[0].channel.call(
                    crashed_on.addr, "host", "crash-iagent", {"owner": root}
                )
                await primary._step(takeover_saga(primary, root))
                assert primary.takeovers == 1
                assert primary.iagent_nodes[root] != crashed_on.name
                await converged(cluster, agents)

                await primary._split(root)
                assert len(primary.tree) == 2
                await converged(cluster, agents)

                # With the standby cut off, a split and the merge that
                # undoes it: the primary is two versions ahead of a
                # standby holding the very tree the cluster is in.
                assert await cluster.replicas_converged()
                (standby,) = [h for h in cluster.live_replicas() if h is not primary]
                standby.partitioned = True
                await primary._split(root)
                assert len(primary.tree) == 3
                (newest,) = set(primary.iagent_nodes) - set(standby.iagent_nodes)
                await converged(cluster, agents)
                await primary._merge(newest)
                assert len(primary.tree) == 2
                await converged(cluster, agents)

                held = {c._held.copies[0].version for c in cluster.clients}
                assert held == {primary.version}
                await cluster.crash_primary_hagent()
                standby.partitioned = False
                promoted = await cluster.await_promotion(3.0)
                assert promoted is standby and promoted.epoch == 2
                assert promoted.version == primary.version - 2
                await promoted._split(root)
                assert len(promoted.tree) == 3
                # The copies were rebased onto the new epoch's lower numbers.
                await converged(cluster, agents)
                for client in cluster.clients:
                    assert client._held.origins[0] == (0, 2)
                    assert client._held.copies[0].version == promoted.version < min(held)

        run(scenario())

    def test_cross_shard_merges_repoint_two_of_four_prefixes(self):
        async def scenario():
            config = cluster_config(nodes=3, shards=4)
            async with booted_cluster(config) as cluster:
                caps_by_agent = {}
                for index in range(240):
                    caps = assign_capabilities(index)
                    caps_by_agent[await cluster.spawn_agent(caps)] = caps
                agents = list(caps_by_agent)
                assert {shard_of(agent, 4) for agent in agents} == {0, 1, 2, 3}
                await converged(cluster, agents)
                assert all(client._shards == 4 for client in cluster.clients)
                # Split one absorber first, so that its function is not
                # the one-leaf tree every shard boots with.
                (root,) = cluster.primary(0).iagent_nodes
                await cluster.primary(0)._split(root)
                await converged(cluster, agents)

                channel = cluster.clients[0].channel
                for absorbed, into in ((1, 0), (3, 2)):
                    reply = await channel.call(
                        cluster.primary(absorbed).addr,
                        "hagent",
                        "shard-merge",
                        {"shard": absorbed},
                    )
                    assert (reply["status"], reply["into"]) == ("ok", into)
                await converged(cluster, agents)
                for client in cluster.clients:
                    origins = client._held.origins
                    assert [origins[prefix][0] for prefix in range(4)] == [0, 0, 2, 2]
                    await discovered_exactly(client, caps_by_agent)

        run(scenario())
