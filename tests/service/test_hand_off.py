"""A live split's or merge's records cross the wire once.

The coordinator orders a ``hand-off``; each giving IAgent extracts and
pushes its records straight to the leaves that take them, one fenced
``adopt`` per destination through its node's channel. These tests boot
a real cluster on loopback and check what that makes true: the
coordinator's connections carry no record, a push stamped with a
deposed epoch is refused at the destination's node (and the coordinator
demotes), a destination no push reached still learns its pattern, and a
complex merge routes every record to the absorber whose widened pattern
covers it while every absorber learns its pattern.
"""

import asyncio
import random

from repro.core.iagent_state import compile_coverage
from repro.platform.naming import AgentId
from repro.service.cluster import booted_cluster
from repro.service.transport import _Connection

from tests.service.test_one_hop import cluster_config


def run(coro):
    return asyncio.run(coro)


def register(endpoint, agents):
    for seq, agent in enumerate(agents):
        endpoint.op_register({"agent": agent, "node": "node-0", "seq": seq})


def agents_under(prefix, count, rng):
    """``count`` 64-bit ids whose top bits are ``prefix``."""
    spare = 64 - len(prefix)
    top = int(prefix or "0", 2) << spare
    return [AgentId(top | rng.getrandbits(spare)) for _ in range(count)]


def split_entry(hagent):
    return [entry for entry in hagent.rehash_log if entry["event"] == "split"][-1]


def count_traffic(monkeypatch, channel):
    """Bytes written and read by ``channel``'s connections from here on:
    ``[written, read]``."""
    counted = [0, 0]
    send, received = _Connection.send, _Connection.data_received

    class Counting:
        def __init__(self, out):
            self.out = out

        def write(self, data):
            counted[0] += len(data)
            self.out.write(data)

    def counting_send(conn, rpc, to, body):
        if conn.channel is not channel:
            return send(conn, rpc, to, body)
        out, conn.out = conn.out, Counting(conn.out)
        try:
            return send(conn, rpc, to, body)
        finally:
            conn.out = out

    def counting_received(conn, data):
        if conn.channel is channel:
            counted[1] += len(data)
        return received(conn, data)

    monkeypatch.setattr(_Connection, "send", counting_send)
    monkeypatch.setattr(_Connection, "data_received", counting_received)
    return counted


class TestNoRecordThroughTheCoordinator:
    def test_a_6000_record_split_costs_the_coordinator_under_4_kb(self, monkeypatch):
        async def scenario():
            async with booted_cluster(cluster_config(nodes=3)) as cluster:
                primary = cluster.primary()
                (root,) = primary.iagent_nodes
                giver = cluster.node_by_name(primary.iagent_nodes[root]).iagents[root]
                agents = agents_under("", 6000, random.Random(5))
                register(giver, agents)
                counted = count_traffic(monkeypatch, primary.channel)
                await primary._split(root)
                entry = split_entry(primary)
                taker_node = cluster.node_by_name(primary.iagent_nodes[entry["new_owner"]])
                taker = taker_node.iagents[entry["new_owner"]]
                # About half moved, every one of them acknowledged...
                assert 2500 < entry["moved"] == len(taker.records) < 3500
                assert set(taker.records) | set(giver.records) == set(agents)
                # ...and none of them crossed the coordinator (the relay
                # moved ~33 bytes per record through it, both ways).
                assert sum(counted) < 4096, counted
                assert counted[0] and counted[1]  # the counting is live

        run(scenario())


class TestFencedPush:
    def test_a_push_stamped_with_a_deposed_epoch_is_refused_at_the_taker(self):
        async def scenario():
            async with booted_cluster(cluster_config(nodes=3)) as cluster:
                primary = cluster.primary()
                (root,) = primary.iagent_nodes
                giver_node = cluster.node_by_name(primary.iagent_nodes[root])
                register(giver_node.iagents[root], agents_under("", 400, random.Random(6)))
                taker_node = next(n for n in cluster.nodes if n is not giver_node)
                primary._pick_node = lambda: taker_node.name
                publish = primary._publish

                def publish_then_deposed(op):
                    # A successor announced itself at the taker's node
                    # only: the giver still admits this epoch.
                    outcome = publish(op)
                    taker_node.fences[primary.shard].admit(primary.epoch + 1, "successor")
                    return outcome

                primary._publish = publish_then_deposed
                refused = (giver_node.fence_rejections, taker_node.fence_rejections)
                await primary._split(root)
                assert primary.role == "standby" and primary.demotions == 1
                # The push, then the coordinator's own record-less adopt.
                assert giver_node.fence_rejections == refused[0]
                assert taker_node.fence_rejections == refused[1] + 2
                (demotion,) = [e for e in primary.rehash_log if e["event"] == "demote"]
                assert "stale-epoch" in demotion["reason"]
                entry = split_entry(primary)
                assert entry["moved"] == 0
                taker = taker_node.iagents[entry["new_owner"]]
                assert taker.records == {} and taker.coverage is None

        run(scenario())


class TestUnacknowledgedDestinations:
    def test_absorbers_of_a_dead_leaf_still_widen(self):
        """The merged IAgent crashed: nobody extracts or pushes, so the
        coordinator hands the absorber its pattern in a record-less adopt
        (the relay's adopt did), and its agents re-register there."""

        async def scenario():
            async with booted_cluster(cluster_config(nodes=3)) as cluster:
                primary = cluster.primary()
                (root,) = primary.iagent_nodes
                node_of = lambda owner: cluster.node_by_name(primary.iagent_nodes[owner])
                register(node_of(root).iagents[root], agents_under("", 400, random.Random(8)))
                await primary._split(root)
                merged = split_entry(primary)["new_owner"]
                node_of(merged).nodeop_crash_iagent({"owner": merged})
                await primary._merge(merged)
                entry = primary.rehash_log[-1]
                assert (entry["event"], entry["absorbers"], entry["moved"]) == ("merge", [root], 0)
                assert node_of(root).iagents[root].coverage == "" == (
                    primary.tree.hyper_label(root).pattern()
                )

        run(scenario())


class TestComplexMergeRouting:
    def test_every_record_reaches_the_absorber_that_covers_it(self):
        async def scenario():
            async with booted_cluster(cluster_config(nodes=3)) as cluster:
                primary = cluster.primary()
                (root,) = primary.iagent_nodes
                node_of = lambda owner: cluster.node_by_name(primary.iagent_nodes[owner])
                endpoint = lambda owner: node_of(owner).iagents[owner]
                rng = random.Random(7)
                merged_side = agents_under("00", 400, rng)
                agents = merged_side + agents_under("10", 200, rng) + agents_under("11", 200, rng)
                register(endpoint(root), agents)

                def owner_of(pattern):
                    (owner,) = [
                        o for o in primary.tree.owners()
                        if primary.tree.hyper_label(o).pattern() == pattern
                    ]
                    return owner

                await primary._split(root)  # 400 / 400 on bit 1
                await primary._split(owner_of("1"))  # 200 / 200 on bit 2
                assert {primary.tree.hyper_label(o).pattern() for o in primary.tree.owners()} == {
                    "0", "10", "11"
                }
                merged = owner_of("0")
                merged_node = node_of(merged)
                await primary._merge(merged)

                entry = primary.rehash_log[-1]
                assert (entry["event"], entry["kind"], entry["moved"]) == ("merge", "complex", 400)
                assert merged not in merged_node.iagents
                held = {}
                for absorber in entry["absorbers"]:
                    leaf = endpoint(absorber)
                    pattern = primary.tree.hyper_label(absorber).pattern()
                    assert leaf.coverage == pattern
                    covers = compile_coverage(pattern)
                    assert all(covers(agent) for agent in leaf.records)
                    held.update(leaf.records)
                assert set(held) == set(agents)
                # The absorber that received nothing still widened.
                empty = endpoint(owner_of("x1"))
                assert set(empty.records) == set(agents[600:])

        run(scenario())
