"""In-process integration tests for the live service layer.

Every test boots real asyncio TCP servers on ephemeral localhost ports
and talks to them through the real wire codec -- no simulator, no
mocks. Driven with ``asyncio.run`` directly so the suite needs no
asyncio test plugin.
"""

import asyncio

import pytest

from repro.core.rehashing import plan_split
from repro.platform.naming import AgentNamer
from repro.service.client import RemoteOpError, RpcChannel, ServiceClient
from repro.service.cluster import ClusterConfig, booted_cluster, run_cluster
from repro.service.coordinator import HAgentServer
from repro.service.server import NodeServer

from tests.service.test_one_hop import cluster_config


def run(coro):
    return asyncio.run(coro)


class TestClusterWorkload:
    def test_small_cluster_workload_passes(self):
        report = run(run_cluster(ClusterConfig(nodes=3, agents=6, ops=30, seed=7)))
        assert report.passed
        assert report.locate_failures == 0
        assert report.locate_mismatches == 0
        assert report.final_verified
        assert report.agents >= 6
        assert report.iagents_final >= 1

    def test_cluster_heals_after_iagent_crash(self):
        report = run(
            run_cluster(
                ClusterConfig(nodes=3, agents=10, ops=60, seed=3, crash_iagent=True)
            )
        )
        assert report.crashed
        assert report.passed, report.render()
        # The takeover happened and the retry loop absorbed the outage.
        assert report.takeovers >= 1
        assert report.retries > 0

    def test_distinct_seeds_give_distinct_populations(self):
        first = run(run_cluster(ClusterConfig(nodes=2, agents=4, ops=10, seed=1)))
        second = run(run_cluster(ClusterConfig(nodes=2, agents=4, ops=10, seed=2)))
        assert first.passed and second.passed
        # Different seeds roll different workload mixes.
        assert (first.updates, first.registers) != (second.updates, second.registers)

    def test_rejects_empty_topology(self):
        with pytest.raises(ValueError):
            run(run_cluster(ClusterConfig(nodes=0)))


class TestServerEndpoints:
    def test_unknown_target_and_op_are_error_replies(self):
        async def scenario():
            hagent = HAgentServer()
            await hagent.start()
            node = NodeServer("node-0", hagent.addr)
            await node.start()
            channel = RpcChannel()
            try:
                with pytest.raises(RemoteOpError) as unknown_target:
                    await channel.call(node.addr, "nonsense", "ping")
                assert unknown_target.value.code == "unknown-target"
                with pytest.raises(RemoteOpError) as unknown_op:
                    await channel.call(node.addr, "lhagent", "explode")
                assert unknown_op.value.code == "unknown-op"
                # Its name stays interned on the wire, but no node serves it.
                with pytest.raises(RemoteOpError) as retired_op:
                    await channel.call(node.addr, "host", "node-stats")
                assert retired_op.value.code == "unknown-op"
                # The connection survived every rejection.
                reply = await channel.call(node.addr, "host", "ping")
                assert reply["status"] == "ok"
            finally:
                await channel.close()
                await node.stop()
                await hagent.stop()

        run(scenario())

    def test_whois_resolves_after_bootstrap(self):
        async def scenario():
            hagent = HAgentServer()
            await hagent.start()
            node = NodeServer("node-0", hagent.addr)
            await node.start()
            channel = RpcChannel()
            try:
                await channel.call(hagent.addr, "hagent", "bootstrap")
                agent = AgentNamer(seed=9).next_id()
                mapping = await channel.call(
                    node.addr, "lhagent", "whois", {"agent": agent}
                )
                assert mapping["node"] == "node-0"
                assert tuple(mapping["addr"]) == node.addr
                assert mapping["version"] >= 1
            finally:
                await channel.close()
                await node.stop()
                await hagent.stop()

        run(scenario())

    def test_an_iagent_where_the_tree_does_not_place_it_retires(self):
        """A takeover whose ``host-iagent`` reply was lost leaves the
        leaf's IAgent hosted on a node the tree does not name. Its load
        reports are answered ``stale`` -- they no longer keep the dead
        leaf looking alive -- so it retires itself; a later re-host onto
        that node replaces it, report loop included."""

        async def scenario():
            hagent = HAgentServer()
            await hagent.start()
            nodes = [NodeServer(f"node-{index}", hagent.addr) for index in range(2)]
            for node in nodes:
                await node.start()
            try:
                reply = await nodes[0].channel.call(hagent.addr, "hagent", "bootstrap")
                owner = reply["owner"]
                (other,) = [n for n in nodes if n.name != hagent.iagent_nodes[owner]]
                report = {"owner": owner, "rate": 0.0, "mature": False}
                here = {**report, "node": hagent.iagent_nodes[owner]}
                assert hagent._op_load_report(here)["status"] == "ok"
                assert hagent._op_load_report(report)["status"] == "ok"  # forged
                elsewhere = {**report, "node": other.name}
                assert hagent._op_load_report(elsewhere)["status"] == "stale"

                other.nodeop_host_iagent({"owner": owner, "pattern": ""})
                orphan = other.iagents[owner]
                other.nodeop_host_iagent({"owner": owner, "pattern": ""})
                replacement = other.iagents[owner]
                assert replacement is not orphan
                await asyncio.sleep(0)
                assert orphan.report_task.cancelled()
                for _ in range(200):  # eight stale reports, 0.25 s apart
                    if owner not in other.iagents:
                        break
                    await asyncio.sleep(0.05)
                assert owner not in other.iagents and other.orphans_retired == 1
            finally:
                for node in nodes:
                    await node.stop()
                await hagent.stop()

        run(scenario())

    def test_unreplayable_delta_degrades_to_a_snapshot(self):
        """A delta that does not fit the LHAgent's copy must not wedge
        the node: the copy is dropped and the snapshot drawn at once."""

        async def scenario():
            hagent = HAgentServer()
            await hagent.start()
            node = NodeServer("node-0", hagent.addr)
            await node.start()
            client = ServiceClient("driver", node.addr)
            try:
                await client.channel.call(hagent.addr, "hagent", "bootstrap")
                agent = AgentNamer(seed=9).next_id()
                first = await client._whois(agent)
                real_reply, served = hagent._copy_reply, []

                def poisoned_once(body):
                    served.append(body)
                    if len(served) > 1:
                        return real_reply(body)
                    version = hagent.version + 1
                    ghost = {"op": "merge", "owner": "ghost", "version": version}
                    return {"version": version, "mode": "delta", "ops": [ghost]}

                hagent._copy_reply = poisoned_once
                # A resolve past the version held pulls from the LHAgent,
                # which has nothing newer and so asks the coordinator.
                mapping = await client._whois(agent, None, first["version"])
                assert mapping["iagent"] == first["iagent"]
                # The retry asked for the snapshot: no copy, since -1.
                assert [body["since"] for body in served] == [first["version"], -1]
                assert node.lhagent.full_refreshes == 2
                assert node.lhagent.copy.version == hagent.version
            finally:
                await client.close()
                await node.stop()
                await hagent.stop()

        run(scenario())

    def test_a_node_registered_after_the_last_full_copy_is_addressable(self):
        """The address book rides every copy reply, deltas included: an
        LHAgent whose last *full* copy predates a node's registration
        must still learn that node's address once a leaf lands there."""

        async def scenario():
            config = cluster_config(nodes=2)
            async with booted_cluster(config) as cluster:
                hagent = cluster.primary()
                namer = AgentNamer(seed=5)
                agents = [namer.next_id() for _ in range(400)]
                client = cluster.clients[0]
                await client.register_batch([(agent, "node-0", 0) for agent in agents])
                assert await client.locate(agents[0]) == "node-0"
                late = NodeServer("node-2", hagent.addr, config.service)
                await late.start()  # registers itself with the coordinator
                try:
                    nodes = [*cluster.nodes, late]

                    def hosted():
                        return {o: e for n in nodes for o, e in n.iagents.items()}

                    for _ in range(3):  # new leaves land round-robin
                        owner = next(iter(hagent.iagent_nodes))
                        # What the planner picks from the leaves' whole
                        # tables; the coordinator sees two sums per bit.
                        tables = {o: e.stats.loads() for o, e in hosted().items()}
                        planned = plan_split(
                            hagent.tree, owner, tables, config.service.mechanism
                        )
                        bit = planned.candidate.bit_position
                        await hagent._split(owner)
                        entry = hagent.rehash_log[-1]
                        assert (entry["kind"], entry["bit"], entry["even"]) == (
                            planned.candidate.kind,
                            bit,
                            planned.even,
                        )
                        # The planned partition landed: each half holds one
                        # side of the bit, with the load projected for it.
                        sides = {}
                        for half in (owner, entry["new_owner"]):
                            stats = hosted()[half].stats
                            (side,) = {agent.bit(bit) for agent in stats.per_agent}
                            sides[side] = sum(stats.per_agent.values())
                        assert sides == {
                            "0": planned.load_zero_side,
                            "1": planned.load_one_side,
                        }
                    assert len(hagent.tree) == 4 and late.iagents
                    for owner, endpoint in hosted().items():
                        assert set(endpoint.state.table["records"]) == {
                            a for a in agents if hagent.tree.lookup_id(a) == owner
                        }
                    # The copies on node-0 are from before node-2 existed.
                    fresh = ServiceClient("fresh", cluster.nodes[0].addr)
                    try:
                        located = await fresh.locate_batch(agents)
                    finally:
                        await fresh.close()
                    assert located == dict.fromkeys(agents, "node-0")
                    assert "node-2" in cluster.nodes[0].lhagent.node_addrs
                finally:
                    await late.stop()

        run(scenario())

    def test_bootstrap_requires_a_registered_node(self):
        async def scenario():
            hagent = HAgentServer()
            await hagent.start()
            channel = RpcChannel()
            try:
                with pytest.raises(RemoteOpError) as error:
                    await channel.call(hagent.addr, "hagent", "bootstrap")
                assert error.value.code == "precondition"
            finally:
                await channel.close()
                await hagent.stop()

        run(scenario())

    def test_stop_is_clean_and_idempotent(self):
        async def scenario():
            hagent = HAgentServer()
            await hagent.start()
            node = NodeServer("node-0", hagent.addr)
            await node.start()
            await node.stop()
            await node.stop()  # a second stop must be a no-op
            await hagent.stop()

        run(scenario())
