"""Warm crash-restart recovery through the live service layer.

Boots real asyncio TCP servers with a ``data_dir`` configured, kills
agents abruptly, and asserts they come back from *disk* -- records,
coverage and sequence numbers intact -- before the soft-state
republish loop could have refilled them.
"""

import asyncio
import time

import pytest

from repro.platform.naming import AgentId
from repro.service.client import RemoteOpError
from repro.service.cluster import ClusterConfig, run_cluster
from repro.service.coordinator import HAgentServer
from repro.service.server import REREGISTER_INTERVAL, NodeServer, ServiceConfig


def run(coro):
    return asyncio.run(coro)


async def boot(data_dir, nodes=1):
    """One HAgent + N nodes with durability on; returns the first owner."""
    config = ServiceConfig(data_dir=str(data_dir))
    hagent = HAgentServer(config)
    await hagent.start()
    node_servers = []
    for index in range(nodes):
        node = NodeServer(f"node-{index}", hagent.addr, config)
        await node.start()
        node_servers.append(node)
    reply = await node_servers[0].channel.call(
        hagent.addr, "hagent", "bootstrap", {}
    )
    return config, hagent, node_servers, reply["owner"]


async def shutdown(hagent, nodes):
    for node in nodes:
        await node.stop()
    await hagent.stop()


class TestIAgentWarmRestart:
    def test_restart_recovers_every_record_from_disk(self, tmp_path):
        async def scenario():
            config, hagent, nodes, owner = await boot(tmp_path)
            node = nodes[0]
            for value in range(1, 21):
                await node.channel.call(
                    node.addr,
                    owner,
                    "register",
                    {"agent": AgentId(value), "node": "node-0", "seq": 0},
                )
            reply = await node.channel.call(
                node.addr, "host", "restart-iagent", {"owner": owner}
            )
            assert reply["records_recovered"] == 20
            # Bootstrap logs the "" coverage, then 20 puts.
            assert reply["wal_replayed"] == 21
            assert reply["recovery_s"] < REREGISTER_INTERVAL
            # The recovered shard still answers, with coverage intact.
            located = await node.channel.call(
                node.addr, owner, "locate", {"agent": AgentId(5)}
            )
            assert located["status"] == "ok"
            assert located["node"] == "node-0"
            ping = await node.channel.call(node.addr, owner, "ping", {})
            assert ping["records_recovered"] == 20
            await shutdown(hagent, nodes)

        run(scenario())

    def test_second_restart_replays_only_the_suffix(self, tmp_path):
        async def scenario():
            _, hagent, nodes, owner = await boot(tmp_path)
            node = nodes[0]
            for value in range(1, 11):
                await node.channel.call(
                    node.addr,
                    owner,
                    "register",
                    {"agent": AgentId(value), "node": "node-0", "seq": 0},
                )
            await node.channel.call(
                node.addr, "host", "restart-iagent", {"owner": owner}
            )
            # Recovery folded the state into a snapshot, so a second
            # restart with no new mutations replays nothing.
            reply = await node.channel.call(
                node.addr, "host", "restart-iagent", {"owner": owner}
            )
            assert reply["records_recovered"] == 10
            assert reply["wal_replayed"] == 0
            await shutdown(hagent, nodes)

        run(scenario())

    def test_restart_after_explicit_crash(self, tmp_path):
        async def scenario():
            _, hagent, nodes, owner = await boot(tmp_path)
            node = nodes[0]
            await node.channel.call(
                node.addr,
                owner,
                "register",
                {"agent": AgentId(42), "node": "node-0", "seq": 3},
            )
            await node.channel.call(
                node.addr, "host", "crash-iagent", {"owner": owner}
            )
            with pytest.raises(RemoteOpError):
                await node.channel.call(
                    node.addr, owner, "locate", {"agent": AgentId(42)}
                )
            reply = await node.channel.call(
                node.addr, "host", "restart-iagent", {"owner": owner}
            )
            assert reply["records_recovered"] == 1
            located = await node.channel.call(
                node.addr, owner, "locate", {"agent": AgentId(42)}
            )
            # The sequence number survived the crash too.
            assert located["status"] == "ok" and located["seq"] == 3
            await shutdown(hagent, nodes)

        run(scenario())

    def test_mutations_replay_with_full_fidelity(self, tmp_path):
        """del / adopt / set-coverage all survive the restart."""

        async def scenario():
            _, hagent, nodes, owner = await boot(tmp_path)
            node = nodes[0]
            for value in range(1, 6):
                await node.channel.call(
                    node.addr,
                    owner,
                    "register",
                    {"agent": AgentId(value), "node": "node-0", "seq": 0},
                )
            await node.channel.call(
                node.addr, owner, "unregister", {"agent": AgentId(2), "seq": 1}
            )
            await node.channel.call(
                node.addr,
                owner,
                "adopt",
                {"records": {AgentId(9): ["node-0", 7]}},
            )
            reply = await node.channel.call(
                node.addr, "host", "restart-iagent", {"owner": owner}
            )
            assert reply["records_recovered"] == 5  # 5 - 1 del + 1 adopt
            deleted = await node.channel.call(
                node.addr, owner, "locate", {"agent": AgentId(2)}
            )
            assert deleted["status"] == "no-record"
            adopted = await node.channel.call(
                node.addr, owner, "locate", {"agent": AgentId(9)}
            )
            assert adopted["status"] == "ok" and adopted["seq"] == 7
            await shutdown(hagent, nodes)

        run(scenario())

    def test_restart_without_data_dir_is_rejected(self):
        async def scenario():
            config = ServiceConfig()  # no data_dir: soft-state only
            hagent = HAgentServer(config)
            await hagent.start()
            node = NodeServer("node-0", hagent.addr, config)
            await node.start()
            reply = await node.channel.call(
                hagent.addr, "hagent", "bootstrap", {}
            )
            with pytest.raises(RemoteOpError):
                await node.channel.call(
                    node.addr,
                    "host",
                    "restart-iagent",
                    {"owner": reply["owner"]},
                )
            await shutdown(hagent, [node])

        run(scenario())


class TestIdleTailSync:
    def test_the_periodic_loops_sync_an_idle_interval_tail(self, tmp_path):
        """Under the default ``fsync="interval"`` the last appends before
        a quiet spell are synced within ``fsync_interval`` plus one loop
        period, by the IAgent's report loop and the HAgent's monitor."""

        async def scenario():
            config, hagent, nodes, owner = await boot(tmp_path)
            assert config.fsync == "interval"
            node = nodes[0]
            for value in range(1, 6):
                await node.channel.call(
                    node.addr,
                    owner,
                    "register",
                    {"agent": AgentId(value), "node": "node-0", "seq": 0},
                )
            logs = [node.iagents[owner].store.wal, hagent.store.wal]
            bound = logs[0].fsync_interval + config.mechanism.report_interval
            await asyncio.sleep(bound + 0.3)
            unsynced = [log.last_lsn - log._synced_lsn for log in logs]
            await shutdown(hagent, nodes)
            return unsynced

        assert run(scenario()) == [0, 0]


class TestHAgentRecovery:
    def test_coordinator_recovers_from_wal_replay(self, tmp_path):
        """No snapshot yet: the whole coordinator rebuilds from the WAL."""

        async def scenario():
            config, hagent, nodes, owner = await boot(tmp_path, nodes=2)
            hagent._publish({"op": "move", "owner": owner, "node": "node-1"})
            hagent.store.wal.sync()

            recovered = HAgentServer(config)
            recovered._recover_from_disk()
            # 2 register-node + bootstrap + 1 rehash entry.
            assert recovered.wal_replayed == 4
            assert recovered.version == hagent.version
            assert recovered.tree.to_spec() == hagent.tree.to_spec()
            assert recovered.namer.state == hagent.namer.state
            assert recovered.node_addrs == hagent.node_addrs
            # The replayed move relocated the shard in the recovered map.
            assert recovered.iagent_nodes[owner] == "node-1"
            assert list(recovered.journal) == list(hagent.journal)
            recovered.store.close()
            await shutdown(hagent, nodes)

        run(scenario())

    def test_coordinator_recovers_from_stop_snapshot(self, tmp_path):
        async def scenario():
            config, hagent, nodes, owner = await boot(tmp_path, nodes=2)
            version = hagent.version
            tree_spec = hagent.tree.to_spec()
            namer_state = hagent.namer.state
            await shutdown(hagent, nodes)  # stop() snapshots

            recovered = HAgentServer(config)
            await recovered.start()
            assert recovered.wal_replayed == 0  # all via the snapshot
            assert recovered.recovered_version == version
            assert recovered.tree.to_spec() == tree_spec
            # A recovered namer never re-issues an already-used id.
            assert recovered.namer.state == namer_state
            assert recovered.namer.next_id() != owner
            await recovered.stop()

        run(scenario())

    def test_standby_recovers_what_it_held_in_memory(self, tmp_path):
        """A standby that learned a node, a move onto it, an epoch and a
        shard row through *delta* syncs finds all of them on its disk."""

        async def scenario():
            config, primary, nodes, owner = await boot(tmp_path)
            standby = HAgentServer(config, rank=1)

            def sync():
                body = {"since": standby.version, "epoch": standby.epoch, "rank": 1}
                standby._apply_sync_reply(primary._op_replica_sync(body))

            sync()  # the full copy: one node, the bootstrap tree
            assert list(standby.node_addrs) == ["node-0"]
            late = NodeServer("node-1", primary.addr, config)
            await late.start()
            primary._publish({"op": "move", "owner": owner, "node": "node-1"})
            primary.apply_shard_release(1)
            sync()  # a delta
            assert standby.iagent_nodes[owner] == "node-1"
            standby.store.wal.sync()

            recovered = HAgentServer(config, rank=1)
            recovered._recover_from_disk()
            assert recovered.node_addrs == standby.node_addrs == primary.node_addrs
            assert list(recovered.node_addrs) == ["node-0", "node-1"]
            assert recovered.namer.state == standby.namer.state
            assert (recovered.owned, recovered.map_version, recovered.absorbed_by) == (
                standby.owned,
                standby.map_version,
                standby.absorbed_by,
            )
            assert recovered.absorbed_by == 1
            assert recovered.epoch == standby.epoch == 1
            assert recovered.iagent_nodes == standby.iagent_nodes
            # Every leaf the recovered tree places is addressable.
            assert set(recovered.iagent_nodes.values()) <= set(recovered.node_addrs)
            for replica in (standby, recovered):
                replica.store.close()
                await replica.channel.close()
            await shutdown(primary, nodes + [late])

        run(scenario())

    def test_monitor_survives_a_leaf_on_an_unaddressable_node(self, tmp_path):
        """No address for a leaf's node is a failed ping like any other:
        the monitor takes the leaf over instead of dying on a KeyError."""

        async def scenario():
            config, hagent, nodes, owner = await boot(tmp_path)
            node = nodes[0]
            # Silence the leaf, then place it where the book has no entry.
            await node.channel.call(node.addr, "host", "crash-iagent", {"owner": owner})
            hagent._publish({"op": "move", "owner": owner, "node": "ghost"})
            hagent._last_report[owner] = time.monotonic() - 60.0
            deadline = time.monotonic() + 5.0
            while hagent.takeovers == 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            monitors = [
                task for task in hagent._bg_tasks if task.get_name() == "hagent-monitor"
            ]
            assert monitors and not monitors[0].done()
            assert hagent.takeovers == 1
            assert hagent.iagent_nodes[owner] == "node-0"
            await shutdown(hagent, nodes)

        run(scenario())


class TestClusterRestartRun:
    def test_cluster_warm_restart_passes(self, tmp_path):
        report = run(
            run_cluster(
                ClusterConfig(
                    nodes=3,
                    agents=10,
                    ops=60,
                    seed=5,
                    restart_iagent=True,
                    service=ServiceConfig(data_dir=str(tmp_path)),
                )
            )
        )
        assert report.restarted
        assert report.passed, report.render()
        assert report.records_recovered > 0
        assert report.records_recovered >= report.records_lost
        assert report.recovery_warm
        assert report.restart_verified
        assert report.recovery_s < 0.5

    def test_restart_mode_requires_data_dir(self):
        with pytest.raises(ValueError):
            run(run_cluster(ClusterConfig(nodes=2, restart_iagent=True)))
