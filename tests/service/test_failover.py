"""HAgent replication and epoch-fenced failover, end to end.

Boots real replicated coordinators (primary + hot standbys) on
ephemeral localhost ports and drives the failure paths the paper's
single-HAgent design leaves open: primary crash, promotion by rank,
fencing of a healed-but-deposed primary, and crash-recovery of the
primary's durable state with a torn WAL tail.
"""

import asyncio
import time

import pytest

from repro.core.config import SYNC_JOURNAL_CAPACITY
from repro.platform.naming import AgentId, AgentNamer
from repro.service.client import (
    ClientConfig,
    RemoteOpError,
    STALE_EPOCH,
    ServiceClient,
)
from repro.service.cluster import ClusterConfig, run_cluster
from repro.service.coordinator import HAgentServer
from repro.service.replication import single_primary_violations
from repro.service.server import NodeServer, ServiceConfig
from repro.service.transport import FramedServer
from repro.storage.wal import StorageWarning


def run(coro):
    return asyncio.run(coro)


def fast_config(data_dir=None):
    """Service tunables scaled down so failover lands in tens of ms."""
    return ServiceConfig(
        data_dir=data_dir,
        rpc_timeout=0.5,
        heartbeat_interval=0.05,
        heartbeat_timeout=0.4,
        promotion_stagger=0.2,
    )


async def boot_replicated(config, replicas=3, nodes=2):
    """Primary + standbys + nodes, wired exactly like ``_Cluster.start``."""
    hagents = [HAgentServer(config, rank=rank) for rank in range(replicas)]
    peers = {}
    for hagent in hagents:
        peers[hagent.rank] = await hagent.start()
    for hagent in hagents:
        hagent.set_peers(peers)
    replica_addrs = [peers[rank] for rank in sorted(peers)]
    node_servers = []
    for index in range(nodes):
        node = NodeServer(
            f"node-{index}", peers[0], config, hagent_addrs=replica_addrs
        )
        await node.start()
        node_servers.append(node)
    reply = await node_servers[0].channel.call(
        peers[0], "hagent", "bootstrap", {}
    )
    return hagents, node_servers, reply["owner"]


def make_client(node):
    return ServiceClient(
        node.name,
        node.addr,
        config=ClientConfig(rpc_timeout=0.5, max_retries=10, op_deadline=6.0),
    )


async def shutdown(hagents, nodes, clients=(), killed=()):
    for client in clients:
        await client.close()
    for node in nodes:
        await node.stop()
    for hagent in hagents:
        if hagent not in killed:
            await hagent.stop()


async def await_convergence(hagents, primary, budget_s=3.0):
    """True iff every live standby reaches the primary's copy in time."""
    deadline = time.monotonic() + budget_s
    while time.monotonic() < deadline:
        spec = primary.tree.to_spec() if primary.tree is not None else None
        diverged = [
            standby
            for standby in hagents
            if standby is not primary
            and (
                standby.epoch != primary.epoch
                or standby.version != primary.version
                or (standby.tree.to_spec() if standby.tree else None) != spec
            )
        ]
        if not diverged:
            return True
        await asyncio.sleep(0.02)
    return False


async def await_promotion(hagents, budget_s):
    deadline = time.monotonic() + budget_s
    while time.monotonic() < deadline:
        for hagent in hagents:
            if hagent.role == "primary" and hagent.promoted_at is not None:
                return hagent
        await asyncio.sleep(0.02)
    return None


class TestStandbySync:
    def test_standbys_tail_the_primary_copy(self):
        async def scenario():
            config = fast_config()
            hagents, nodes, owner = await boot_replicated(config)
            primary = hagents[0]
            # Mutate the authoritative copy past the bootstrap state so
            # convergence proves journal tailing, not identical boots.
            primary._publish({"op": "move", "owner": owner, "node": "node-1"})
            assert await await_convergence(hagents, primary)
            for standby in hagents[1:]:
                assert standby.role == "standby"
                assert standby.epoch == primary.epoch == 1
                assert standby.syncs > 0
            await shutdown(hagents, nodes)

        run(scenario())

    def test_standby_full_resync_after_journal_gap(self):
        """A standby that missed more journal than the primary retains
        falls back to the full-bundle sync and still converges."""

        async def scenario():
            config = fast_config()
            hagents, nodes, owner = await boot_replicated(config, replicas=2)
            primary, standby = hagents
            # Blow past the journal capacity in one burst.
            for index in range(SYNC_JOURNAL_CAPACITY + 5):
                primary._publish(
                    {"op": "move", "owner": owner, "node": f"node-{index % 2}"}
                )
            assert await await_convergence(hagents, primary)
            assert standby.version == primary.version
            await shutdown(hagents, nodes)

        run(scenario())


class TestCrashPromotion:
    def test_crash_promotes_first_standby_with_next_epoch(self):
        async def scenario():
            config = fast_config()
            hagents, nodes, owner = await boot_replicated(config)
            primary = hagents[0]
            client = make_client(nodes[0])
            truth = {}
            for value in range(1, 9):
                agent = AgentId(value)
                home = nodes[value % 2].name
                truth[agent] = home
                await client.register(agent, home, 0)
            assert await await_convergence(hagents, primary)

            await primary.kill()
            budget = config.heartbeat_timeout + config.promotion_stagger + 2.0
            promoted = await await_promotion(hagents[1:], budget)
            assert promoted is not None, "no standby promoted in time"
            # Deterministic order: the first-in-line standby wins.
            assert promoted.rank == 1
            assert promoted.epoch == 2
            # Exactly one live primary; claims hold the invariant.
            live_primaries = [h for h in hagents[1:] if h.role == "primary"]
            assert live_primaries == [promoted]
            claims = []
            for hagent in hagents:
                claims.extend(hagent.epoch_claims)
            assert single_primary_violations(claims) == []
            # Nodes re-discover the promoted primary...
            discovered = await nodes[0].find_primary()
            assert discovered == promoted.addr
            # ...and the whole population still resolves correctly.
            for agent, home in truth.items():
                assert await client.locate(agent) == home
            await shutdown(
                hagents, nodes, clients=[client], killed=[primary]
            )

        run(scenario())

    def test_run_cluster_failover_report_passes(self):
        report = run(
            run_cluster(
                ClusterConfig(
                    nodes=3,
                    agents=8,
                    ops=40,
                    seed=11,
                    hagent_replicas=3,
                    crash_hagent=True,
                    service=fast_config(),
                )
            )
        )
        assert report.hagent_crashed
        assert report.passed, report.render()
        assert report.promotion_latency_s is not None
        assert report.promotion_latency_s <= report.promotion_budget_s
        assert report.epoch_final >= 2
        assert report.single_primary_ok
        assert report.replicas_converged

    def test_crash_mode_requires_standbys(self):
        with pytest.raises(ValueError):
            run(
                run_cluster(
                    ClusterConfig(nodes=2, hagent_replicas=1, crash_hagent=True)
                )
            )


class _SaysPrimary(FramedServer):
    """Answers every request like a primary of ``shard`` at ``epoch``
    answers ``ping``."""

    def __init__(self, epoch, shard=0):
        super().__init__(ServiceConfig(), None)
        self.ping = {
            "status": "ok",
            "version": 1,
            "role": "primary",
            "rank": 0,
            "epoch": epoch,
            "shard": shard,
        }

    def route(self, target, op, body):
        return self.ping


class TestPrimaryScan:
    def test_every_scan_follows_the_highest_epoch_not_the_first_answer(self):
        """A failover window: the deposed primary (epoch 3, listed
        first) has not met a fence yet and still says "primary"."""

        async def scenario():
            deposed, current = _SaysPrimary(3, shard=1), _SaysPrimary(5, shard=1)
            book = [await deposed.start(), await current.start()]

            node = NodeServer("node-0", book[0], hagent_addrs=book)
            assert await node.find_primary() == current.addr
            assert node.hagent_addr == current.addr and node.fence.epoch == 5

            standby = HAgentServer(rank=2)
            standby.set_peers({0: book[0], 1: book[1], 2: ("127.0.0.1", 1)})
            assert await standby._scan_for_primary() == current.addr
            assert standby.primary_addr == current.addr and standby.epoch == 5

            # A saga's call to another shard's primary.
            sibling = HAgentServer(shards=2)
            sibling.set_shard_peers({1: book})

            def ask_shard_1():
                return (yield ("shard", 1, "ping", {}))

            assert await sibling._step(ask_shard_1()) == current.ping

            for holder in (node, standby, sibling):
                await holder.channel.close()
            await deposed.stop()
            await current.stop()

        run(scenario())


class TestStalePrimaryFencing:
    def test_healed_primary_is_fenced_and_demotes(self):
        """The tentpole guarantee: a partitioned primary that heals
        after the cluster moved on cannot serialize another rehash --
        its first fenced op is rejected with stale-epoch and it steps
        down on its own."""

        async def scenario():
            config = fast_config()
            hagents, nodes, owner = await boot_replicated(config)
            old_primary = hagents[0]
            assert await await_convergence(hagents, old_primary)

            old_primary.partitioned = True
            # A partition gives no connection-refused evidence, so the
            # standby must wait out the full silence window.
            budget = config.heartbeat_timeout + config.promotion_stagger + 2.0
            promoted = await await_promotion(hagents[1:], budget)
            assert promoted is not None
            assert promoted.epoch == 2

            # The announcement fenced every node at epoch 2 while the
            # old primary still believes in epoch 1. Heal it and let it
            # try to serialize a rehash-flavoured op.
            old_primary.partitioned = False
            assert old_primary.epoch == 1
            with pytest.raises(RemoteOpError) as rejection:
                await old_primary._rpc_node(
                    nodes[0].name,
                    "host-iagent",
                    {"owner": old_primary.namer.next_id(), "pattern": None},
                )
            assert rejection.value.code == STALE_EPOCH
            assert old_primary.role == "standby"
            assert old_primary.demotions >= 1
            assert nodes[0].fence_rejections >= 1
            # Demoted, it re-enters the sync loop and catches up.
            assert await await_convergence(hagents, promoted)
            assert old_primary.epoch == promoted.epoch == 2
            await shutdown(hagents, nodes)

        run(scenario())


class TestTornWalFailover:
    def test_promotion_over_torn_primary_wal_mid_split(self, tmp_path):
        """Kill the durable primary right after a split, with a torn
        record at its WAL tail. The promoted standby keeps serving the
        post-split tree, the population re-verifies, and the dead rank
        restarts from its own (truncated) disk state and re-syncs."""

        async def scenario():
            config = fast_config(data_dir=str(tmp_path))
            hagents, nodes, owner = await boot_replicated(config)
            primary = hagents[0]
            client = make_client(nodes[0])
            # Hash-spread agent ids (like real deployments use), so the
            # split planner can find a bit that divides the load.
            namer = AgentNamer(seed=97)
            truth = {}
            for value in range(12):
                agent = namer.next_id()
                home = nodes[value % 2].name
                truth[agent] = home
                await client.register(agent, home, 0)

            # Drive a real split so the WAL tail is a rehash record.
            await primary._split(owner)
            assert primary.splits == 1
            assert len(primary.tree) == 2
            assert await await_convergence(hagents, primary)

            # Torn write: the crash interrupts a record mid-append.
            primary.store.wal.sync()
            wal_dir = tmp_path / "hagent" / "wal"
            segments = sorted(wal_dir.glob("wal-*.log"))
            assert segments, "primary WAL never hit disk"
            with open(segments[-1], "ab") as tail:
                tail.write(b"\x7f\x00TORN-RECORD")
            old_addr = primary.addr
            await primary.kill()

            budget = config.heartbeat_timeout + config.promotion_stagger + 2.0
            promoted = await await_promotion(hagents[1:], budget)
            assert promoted is not None
            assert promoted.epoch == 2
            # The standby's copy carries the split forward.
            assert len(promoted.tree) == 2
            for agent, home in truth.items():
                assert await client.locate(agent) == home

            # The dead rank comes back as a standby on its old port:
            # recovery must truncate the torn tail, not choke on it.
            with pytest.warns(StorageWarning, match="torn record"):
                recovered = HAgentServer(config, rank=0, role="standby")
            await recovered.start(port=old_addr[1])
            recovered.set_peers(
                {h.rank: h.addr for h in hagents[1:] + [recovered]}
            )
            assert recovered.recovered_version > 0
            assert len(recovered.tree) == 2
            assert await await_convergence(
                hagents[1:] + [recovered], promoted
            )
            assert recovered.epoch == 2
            assert recovered.role == "standby"
            await shutdown(
                hagents + [recovered],
                nodes,
                clients=[client],
                killed=[primary],
            )

        run(scenario())
