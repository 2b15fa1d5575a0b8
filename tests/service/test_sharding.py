"""Prefix-sharded coordinators: routing, cross-shard merge, fencing.

Three layers, mirroring the subsystem:

* property tests pinning the pure routing function -- every id maps to
  exactly one shard for every legal shard count, and shard boundaries
  refine as the count doubles;
* unit tests for the versioned :class:`ShardMap` and the
  last-known-good :class:`ShardRouter` cache;
* live clusters on ephemeral localhost ports: a sharded run end to
  end, the fenced two-phase cross-shard merge (happy path, deposed
  initiator, deposed absorber -- never one-sided), and the shard-0
  chaos schedule staying bit-identical to the pre-sharding one.
"""

import asyncio
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.chaos import ChaosSchedule
from repro.platform.naming import AgentId
from repro.service.chaos import live_chaos_palette
from repro.service.client import RemoteOpError, STALE_EPOCH
from repro.service.cluster import ClusterConfig, _Cluster, run_cluster
from repro.service.routing import (
    ShardMap,
    ShardRouter,
    prefix_bits,
    shard_of,
    shard_of_bits,
    shard_prefix,
    validate_shards,
)
from repro.service.server import ServiceConfig


def run(coro):
    return asyncio.run(coro)


def fast_config():
    return ServiceConfig(
        rpc_timeout=0.5,
        heartbeat_interval=0.05,
        heartbeat_timeout=0.4,
        promotion_stagger=0.2,
    )


SHARD_COUNTS = st.sampled_from([1, 2, 4, 8, 16, 64])


# ----------------------------------------------------------------------
# The pure routing function
# ----------------------------------------------------------------------


class TestShardOfProperties:
    @given(value=st.integers(min_value=0, max_value=(1 << 128) - 1), shards=SHARD_COUNTS)
    @settings(max_examples=200)
    def test_every_128bit_id_maps_to_exactly_one_shard(self, value, shards):
        agent = AgentId(value, width=128)
        shard = shard_of(agent, shards)
        # One shard, in range, and exactly the one whose prefix the id
        # carries -- membership and routing agree bit for bit.
        assert 0 <= shard < shards
        assert agent.bits.startswith(shard_prefix(shard, shards))
        others = [
            s
            for s in range(shards)
            if s != shard and agent.bits.startswith(shard_prefix(s, shards))
        ]
        assert others == []

    @given(
        bits=st.text(alphabet="01", min_size=0, max_size=160),
        shards=SHARD_COUNTS,
    )
    @settings(max_examples=200)
    def test_total_over_any_id_width(self, bits, shards):
        # Ids narrower than the prefix (even the empty string) still
        # land somewhere: short ids are padded with trailing zeros.
        shard = shard_of_bits(bits, shards)
        assert 0 <= shard < shards
        padded = bits.ljust(prefix_bits(shards), "0")
        assert shard == shard_of_bits(padded, shards)

    @given(
        value=st.integers(min_value=0, max_value=(1 << 128) - 1),
        exponent=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=200)
    def test_doubling_the_count_refines_the_partition(self, value, exponent):
        # The shard at 2^k is the shard at 2^(k+1) with its last prefix
        # bit dropped: growing a deployment never re-mixes prefixes.
        agent = AgentId(value, width=128)
        coarse = shard_of(agent, 1 << exponent)
        fine = shard_of(agent, 1 << (exponent + 1))
        assert coarse == fine >> 1

    @given(
        width=st.integers(min_value=1, max_value=128),
        value=st.integers(min_value=0),
        exponent=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=300)
    def test_the_integer_form_equals_the_string_form(self, width, value, exponent):
        # shard_of reads the id's integer; shard_of_bits stays the
        # reference, ids narrower than the prefix included.
        agent = AgentId(value % 2**width, width)
        assert shard_of(agent, 1 << exponent) == shard_of_bits(agent.bits, 1 << exponent)

    @pytest.mark.parametrize("bad", [0, -4, 3, 6, 12, 100])
    def test_validate_rejects_non_powers_of_two(self, bad):
        with pytest.raises(ValueError):
            validate_shards(bad)

    def test_prefix_bits_and_prefixes(self):
        assert prefix_bits(1) == 0
        assert shard_prefix(0, 1) == ""
        assert [shard_prefix(s, 4) for s in range(4)] == ["00", "01", "10", "11"]
        with pytest.raises(ValueError):
            shard_prefix(4, 4)


# ----------------------------------------------------------------------
# ShardMap / ShardRouter
# ----------------------------------------------------------------------


class TestShardMap:
    def test_absorb_repoints_ownership_and_bumps_version(self):
        shard_map = ShardMap(shards=2)
        agent = AgentId((1 << 127), width=128)  # top bit set -> shard 1
        assert shard_map.shard_for(agent) == 1
        version = shard_map.absorb(1, into=0)
        assert version == 2
        assert shard_map.shard_for(agent) == 0
        # Idempotent: absorbing again does not burn another version.
        assert shard_map.absorb(1, into=0) == 2

    def test_wire_roundtrip(self):
        shard_map = ShardMap(
            shards=2, replicas={0: [("127.0.0.1", 1)], 1: [("127.0.0.1", 2)]}
        )
        shard_map.absorb(1, into=0)
        clone = ShardMap.from_wire(shard_map.to_wire())
        assert clone.shards == 2
        assert clone.version == shard_map.version
        assert clone.owner == {0: 0, 1: 0}
        assert clone.replicas_of(1) == [("127.0.0.1", 2)]


class TestShardRouter:
    def test_cached_hits_then_invalidate_then_discovery(self):
        router = ShardRouter(ShardMap(shards=2))
        assert router.primary(0) is None
        assert router.cached_hits == 0
        router.set_primary(0, ("127.0.0.1", 9))
        assert router.primary(0) == ("127.0.0.1", 9)
        assert router.cached_hits == 1
        # peek never counts as a hit.
        assert router.peek(0) == ("127.0.0.1", 9)
        assert router.cached_hits == 1
        router.invalidate(0)
        assert router.primary(0) is None
        assert router.invalidations == 1
        router.record_discovery()
        assert router.counters() == {
            "cached_hits": 1,
            "discoveries": 1,
            "invalidations": 1,
            "wrong_shard_redirects": 0,
        }

    def test_candidates_scan_cached_address_first(self):
        router = ShardRouter(
            ShardMap(shards=2, replicas={1: [("a", 1), ("b", 2), ("c", 3)]})
        )
        router.set_primary(1, ("b", 2))
        assert router.candidates(1) == [("b", 2), ("a", 1), ("c", 3)]


# ----------------------------------------------------------------------
# Live sharded clusters
# ----------------------------------------------------------------------


class TestShardedCluster:
    def test_two_shard_run_passes_with_routing_stats(self):
        report = run(
            run_cluster(
                ClusterConfig(
                    nodes=3,
                    agents=12,
                    ops=60,
                    seed=5,
                    shards=2,
                    service=fast_config(),
                )
            )
        )
        assert report.passed, report.render()
        assert report.shards == 2
        assert report.routing is not None
        # Steady state runs on the last-known-good cache, not discovery.
        assert report.routing["cached_hits"] > 0
        assert report.single_primary_ok

    def test_single_shard_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            run(run_cluster(ClusterConfig(nodes=2, agents=2, ops=4, shards=3)))


async def _boot_two_shards(agents=12, nodes=3, replicas=1, service=None):
    config = ClusterConfig(
        nodes=nodes,
        agents=agents,
        ops=0,
        seed=23,
        shards=2,
        hagent_replicas=replicas,
        service=service or fast_config(),
    )
    cluster = _Cluster(config)
    await cluster.start()
    spawned = []
    for _ in range(agents):
        spawned.append(await cluster.spawn_agent())
    return cluster, spawned


async def _locate_all(cluster, agents):
    for index, agent in enumerate(agents):
        assert await cluster.locate_agent(agent, index % len(cluster.nodes))


def _covering_holders(cluster, agent):
    """The IAgents, on every node and of either shard, that hold a
    record of ``agent`` inside their own coverage."""
    return [
        endpoint.owner
        for node in cluster.nodes
        for endpoint in node.iagents.values()
        if agent in endpoint.records and endpoint.state.covers(agent)
    ]


class TestCrossShardMerge:
    def test_merge_hands_whole_prefix_to_buddy(self):
        async def scenario():
            cluster, agents = await _boot_two_shards()
            try:
                initiator = cluster.primary(1)
                buddy = cluster.primary(0)
                moved_from_1 = [
                    a for a in agents if shard_of(a, 2) == 1
                ]
                channel = cluster.clients[0].channel
                reply = await channel.call(
                    initiator.addr, "hagent", "shard-merge", {"shard": 1}
                )
                assert reply["status"] == "ok"
                assert reply["into"] == 0
                assert reply["moved"] == len(moved_from_1)
                assert initiator.owned == set()
                assert initiator.absorbed_by == 0
                assert buddy.owned == {0, 1}
                assert buddy.xshard_absorbs == 1
                # Every record -- including the handed-off prefix --
                # still resolves, via wrong-shard redirects.
                await _locate_all(cluster, agents)
                redirects = sum(
                    node.router.wrong_shard_redirects for node in cluster.nodes
                )
                assert redirects > 0
            finally:
                await cluster.stop()

        run(scenario())

    def test_deposed_initiator_aborts_cleanly_then_successor_completes(self):
        """Depose the initiating primary mid-merge (its nodes fence it
        between prepare and drain): the merge aborts with both sides
        intact, and the successor primary completes it on the new
        epoch -- the hand-off is never one-sided."""

        async def scenario():
            cluster, agents = await _boot_two_shards(replicas=2)
            try:
                old_primary = cluster.primary(1)
                buddy = cluster.primary(0)
                successor = cluster.live_replicas(1)[1]
                successor_name = successor.replica_name
                # The successor must hold a real copy before the depose
                # (in production the standby tails continuously; a blind
                # standby is the separate hazard the preflight defers on).
                for _ in range(100):
                    if successor.tree is not None:
                        break
                    await asyncio.sleep(0.05)
                assert successor.tree is not None
                # The cluster moved on: every node admits epoch 2 for
                # shard 1 (claimed by the standby), but the old primary
                # has not heard yet.
                for node in cluster.nodes:
                    decision = node.fences[1].admit(2, successor_name)
                    assert decision.admitted
                reply = await old_primary.initiate_shard_merge()
                assert reply["status"] == "aborted"
                assert "fenced" in reply["reason"]
                assert old_primary.xshard_aborts == 1
                # Not one-sided: the initiator still owns its prefix,
                # the buddy absorbed nothing, and every record resolves.
                assert buddy.owned == {0}
                assert buddy.xshard_absorbs == 0
                await _locate_all(cluster, agents)

                # The real election now runs: kill the deposed rank and
                # let the standby promote on the fenced epoch.
                await cluster.crash_primary_hagent(shard=1)
                promoted = await cluster.await_promotion(3.0, shard=1)
                assert promoted is not None
                assert promoted.replica_name == successor_name
                assert promoted.epoch == 2
                reply = await promoted.initiate_shard_merge()
                assert reply["status"] == "ok"
                assert promoted.owned == set()
                assert buddy.owned == {0, 1}
                await _locate_all(cluster, agents)
            finally:
                await cluster.stop()

        run(scenario())

    def test_deposed_absorber_rejects_commit_at_stale_epoch(self):
        """Depose the absorbing primary between its grant and the
        commit: the mandatory fenced adopt at its own nodes refuses,
        the commit is rejected with stale-epoch, and the absorber
        hands back nothing -- the initiator's restore path owns
        recovery."""

        async def scenario():
            cluster, agents = await _boot_two_shards(replicas=2)
            try:
                initiator = cluster.primary(1)
                buddy = cluster.primary(0)
                channel = cluster.clients[0].channel
                grant = await channel.call(
                    buddy.addr,
                    "hagent",
                    "shard-merge-prepare",
                    {
                        "from_shard": 1,
                        "epoch": initiator.epoch,
                        "claimant": initiator.replica_name,
                    },
                )
                # The buddy is deposed while the initiator drains.
                successor_name = cluster.live_replicas(0)[1].replica_name
                for node in cluster.nodes:
                    assert node.fences[0].admit(2, successor_name).admitted
                with pytest.raises(RemoteOpError) as rejection:
                    await channel.call(
                        buddy.addr,
                        "hagent",
                        "shard-merge-commit",
                        {
                            "from_shard": 1,
                            "epoch": initiator.epoch,
                            "buddy_epoch": grant["epoch"],
                            "records": {},
                            "loads": {},
                        },
                    )
                assert rejection.value.code == STALE_EPOCH
                # Nothing moved and the deposed absorber stepped down.
                assert buddy.owned == {0}
                assert buddy.xshard_absorbs == 0
                assert buddy.role == "standby"
                assert initiator.owned == {1}
                await _locate_all(cluster, agents)
            finally:
                await cluster.stop()

        run(scenario())

    def test_an_unanswered_commit_is_in_doubt_and_never_rolled_back(self):
        """The buddy sits behind its rehash lock past the initiator's
        commit timeout (2 x rpc_timeout), then applies the commit. An
        unanswered commit is in doubt: the initiator must not restore
        its drained leaves meanwhile, or both shards' leaves would cover
        and hold the prefix -- it re-sends and completes instead."""

        async def scenario():
            rpc_timeout = 0.25
            service = replace(fast_config(), rpc_timeout=rpc_timeout)
            cluster, agents = await _boot_two_shards(service=service)
            initiator, buddy = cluster.primary(1), cluster.primary(0)
            lock = buddy._rehash_lock
            try:
                await lock.acquire()
                merge = asyncio.ensure_future(initiator.initiate_shard_merge())
                await asyncio.sleep(5 * rpc_timeout)  # two commit timeouts
                lock.release()
                for _ in range(500):
                    if buddy.xshard_absorbs:
                        break
                    await asyncio.sleep(0.01)
                assert buddy.xshard_absorbs == 1
                # Never one-sided: the prefix has one holder per agent.
                for agent in agents:
                    assert len(_covering_holders(cluster, agent)) <= 1, agent
                reply = await asyncio.wait_for(merge, 10 * rpc_timeout)
                assert reply["status"] == "ok", reply
                assert initiator.xshard_aborts == 0
                assert initiator.owned == set() and buddy.owned == {0, 1}
                await _locate_all(cluster, agents)
            finally:
                if lock.locked():
                    lock.release()
                await cluster.stop()

        run(scenario())


class TestChaosDigestCompatibility:
    def test_shard0_schedule_is_byte_identical_to_presharding(self):
        """The shard-0 chaos schedule is generated from exactly the
        pre-sharding inputs, so its digest replays bit-identically
        whatever the shard count -- seeded runs stay comparable across
        the sharding change."""
        expected = ChaosSchedule.generate(
            7,
            2.0,
            nodes=[f"node-{i}" for i in range(3)],
            kinds=live_chaos_palette(False),
        )
        digests = {}
        for shards in (1, 2):
            report = run(
                run_cluster(
                    ClusterConfig(
                        nodes=3,
                        agents=8,
                        ops=40,
                        seed=7,
                        shards=shards,
                        hagent_replicas=3,
                        chaos_seed=7,
                        chaos_duration=2.0,
                        service=fast_config(),
                    )
                )
            )
            assert report.passed, report.render()
            assert report.chaos is not None
            digests[shards] = report.chaos["digest"]
            if shards == 1:
                assert "shards" not in report.chaos
            else:
                extra = report.chaos["shards"]
                assert [d["shard"] for d in extra] == [1]
                assert extra[0]["digest"] != expected.digest()
        assert digests[1] == digests[2] == expected.digest()
