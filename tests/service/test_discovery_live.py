"""Live discovery over real sockets, verified three ways.

* Against ground truth: every similarity and capability result set is
  checked match-for-match against brute force over the driver's own
  population and capability assignments, including through the batched
  multi-result RPCs and across migrations.
* Against the simulator: the same seeded population produces
  *identical* result sets live and in the simulator -- the per-IAgent
  filter is shared code; the candidate walk, fan-out and merge on top
  of it are pinned here.
* Across topology changes: capability sets ride record transfers
  through a real HAgent split and survive an IAgent crash +
  warm-restart from its WAL.
"""

import asyncio

from repro.discovery.capability import (
    PREDICATE_PALETTE,
    assign_capabilities,
    matches_predicate,
)
from repro.discovery.hamming import ids_within
from repro.service.cluster import ClusterConfig, _Cluster
from repro.service.loadgen import LoadConfig, OpMix, run_load
from repro.service.server import ServiceConfig

from tests.conftest import build_runtime, drain, install_hash_mechanism


def run(coro):
    return asyncio.run(coro)


def fast_config(data_dir=None):
    return ServiceConfig(
        data_dir=data_dir,
        rpc_timeout=0.5,
        heartbeat_interval=0.05,
        heartbeat_timeout=0.4,
        promotion_stagger=0.2,
    )


async def _boot(agents=16, nodes=3, shards=1, seed=11, data_dir=None):
    """A started cluster with a capability-carrying population."""
    config = ClusterConfig(
        nodes=nodes,
        agents=0,
        ops=0,
        seed=seed,
        shards=shards,
        service=fast_config(data_dir=data_dir),
    )
    cluster = _Cluster(config)
    await cluster.start()
    spawned, caps_by_agent = [], {}
    for index in range(agents):
        caps = assign_capabilities(index)
        agent = await cluster.spawn_agent(caps)
        spawned.append(agent)
        caps_by_agent[agent] = caps
    return cluster, spawned, caps_by_agent


def _truth_node(cluster, agent):
    return cluster.nodes[cluster.truth[agent][0]].name


async def _assert_all_discoverable(cluster, agents, caps_by_agent):
    """Every agent + capability set is still discoverable, verbatim."""
    client = cluster.clients[0]
    found = await client.discover_capability({})
    assert {match["agent"] for match in found} == set(caps_by_agent)
    for match in found:
        assert match["capabilities"] == caps_by_agent[match["agent"]]
    query = agents[0]
    found = await client.discover_similar(query, 128)
    assert {match["agent"] for match in found} == set(agents) - {query}


class TestLiveDiscovery:
    def test_similar_matches_brute_force_and_location_truth(self):
        async def scenario():
            cluster, agents, _ = await _boot()
            try:
                client = cluster.clients[0]
                for query in agents[:4]:
                    for d in (1, 2, 8):
                        found = await client.discover_similar(query, d)
                        assert [
                            (match["agent"], match["distance"])
                            for match in found
                        ] == ids_within(agents, query, d)
                        for match in found:
                            assert match["node"] == _truth_node(
                                cluster, match["agent"]
                            )
            finally:
                await cluster.stop()

        run(scenario())

    def test_capability_matches_assignment_truth(self):
        async def scenario():
            cluster, agents, caps_by_agent = await _boot()
            try:
                client = cluster.clients[1]
                for predicate in PREDICATE_PALETTE[:3]:
                    found = await client.discover_capability(predicate)
                    expected = {
                        agent
                        for agent, caps in caps_by_agent.items()
                        if matches_predicate(caps, predicate)
                    }
                    assert {match["agent"] for match in found} == expected
                    for match in found:
                        assert matches_predicate(
                            match["capabilities"], predicate
                        )
                        assert match["node"] == _truth_node(
                            cluster, match["agent"]
                        )
            finally:
                await cluster.stop()

        run(scenario())

    def test_batched_variants_agree_with_singles(self):
        async def scenario():
            cluster, agents, _ = await _boot()
            try:
                client = cluster.clients[0]
                queries = [(agent, 2) for agent in agents[:6]]
                batched = await client.discover_similar_batch(queries)
                for (query, d), found in zip(queries, batched):
                    assert found == await client.discover_similar(query, d)
                predicates = list(PREDICATE_PALETTE[:4])
                batched = await client.discover_capability_batch(predicates)
                for predicate, found in zip(predicates, batched):
                    assert found == await client.discover_capability(predicate)
                assert cluster.merged_counters().batched_ops >= len(
                    queries
                ) + len(predicates)
            finally:
                await cluster.stop()

        run(scenario())

    def test_results_track_migrations(self):
        async def scenario():
            cluster, agents, caps_by_agent = await _boot()
            try:
                for agent in agents[:6]:
                    await cluster.migrate_agent(agent)
                client = cluster.clients[2]
                query = agents[0]
                found = await client.discover_similar(query, 128)
                assert {match["agent"] for match in found} == set(agents) - {
                    query
                }
                for match in found:
                    assert match["node"] == _truth_node(
                        cluster, match["agent"]
                    )
                await _assert_all_discoverable(cluster, agents, caps_by_agent)
            finally:
                await cluster.stop()

        run(scenario())

    def test_sharded_results_equal_unsharded(self):
        """The same seeded population answers identically at 1 / 2 / 4
        shards -- shard fan-out is invisible in the results."""

        async def collect(shards):
            cluster, agents, _ = await _boot(shards=shards, nodes=4, seed=17)
            try:
                client = cluster.clients[0]
                similar = [
                    [
                        (match["agent"].value, match["distance"])
                        for match in await client.discover_similar(query, d)
                    ]
                    for query in agents[:4]
                    for d in (1, 2)
                ]
                capability = [
                    sorted(
                        match["agent"].value
                        for match in await client.discover_capability(
                            predicate
                        )
                    )
                    for predicate in PREDICATE_PALETTE[:3]
                ]
                return similar, capability
            finally:
                await cluster.stop()

        async def scenario():
            baseline = await collect(1)
            assert await collect(2) == baseline
            assert await collect(4) == baseline

        run(scenario())


class TestLiveMatchesSimulator:
    def test_same_seed_yields_identical_result_sets(self):
        """Same AgentNamer seed, same population size, same capability
        assignment -- the live service and the simulator must return the
        same matches.

        The per-IAgent filter is one function now (``IAgentState``; its
        driver parity is pinned in test_iagent_drivers.py), so this
        keeps only what the two stacks still implement separately: the
        candidate walk at the LHAgent, the client-side fan-out and the
        merge -- one wide radius and two predicates, not the sweep."""
        seed, count = 11, 16
        radii, predicates = (3,), PREDICATE_PALETTE[:2]

        async def live():
            cluster, agents, _ = await _boot(agents=count, seed=seed)
            try:
                client = cluster.clients[0]
                similar = [
                    [
                        (match["agent"].value, match["distance"])
                        for match in await client.discover_similar(query, d)
                    ]
                    for query in agents[:4]
                    for d in radii
                ]
                capability = [
                    sorted(
                        match["agent"].value
                        for match in await client.discover_capability(
                            predicate
                        )
                    )
                    for predicate in predicates
                ]
                return [agent.value for agent in agents], similar, capability
            finally:
                await cluster.stop()

        live_ids, live_similar, live_capability = run(live())

        from repro.platform.naming import AgentNamer
        from repro.workloads.mobility import ConstantResidence
        from repro.workloads.population import TAgent

        # The live cluster draws its population ids from
        # AgentNamer(seed); the simulator's infrastructure agents would
        # consume the same stream, so give the runtime a different seed
        # and draw the population from a dedicated namer to line the
        # two populations up id-for-id.
        runtime = build_runtime(seed=seed + 1000, nodes=3)
        mechanism = install_hash_mechanism(runtime)
        namer = AgentNamer(seed=seed)
        population = [
            runtime.create_agent(
                TAgent,
                f"node-{index % 3}",
                agent_id=namer.next_id(),
                residence=ConstantResidence(30.0),
                initial_delay=index * 0.01,
            )
            for index in range(count)
        ]
        drain(runtime, 2.0)
        sim_ids = [agent.agent_id.value for agent in population]
        assert sim_ids == live_ids  # same namer, same draw order

        for index, agent in enumerate(population):

            def assign(agent=agent, caps=assign_capabilities(index)):
                yield from mechanism.set_capabilities(
                    "node-0", agent.agent_id, caps
                )

            runtime.sim.run_process(assign())

        sim_similar = []
        for query in population[:4]:
            for d in radii:

                def discover(query=query, d=d):
                    found = yield from mechanism.discover_similar(
                        "node-1", query.agent_id, d
                    )
                    return found

                found = runtime.sim.run_process(discover())
                sim_similar.append(
                    [(match["agent"].value, match["distance"]) for match in found]
                )
        assert sim_similar == live_similar

        sim_capability = []
        for predicate in predicates:

            def discover(predicate=predicate):
                found = yield from mechanism.discover_capability(
                    "node-2", predicate
                )
                return found

            found = runtime.sim.run_process(discover())
            sim_capability.append(
                sorted(match["agent"].value for match in found)
            )
        assert sim_capability == live_capability


class TestCapabilitySurvival:
    def test_capabilities_survive_live_split(self):
        """Force a real HAgent split: records and their capability sets
        move over the wire (extract -> adopt), and every query still
        answers from the post-split tree."""

        async def scenario():
            cluster, agents, caps_by_agent = await _boot(agents=20)
            try:
                primary = cluster.primary(0)
                owner = sorted(primary.tree.owners(), key=str)[0]
                await primary._split(owner)
                assert primary.splits == 1
                assert len(primary.tree) == 2
                await _assert_all_discoverable(cluster, agents, caps_by_agent)
            finally:
                await cluster.stop()

        run(scenario())

    def test_capabilities_survive_iagent_restart_from_wal(self, tmp_path):
        """Crash the record-heaviest IAgent and warm-restart it from
        its WAL + snapshots: the recovered table answers capability
        queries with the exact pre-crash sets (journaled ``caps`` ops
        replayed, not soft-state re-registration, which never carries
        capabilities)."""

        async def scenario():
            cluster, agents, caps_by_agent = await _boot(
                agents=20, data_dir=str(tmp_path)
            )
            try:
                recovery = await cluster.restart_heaviest_iagent()
                assert recovery["records_recovered"] > 0
                await _assert_all_discoverable(cluster, agents, caps_by_agent)
            finally:
                await cluster.stop()

        run(scenario())


class TestDiscoveryLoadMix:
    def test_mix_parse_accepts_discovery_kinds(self):
        mix = OpMix.parse("locate=0.5,move=0.2,similar=0.2,capability=0.1")
        assert mix.similar == 0.2
        assert mix.capability == 0.1
        assert mix.register == 0.0  # unmentioned kinds zero out

    def test_load_run_with_discovery_mix_passes(self):
        report = run(
            run_load(
                ClusterConfig(nodes=3, seed=9, service=fast_config()),
                LoadConfig(
                    clients=4,
                    duration_s=1.0,
                    warmup_s=0.2,
                    drain_s=1.0,
                    population=40,
                    mix=OpMix(
                        locate=0.4,
                        move=0.2,
                        register=0.0,
                        batch=0.0,
                        similar=0.2,
                        capability=0.2,
                    ),
                    seed=9,
                ),
            )
        )
        assert report.passed, report.render()
        assert report.kinds.get("similar", {}).get("issued", 0) > 0
        assert report.kinds.get("capability", {}).get("issued", 0) > 0
        assert report.discovery_matches > 0
        assert report.counters.get("discover_similars", 0) > 0
        assert report.counters.get("discover_capabilities", 0) > 0

    def test_same_seed_streams_draw_identical_discovery_ops(self):
        from repro.service.loadgen import OpStream

        mix = OpMix(locate=0.3, move=0.2, similar=0.3, capability=0.2)

        def stream():
            s = OpStream(5, 0, mix, ["node-0", "node-1"])
            s.bind_shared([s.spawn().agent for _ in range(4)])
            return s

        a, b = stream(), stream()
        ops_a = [a.draw() for _ in range(200)]
        ops_b = [b.draw() for _ in range(200)]
        assert [op.key() for op in ops_a] == [op.key() for op in ops_b]
        kinds = {op.kind for op in ops_a}
        assert "similar" in kinds and "capability" in kinds
        for op in ops_a:
            if op.kind == "similar":
                assert op.d in (1, 2) and op.seq == op.d
            if op.kind == "capability":
                assert op.predicate is PREDICATE_PALETTE[op.seq]
