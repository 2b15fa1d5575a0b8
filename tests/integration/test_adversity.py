"""Integration tests under network adversity: loss, jitter, partitions.

The paper's protocols (retry on NOT_RESPONSIBLE, RPC timeouts, lazy
refresh) double as loss recovery -- these tests verify the whole stack
keeps its promises when the network misbehaves.
"""

import pytest

from repro.platform.naming import AgentNamer
from repro.platform.network import LinkModel, Network
from repro.platform.random import RandomStreams
from repro.platform.runtime import AgentRuntime
from repro.platform.simulator import Simulator
from repro.workloads.mobility import ConstantResidence
from repro.workloads.population import spawn_population
from repro.workloads.queries import QueryWorkload

from tests.conftest import install_hash_mechanism, patch_retries


def build_adverse_runtime(seed=1, nodes=6, loss=0.0, jitter=0.0003):
    streams = RandomStreams(seed=seed)
    sim = Simulator()
    network = Network(
        sim,
        streams.get("network"),
        default_link=LinkModel(loss=loss, jitter=jitter),
    )
    runtime = AgentRuntime(
        sim=sim, streams=streams, network=network, namer=AgentNamer(seed=seed)
    )
    runtime.create_nodes(nodes)
    return runtime


class TestMessageLoss:
    def test_locates_complete_despite_two_percent_loss(self, monkeypatch):
        runtime = build_adverse_runtime(loss=0.02)
        patch_retries(monkeypatch, "repro.core.mechanism", 8)
        mechanism = install_hash_mechanism(runtime, rpc_timeout=0.5)
        agents = spawn_population(runtime, 10, ConstantResidence(0.5))
        workload = QueryWorkload(
            runtime,
            targets=[agent.agent_id for agent in agents],
            total_queries=40,
            clients=2,
            think_time=0.05,
            warmup=2.0,
        )
        deadline = 120.0
        while not workload.done and runtime.sim.now < deadline:
            runtime.sim.run(until=runtime.sim.now + 0.5)
        assert workload.done
        found = [result for result in workload.results if result.found]
        # Loss costs retries, not correctness: the vast majority land.
        assert len(found) >= 36
        assert runtime.rpc_timeouts > 0  # losses actually happened

    def test_updates_survive_loss(self, monkeypatch):
        runtime = build_adverse_runtime(loss=0.02)
        patch_retries(monkeypatch, "repro.core.mechanism", 8)
        mechanism = install_hash_mechanism(runtime, rpc_timeout=0.5)
        agents = spawn_population(runtime, 8, ConstantResidence(0.3))
        runtime.sim.run(until=8.0)
        # Every agent kept moving (no itinerary died to a lost ack).
        assert all(agent.moves_completed >= 10 for agent in agents)


class TestPartition:
    def test_partitioned_iagent_times_out_then_recovers(self, monkeypatch):
        runtime = build_adverse_runtime()
        patch_retries(monkeypatch, "repro.core.mechanism", 3, 0.05)
        mechanism = install_hash_mechanism(runtime, rpc_timeout=0.4)
        agents = spawn_population(runtime, 6, ConstantResidence(0.5))
        runtime.sim.run(until=2.0)
        (iagent,) = mechanism.iagents.values()
        iagent_node = iagent.node_name
        runtime.network.partition(iagent_node)
        runtime.sim.run(until=runtime.sim.now + 1.0)
        runtime.network.heal(iagent_node)
        runtime.sim.run(until=runtime.sim.now + 2.0)

        def query(agent):
            node = yield from mechanism.locate("node-0", agent.agent_id)
            return node

        # After healing, agents not on the partitioned node resolve.
        target = next(a for a in agents if a.node is not None)
        assert runtime.sim.run_process(query(target)) is not None

    def test_partition_during_measurement_is_survivable(self, monkeypatch):
        runtime = build_adverse_runtime(nodes=8)
        patch_retries(monkeypatch, "repro.core.mechanism", 4, 0.05)
        mechanism = install_hash_mechanism(runtime, rpc_timeout=0.4)
        agents = spawn_population(runtime, 12, ConstantResidence(0.4))
        workload = QueryWorkload(
            runtime,
            targets=[agent.agent_id for agent in agents],
            total_queries=40,
            clients=2,
            think_time=0.05,
            warmup=1.5,
        )
        # Partition a non-infrastructure node for one second mid-run.
        victim = "node-5"
        runtime.sim.schedule(3.0, runtime.network.partition, victim)
        runtime.sim.schedule(4.0, runtime.network.heal, victim)
        deadline = 120.0
        while not workload.done and runtime.sim.now < deadline:
            runtime.sim.run(until=runtime.sim.now + 0.5)
        assert workload.done
        found = sum(1 for result in workload.results if result.found)
        assert found >= 30  # queries for agents stuck behind the cut may fail


class TestJitter:
    def test_heavy_jitter_changes_timings_not_outcomes(self):
        calm = build_adverse_runtime(jitter=0.0001)
        rough = build_adverse_runtime(jitter=0.01)
        for runtime in (calm, rough):
            install_hash_mechanism(runtime)
            agents = spawn_population(runtime, 6, ConstantResidence(0.5))
            runtime.sim.run(until=3.0)

            def query(agent=agents[0], runtime=runtime):
                node = yield from runtime.location.locate(
                    "node-0", agent.agent_id
                )
                return node

            assert runtime.sim.run_process(query()) is not None
