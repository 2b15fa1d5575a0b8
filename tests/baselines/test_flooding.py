"""Tests for the flooding (no-directory) baseline."""

import pytest

from repro.baselines.flooding import FloodingMechanism
from repro.core.config import HashMechanismConfig
from repro.core.errors import LocateFailedError
from repro.platform.agents import MobileAgent
from repro.platform.naming import AgentId
from repro.workloads.mobility import ConstantResidence
from repro.workloads.population import spawn_population

from tests.conftest import build_runtime, drain, patch_retries


class Roamer(MobileAgent):
    def main(self):
        return None


def install(runtime, **config_overrides):
    mechanism = FloodingMechanism(
        HashMechanismConfig().with_overrides(**config_overrides)
    )
    runtime.install_location_mechanism(mechanism)
    return mechanism


def locate(runtime, from_node, agent_id):
    def query():
        node = yield from runtime.location.locate(from_node, agent_id)
        return node

    return runtime.sim.run_process(query())


class TestFlooding:
    def test_resolver_per_node(self):
        runtime = build_runtime(nodes=5)
        mechanism = install(runtime)
        assert len(mechanism.resolvers) == 5

    def test_locate_finds_resident_agent(self):
        runtime = build_runtime(nodes=5)
        mechanism = install(runtime)
        agent = runtime.create_agent(Roamer, "node-3", tracked=True)
        drain(runtime, 0.2)
        assert locate(runtime, "node-0", agent.agent_id) == "node-3"
        assert mechanism.counters.extra["probes"] == 5

    def test_updates_send_no_messages(self):
        runtime = build_runtime(nodes=5)
        mechanism = install(runtime)
        agent = runtime.create_agent(Roamer, "node-3", tracked=True)
        drain(runtime, 0.2)
        before = runtime.network.messages_sent
        runtime.sim.run_process(agent.dispatch("node-1"))
        # Only the agent transfer itself happened; no directory traffic.
        assert runtime.network.messages_sent == before
        assert mechanism.counters.updates == 1

    def test_locate_after_moves_still_works(self):
        runtime = build_runtime(nodes=5)
        install(runtime)
        agent = runtime.create_agent(Roamer, "node-0", tracked=True)
        drain(runtime, 0.2)
        for destination in ("node-1", "node-4", "node-2"):
            runtime.sim.run_process(agent.dispatch(destination))
        assert locate(runtime, "node-3", agent.agent_id) == "node-2"

    def test_unknown_agent_fails_after_refloods(self, monkeypatch):
        runtime = build_runtime(nodes=4)
        patch_retries(monkeypatch, "repro.baselines.flooding", 2, 0.01)
        mechanism = install(runtime)
        with pytest.raises(LocateFailedError):
            locate(runtime, "node-0", AgentId(12345))
        assert mechanism.counters.retries == 2
        assert mechanism.counters.locate_failures == 1

    def test_probe_cost_scales_with_node_count(self):
        small = build_runtime(nodes=4)
        mechanism_small = install(small)
        agent = small.create_agent(Roamer, "node-1", tracked=True)
        drain(small, 0.2)
        locate(small, "node-0", agent.agent_id)

        big = build_runtime(nodes=16)
        mechanism_big = install(big)
        agent_big = big.create_agent(Roamer, "node-1", tracked=True)
        drain(big, 0.2)
        locate(big, "node-0", agent_big.agent_id)

        assert (
            mechanism_big.counters.extra["probes"]
            == 4 * mechanism_small.counters.extra["probes"]
        )

    def test_registered_via_harness_registry(self):
        from repro.harness.experiment import run_experiment
        from repro.workloads.scenarios import exp1_scenario

        scenario = exp1_scenario(6, total_queries=10, warmup=1.0,
                                 query_clients=2)
        result = run_experiment(scenario, "flooding")
        assert result.metrics.failed_locates == 0
        assert len(result.metrics.location_times) == 10
