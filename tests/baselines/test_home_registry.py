"""Tests for the HLR/VLR (Ajanta-style) baseline."""

import pytest

from repro.baselines.home_registry import HomeRegistryMechanism
from repro.core.config import HashMechanismConfig
from repro.core.errors import LocateFailedError
from repro.platform.agents import MobileAgent
from repro.platform.naming import AgentId

from tests.conftest import build_runtime, drain, patch_retries


class Roamer(MobileAgent):
    def main(self):
        return None


def install(runtime, domains=2, **config_overrides):
    mechanism = HomeRegistryMechanism(
        HashMechanismConfig().with_overrides(**config_overrides), domains=domains
    )
    runtime.install_location_mechanism(mechanism)
    return mechanism


def locate(runtime, from_node, agent_id):
    def query():
        node = yield from runtime.location.locate(from_node, agent_id)
        return node

    return runtime.sim.run_process(query())


class TestSetup:
    def test_domains_assigned_round_robin(self):
        runtime = build_runtime(nodes=4)
        mechanism = install(runtime, domains=2)
        assert mechanism.domain_of("node-0") == 0
        assert mechanism.domain_of("node-1") == 1
        assert mechanism.domain_of("node-2") == 0
        assert mechanism.domain_of("node-3") == 1
        assert len(mechanism.registries) == 2

    def test_domains_capped_by_node_count(self):
        runtime = build_runtime(nodes=2)
        mechanism = install(runtime, domains=10)
        assert mechanism.domains == 2

    def test_invalid_domain_count_rejected(self):
        with pytest.raises(ValueError):
            HomeRegistryMechanism(domains=0)


class TestProtocol:
    def test_register_records_home(self):
        runtime = build_runtime()
        mechanism = install(runtime)
        agent = runtime.create_agent(Roamer, "node-1", tracked=True)
        drain(runtime, 0.5)
        home = mechanism.home_of[agent.agent_id]
        assert home == mechanism.domain_of("node-1")
        assert mechanism.registries[home].home_records[agent.agent_id] == "node-1"

    def test_home_always_tracks_precise_location(self):
        """Ajanta's defining property: the HLR follows every move."""
        runtime = build_runtime()
        mechanism = install(runtime)
        agent = runtime.create_agent(Roamer, "node-1", tracked=True)
        drain(runtime, 0.5)
        home = mechanism.home_of[agent.agent_id]
        for destination in ("node-2", "node-3", "node-0"):
            runtime.sim.run_process(agent.dispatch(destination))
            assert (
                mechanism.registries[home].home_records[agent.agent_id]
                == destination
            )

    def test_visitor_registers_follow_domain_crossings(self):
        runtime = build_runtime(nodes=4)
        mechanism = install(runtime, domains=2)
        agent = runtime.create_agent(Roamer, "node-0", tracked=True)  # domain 0
        drain(runtime, 0.5)
        runtime.sim.run_process(agent.dispatch("node-1"))  # domain 1
        assert agent.agent_id in mechanism.registries[1].visitors
        assert agent.agent_id not in mechanism.registries[0].visitors

    def test_locate_via_home(self):
        runtime = build_runtime()
        install(runtime)
        agent = runtime.create_agent(Roamer, "node-1", tracked=True)
        drain(runtime, 0.5)
        runtime.sim.run_process(agent.dispatch("node-2"))
        assert locate(runtime, "node-3", agent.agent_id) == "node-2"

    def test_vlr_fast_path_counts_hits(self):
        runtime = build_runtime(nodes=4)
        mechanism = install(runtime, domains=2)
        # Agent born in domain 1, queried from domain 1's other node
        # while visiting domain 1: local VLR hit... construct carefully:
        agent = runtime.create_agent(Roamer, "node-0", tracked=True)  # home 0
        drain(runtime, 0.5)
        runtime.sim.run_process(agent.dispatch("node-1"))  # visits domain 1
        assert locate(runtime, "node-3", agent.agent_id) == "node-1"
        assert mechanism.counters.extra.get("vlr_hits") == 1

    def test_deregister_cleans_both_registers(self):
        runtime = build_runtime()
        mechanism = install(runtime)
        agent = runtime.create_agent(Roamer, "node-1", tracked=True)
        drain(runtime, 0.5)
        runtime.sim.run_process(agent.die())
        for registry in mechanism.registries:
            assert agent.agent_id not in registry.home_records
            assert agent.agent_id not in registry.visitors

    def test_locate_without_home_fails(self):
        """The naming limitation the paper criticises: no name-embedded
        registry, no way to locate."""
        runtime = build_runtime()
        install(runtime)
        with pytest.raises(LocateFailedError):
            locate(runtime, "node-0", AgentId(5))

    def test_unknown_agent_with_home_fails_after_retries(self, monkeypatch):
        runtime = build_runtime()
        patch_retries(monkeypatch, "repro.baselines.home_registry", 2, 0.01)
        mechanism = install(runtime)
        ghost = AgentId(777)
        mechanism.home_of[ghost] = 0
        with pytest.raises(LocateFailedError):
            locate(runtime, "node-0", ghost)
        assert mechanism.counters.locate_failures == 1
