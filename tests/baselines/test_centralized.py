"""Tests for the centralized comparator."""

import pytest

from repro.baselines.centralized import CentralizedMechanism
from repro.core.errors import LocateFailedError
from repro.platform.agents import MobileAgent
from repro.platform.naming import AgentId

from tests.conftest import build_runtime, drain, patch_retries


class Roamer(MobileAgent):
    def main(self):
        return None


def install(runtime, **config_overrides):
    from repro.core.config import HashMechanismConfig

    mechanism = CentralizedMechanism(
        HashMechanismConfig().with_overrides(**config_overrides)
    )
    runtime.install_location_mechanism(mechanism)
    return mechanism


def locate(runtime, from_node, agent_id):
    def query():
        node = yield from runtime.location.locate(from_node, agent_id)
        return node

    return runtime.sim.run_process(query())


class TestCentralized:
    def test_single_central_agent_deployed(self):
        runtime = build_runtime()
        mechanism = install(runtime)
        assert mechanism.central.node_name == "node-0"

    def test_register_then_locate(self):
        runtime = build_runtime()
        mechanism = install(runtime)
        agent = runtime.create_agent(Roamer, "node-2", tracked=True)
        drain(runtime, 0.5)
        assert locate(runtime, "node-3", agent.agent_id) == "node-2"
        assert mechanism.central.queries == 1
        assert mechanism.central.updates == 1

    def test_move_updates_record(self):
        runtime = build_runtime()
        install(runtime)
        agent = runtime.create_agent(Roamer, "node-2", tracked=True)
        drain(runtime, 0.5)
        runtime.sim.run_process(agent.dispatch("node-1"))
        assert locate(runtime, "node-3", agent.agent_id) == "node-1"

    def test_deregister(self, monkeypatch):
        runtime = build_runtime()
        patch_retries(monkeypatch, "repro.baselines.centralized", 2, 0.01)
        install(runtime)
        agent = runtime.create_agent(Roamer, "node-2", tracked=True)
        drain(runtime, 0.5)
        runtime.sim.run_process(agent.die())
        with pytest.raises(LocateFailedError):
            locate(runtime, "node-0", agent.agent_id)

    def test_unknown_agent_fails_after_retries(self, monkeypatch):
        runtime = build_runtime()
        patch_retries(monkeypatch, "repro.baselines.centralized", 3, 0.01)
        mechanism = install(runtime)
        with pytest.raises(LocateFailedError):
            locate(runtime, "node-0", AgentId(999))
        assert mechanism.counters.retries == 3
        assert mechanism.counters.locate_failures == 1

    def test_every_operation_hits_the_single_agent(self):
        """The defining property: all load lands on one mailbox."""
        runtime = build_runtime()
        mechanism = install(runtime)
        agents = [
            runtime.create_agent(Roamer, f"node-{i % 4}", tracked=True)
            for i in range(6)
        ]
        drain(runtime, 0.5)
        for agent in agents:
            destination = "node-0" if agent.node_name != "node-0" else "node-1"
            runtime.sim.run_process(agent.dispatch(destination))
            locate(runtime, "node-1", agent.agent_id)
        assert mechanism.central.mailbox.jobs_processed == 18  # 6 x (reg+upd+loc)

    def test_describe(self):
        runtime = build_runtime()
        mechanism = install(runtime)
        assert "centralized" in mechanism.describe()
