"""Tests for the clone and retract verbs (Aglets mobility API)."""

import pytest

from repro.platform.agents import MobileAgent
from repro.workloads.mobility import ConstantResidence
from repro.workloads.population import TAgent, spawn_population

from tests.conftest import build_runtime, drain, install_hash_mechanism, patch_retries, run_until


class Wanderer(MobileAgent):
    def main(self):
        return None


class TestClone:
    def test_clone_in_place(self):
        runtime = build_runtime()
        install_hash_mechanism(runtime)
        original = runtime.create_agent(Wanderer, "node-1", tracked=False)

        def do_clone():
            replica = yield from original.clone()
            return replica

        replica = runtime.sim.run_process(do_clone())
        assert replica is not original
        assert replica.agent_id != original.agent_id
        assert replica.node_name == "node-1"
        assert type(replica) is Wanderer

    def test_clone_to_remote_node_takes_transfer_time(self):
        runtime = build_runtime()
        install_hash_mechanism(runtime)
        original = runtime.create_agent(Wanderer, "node-1", tracked=False)

        def do_clone():
            replica = yield from original.clone("node-3")
            return replica, runtime.sim.now

        replica, elapsed = runtime.sim.run_process(do_clone())
        assert replica.node_name == "node-3"
        assert elapsed > 0

    def test_tracked_clone_registers_with_the_directory(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        (original,) = spawn_population(runtime, 1, ConstantResidence(60.0))
        drain(runtime, 0.5)

        def do_clone():
            replica = yield from original.clone("node-2")
            return replica

        replica = runtime.sim.run_process(do_clone())
        drain(runtime, 0.5)
        assert mechanism.counters.registers == 2

        def find():
            node = yield from mechanism.locate("node-0", replica.agent_id)
            return node

        assert runtime.sim.run_process(find()) == "node-2"

    def test_tagent_clone_inherits_behaviour(self):
        runtime = build_runtime()
        install_hash_mechanism(runtime)
        (original,) = spawn_population(runtime, 1, ConstantResidence(0.2))
        drain(runtime, 0.5)

        def do_clone():
            replica = yield from original.clone()
            return replica

        replica = runtime.sim.run_process(do_clone())
        assert replica.residence.mean() == original.residence.mean()
        drain(runtime, 2.0)
        assert replica.moves_completed >= 2  # the clone roams too


class TestRetract:
    def test_retract_pulls_agent_home(self):
        runtime = build_runtime()
        install_hash_mechanism(runtime)
        (agent,) = spawn_population(runtime, 1, ConstantResidence(0.3))
        drain(runtime, 2.0)

        def recall():
            yield from runtime.retract("node-0", agent.agent_id)

        runtime.sim.run_process(recall())
        run_until(runtime, lambda: agent.node is not None
                  and agent.node_name == "node-0", timeout=10.0)
        assert agent.retracted

    def test_retracted_agent_stops_roaming(self):
        runtime = build_runtime()
        install_hash_mechanism(runtime)
        (agent,) = spawn_population(runtime, 1, ConstantResidence(0.2))
        drain(runtime, 1.0)

        def recall():
            yield from runtime.retract("node-0", agent.agent_id)

        runtime.sim.run_process(recall())
        run_until(runtime, lambda: agent.node is not None
                  and agent.node_name == "node-0", timeout=10.0)
        moves = agent.moves_completed
        drain(runtime, 2.0)
        assert agent.moves_completed == moves

    def test_retract_requires_mechanism(self):
        runtime = build_runtime()

        def recall():
            yield from runtime.retract("node-0", runtime.namer.next_id())

        with pytest.raises(RuntimeError):
            runtime.sim.run_process(recall())

    def test_retract_unknown_agent_propagates_locate_failure(self, monkeypatch):
        from repro.core.errors import LocateFailedError

        runtime = build_runtime()
        patch_retries(monkeypatch, "repro.core.mechanism", 2, 0.01)
        install_hash_mechanism(runtime)

        def recall():
            yield from runtime.retract("node-0", runtime.namer.next_id())

        with pytest.raises(LocateFailedError):
            runtime.sim.run_process(recall())
