"""Integration-level tests of the hash mechanism's protocols (§2.3, §4.3)."""

import pytest

from repro.core.errors import CoreError, LocateFailedError
from repro.platform.agents import MobileAgent
from repro.platform.naming import AgentId

from tests.conftest import build_runtime, drain, install_hash_mechanism, patch_retries


class Roamer(MobileAgent):
    """A tracked agent driven manually by tests."""

    def main(self):
        return None


def locate(runtime, from_node, agent_id):
    def query():
        node = yield from runtime.location.locate(from_node, agent_id)
        return node

    return runtime.sim.run_process(query())


class TestInstall:
    def test_install_deploys_infrastructure(self):
        runtime = build_runtime(nodes=5)
        mechanism = install_hash_mechanism(runtime)
        assert mechanism.hagent is not None
        assert len(mechanism.lhagents) == 5
        assert mechanism.iagent_count == 1
        assert mechanism.backup is None

    def test_install_requires_nodes(self):
        runtime = build_runtime(nodes=4)
        empty = build_runtime(nodes=4)
        empty.nodes.clear()
        from repro.core.mechanism import HashLocationMechanism

        with pytest.raises(CoreError):
            empty.install_location_mechanism(HashLocationMechanism())

    def test_initial_iagent_covers_everything(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        (iagent,) = mechanism.iagents.values()
        assert iagent.coverage == ""

    def test_backup_deployed_when_enabled(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, enable_backup_hagent=True)
        assert mechanism.backup is not None
        assert mechanism.backup_node != mechanism.hagent_node
        drain(runtime, 0.5)
        # The initial copy was pushed.
        assert mechanism.backup.version == mechanism.hagent.version


class TestRegisterMoveLocate:
    def test_register_then_locate(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        agent = runtime.create_agent(Roamer, "node-1", tracked=True)
        drain(runtime, 0.5)  # lifecycle registration completes
        assert locate(runtime, "node-3", agent.agent_id) == "node-1"
        assert mechanism.counters.registers == 1
        assert mechanism.counters.locates == 1

    def test_move_updates_location(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        agent = runtime.create_agent(Roamer, "node-1", tracked=True)
        drain(runtime, 0.5)
        runtime.sim.run_process(agent.dispatch("node-3"))
        assert locate(runtime, "node-0", agent.agent_id) == "node-3"
        assert mechanism.counters.updates == 1

    def test_locate_unknown_agent_fails_cleanly(self, monkeypatch):
        runtime = build_runtime()
        patch_retries(monkeypatch, "repro.core.mechanism", 2, 0.01)
        mechanism = install_hash_mechanism(runtime)
        with pytest.raises(LocateFailedError):
            locate(runtime, "node-0", AgentId(424242))
        assert mechanism.counters.locate_failures == 1

    def test_deregister_removes_record(self, monkeypatch):
        runtime = build_runtime()
        patch_retries(monkeypatch, "repro.core.mechanism", 2, 0.01)
        mechanism = install_hash_mechanism(runtime)
        agent = runtime.create_agent(Roamer, "node-1", tracked=True)
        drain(runtime, 0.5)
        runtime.sim.run_process(agent.die())
        with pytest.raises(LocateFailedError):
            locate(runtime, "node-0", agent.agent_id)

    def test_locate_times_are_positive_and_bounded(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        agent = runtime.create_agent(Roamer, "node-1", tracked=True)
        drain(runtime, 0.5)

        def timed():
            result = yield from mechanism.timed_locate("node-2", agent.agent_id)
            return result

        result = runtime.sim.run_process(timed())
        assert result.found
        assert result.node == "node-1"
        assert 0 < result.elapsed < 0.1


class TestStalenessRecovery:
    """The §4.3 path: stale secondary copies repaired on demand."""

    def make_split_system(self):
        """A system that has split once, with one stale LHAgent."""
        runtime = build_runtime(nodes=4)
        mechanism = install_hash_mechanism(runtime)
        agents = [
            runtime.create_agent(Roamer, f"node-{i % 4}", tracked=True)
            for i in range(8)
        ]
        drain(runtime, 0.5)
        # Warm every LHAgent's copy (version v1).
        for node in runtime.node_names():
            locate(runtime, node, agents[0].agent_id)
        # Force a split through the HAgent.
        (owner,) = list(mechanism.iagents)
        iagent = mechanism.iagents[owner]

        def report():
            yield runtime.rpc(
                mechanism.hagent_node,
                mechanism.hagent_node,
                mechanism.hagent_id,
                "load-report",
                {"owner": owner, "rate": 9999.0, "mature": True, "records": 8},
            )

        runtime.sim.run_process(report())
        drain(runtime, 1.0)
        assert mechanism.iagent_count == 2
        return runtime, mechanism, agents

    def test_locate_through_stale_copy_recovers(self):
        runtime, mechanism, agents = self.make_split_system()
        not_responsible_before = mechanism.counters.extra.get("not_responsible", 0)
        # Every agent is still locatable from every node, despite all
        # LHAgent copies predating the split.
        for agent in agents:
            assert locate(runtime, "node-2", agent.agent_id) == agent.node_name
        # At least one query must have hit the NOT_RESPONSIBLE path.
        assert (
            mechanism.counters.extra.get("not_responsible", 0)
            > not_responsible_before
        )

    def test_refresh_updates_lhagent_version(self):
        runtime, mechanism, agents = self.make_split_system()
        lhagent = mechanism.lhagents["node-2"]
        stale_version = lhagent.copy.version
        for agent in agents:
            locate(runtime, "node-2", agent.agent_id)
        assert lhagent.copy.version > stale_version

    def test_update_through_stale_copy_recovers(self):
        runtime, mechanism, agents = self.make_split_system()
        # Moves keep working for every agent after the split.
        for agent in agents:
            runtime.sim.run_process(agent.dispatch("node-3"))
        for agent in agents:
            assert locate(runtime, "node-1", agent.agent_id) == "node-3"

    def test_counters_track_retries_and_refreshes(self):
        runtime, mechanism, agents = self.make_split_system()
        for agent in agents:
            locate(runtime, "node-2", agent.agent_id)
        assert mechanism.counters.retries > 0
        assert mechanism.counters.refreshes > 0


class TestSpawnRetire:
    def test_spawn_iagent_round_robin(self):
        runtime = build_runtime(nodes=3)
        mechanism = install_hash_mechanism(runtime)

        def spawn():
            result = yield from mechanism.spawn_iagent()
            return result

        _, node_one = runtime.sim.run_process(spawn())
        _, node_two = runtime.sim.run_process(spawn())
        assert node_one != node_two

    def test_retire_iagent_kills_agent(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        (owner,) = list(mechanism.iagents)
        iagent = mechanism.iagents[owner]

        def retire():
            yield from mechanism.retire_iagent(owner)

        runtime.sim.run_process(retire())
        assert owner not in mechanism.iagents
        assert not iagent.alive

    def test_iagent_node_for_dead_owner_raises(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        with pytest.raises(CoreError):
            mechanism.iagent_node(AgentId(5))

    def test_describe_mentions_thresholds(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        assert "t_max=50" in mechanism.describe()
