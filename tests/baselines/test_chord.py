"""Tests for the Chord-style consistent-hashing baseline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.chord import (
    ChordMechanism,
    RING,
    in_interval,
    ring_hash,
)
from repro.core.config import HashMechanismConfig
from repro.core.errors import LocateFailedError
from repro.platform.agents import MobileAgent
from repro.platform.naming import AgentId

from tests.conftest import build_runtime, drain, patch_retries


class Roamer(MobileAgent):
    def main(self):
        return None


def install(runtime, **config_overrides):
    mechanism = ChordMechanism(
        HashMechanismConfig().with_overrides(**config_overrides)
    )
    runtime.install_location_mechanism(mechanism)
    return mechanism


def locate(runtime, from_node, agent_id):
    def query():
        node = yield from runtime.location.locate(from_node, agent_id)
        return node

    return runtime.sim.run_process(query())


class TestRingMath:
    def test_ring_hash_in_range(self):
        for text in ("node-0", "node-1", "x" * 100):
            assert 0 <= ring_hash(text) < RING

    def test_ring_hash_deterministic(self):
        assert ring_hash("abc") == ring_hash("abc")

    def test_in_interval_simple(self):
        assert in_interval(5, 3, 8)
        assert in_interval(8, 3, 8)  # right-inclusive
        assert not in_interval(3, 3, 8)  # left-exclusive
        assert not in_interval(9, 3, 8)

    def test_in_interval_wrapping(self):
        assert in_interval(1, 10, 3)
        assert in_interval(12, 10, 3)
        assert not in_interval(5, 10, 3)

    @settings(max_examples=200, deadline=None)
    @given(
        key=st.integers(min_value=0, max_value=RING - 1),
        start=st.integers(min_value=0, max_value=RING - 1),
        end=st.integers(min_value=0, max_value=RING - 1),
    )
    def test_in_interval_complement(self, key, start, end):
        """(start, end] and (end, start] partition the circle."""
        if start == end:
            return
        assert in_interval(key, start, end) != in_interval(key, end, start)


class TestRingWiring:
    def test_every_key_has_exactly_one_owner(self):
        runtime = build_runtime(nodes=5)
        mechanism = install(runtime)
        for probe in range(0, RING, RING // 97):
            owners = [
                node for node, agent in mechanism.ring.items() if agent.owns(probe)
            ]
            assert len(owners) == 1

    def test_fingers_point_at_ring_members(self):
        runtime = build_runtime(nodes=5)
        mechanism = install(runtime)
        member_nodes = set(mechanism.ring)
        for agent in mechanism.ring.values():
            assert len(agent.fingers) == 32
            assert all(node in member_nodes for _, node in agent.fingers)

    def test_single_node_ring_owns_everything(self):
        runtime = build_runtime(nodes=1)
        mechanism = install(runtime)
        (agent,) = mechanism.ring.values()
        assert agent.owns(0)
        assert agent.owns(RING - 1)


class TestProtocol:
    def test_register_then_locate(self):
        runtime = build_runtime(nodes=5)
        install(runtime)
        agent = runtime.create_agent(Roamer, "node-2", tracked=True)
        drain(runtime, 0.5)
        assert locate(runtime, "node-0", agent.agent_id) == "node-2"

    def test_record_stored_at_successor(self):
        runtime = build_runtime(nodes=5)
        mechanism = install(runtime)
        agent = runtime.create_agent(Roamer, "node-2", tracked=True)
        drain(runtime, 0.5)
        key = mechanism.agent_key(agent.agent_id)
        holders = [
            node
            for node, ring_agent in mechanism.ring.items()
            if agent.agent_id in ring_agent.records
        ]
        assert len(holders) == 1
        assert mechanism.ring[holders[0]].owns(key)

    def test_move_updates_record(self):
        runtime = build_runtime(nodes=5)
        install(runtime)
        agent = runtime.create_agent(Roamer, "node-2", tracked=True)
        drain(runtime, 0.5)
        runtime.sim.run_process(agent.dispatch("node-4"))
        assert locate(runtime, "node-1", agent.agent_id) == "node-4"

    def test_deregister_removes_record(self, monkeypatch):
        runtime = build_runtime(nodes=5)
        patch_retries(monkeypatch, "repro.baselines.chord", 2, 0.01)
        mechanism = install(runtime)
        agent = runtime.create_agent(Roamer, "node-2", tracked=True)
        drain(runtime, 0.5)
        runtime.sim.run_process(agent.die())
        with pytest.raises(LocateFailedError):
            locate(runtime, "node-0", agent.agent_id)

    def test_routing_hops_counted(self):
        runtime = build_runtime(nodes=8)
        mechanism = install(runtime)
        agents = [
            runtime.create_agent(Roamer, f"node-{i}", tracked=True)
            for i in range(8)
        ]
        drain(runtime, 0.5)
        for agent in agents:
            locate(runtime, "node-0", agent.agent_id)
        # Registration + locates must have routed; hop count is bounded
        # by O(log N) per operation on a healthy ring.
        hops = mechanism.counters.extra.get("route_hops", 0)
        operations = mechanism.counters.registers + mechanism.counters.locates
        assert hops <= operations * 5

    def test_unknown_agent_fails(self, monkeypatch):
        runtime = build_runtime(nodes=3)
        patch_retries(monkeypatch, "repro.baselines.chord", 2, 0.01)
        install(runtime)
        with pytest.raises(LocateFailedError):
            locate(runtime, "node-0", AgentId(999999))
