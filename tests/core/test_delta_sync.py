"""Delta-synced secondary copies (hagent/lhagent journal protocol).

The HAgent journals every rehash operation; a refreshing LHAgent fetches
only the ops since its copy's version and replays them in place
(docs/PROTOCOLS.md). These tests drive the protocol through the
simulated runtime: delta refresh, the truncation fallback and the
modelled wire sizes. Its one correctness obligation -- a delta refresh
is *bit-identical* to a full-snapshot refresh -- is pinned without a
simulator in tests/core/test_hash_function.py.
"""

from repro.platform.naming import AgentId

from tests.conftest import build_runtime, drain, install_hash_mechanism


def rpc(runtime, dst_node, dst_agent, op, body=None, src="node-0"):
    def caller():
        reply = yield runtime.rpc(src, dst_node, dst_agent, op, body)
        return reply

    return runtime.sim.run_process(caller())


class TestDeltaWireProtocol:
    """The journal protocol through the simulated runtime."""

    def seed_and_split(self, runtime, mechanism, rounds=2):
        """Force ``rounds`` journaled splits via overload reports."""
        from repro.platform.messages import Request

        stride = (1 << 58) + 12345  # spreads probes over the id space
        for round_no in range(rounds):
            owner = next(iter(mechanism.iagents))
            iagent = mechanism.iagents[owner]
            tree = mechanism.hagent.tree
            added = 0
            for index in range(4096):
                if added >= 16:
                    break
                value = (round_no * 7919 + index * stride) % (1 << 64)
                agent_id = AgentId(value)
                if not tree.covers(owner, agent_id.bits):
                    continue
                if agent_id in iagent.records:
                    continue
                iagent.handle(
                    Request(
                        op="register",
                        body={"agent": agent_id, "node": "node-1"},
                    )
                )
                added += 1
            rpc(
                runtime,
                mechanism.hagent_node,
                mechanism.hagent_id,
                "load-report",
                {"owner": owner, "rate": 1000.0, "mature": True, "records": 16},
            )
            drain(runtime, 5.0)

    def test_lhagent_refreshes_via_delta(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, cooldown=0.0)
        lhagent = mechanism.lhagents["node-2"]
        rpc(
            runtime, "node-2", lhagent.agent_id, "whois",
            {"agent": AgentId(1)}, src="node-2",
        )
        assert lhagent.full_refreshes == 1  # first fetch has no base copy
        stale_version = lhagent.copy.version

        self.seed_and_split(runtime, mechanism)
        assert mechanism.hagent.version > stale_version

        rpc(
            runtime, "node-2", lhagent.agent_id, "refresh",
            {"agent": AgentId(1), "stale_version": stale_version}, src="node-2",
        )
        assert lhagent.delta_refreshes == 1
        # The replayed copy equals the primary exactly.
        assert lhagent.copy.version == mechanism.hagent.version
        assert lhagent.copy.tree.to_spec() == mechanism.hagent.tree.to_spec()
        assert lhagent.copy.iagent_nodes == mechanism.hagent.iagent_nodes

    def test_truncated_journal_falls_back_to_full_snapshot(self, monkeypatch):
        monkeypatch.setattr("repro.core.hagent.SYNC_JOURNAL_CAPACITY", 1)
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, cooldown=0.0)
        lhagent = mechanism.lhagents["node-2"]
        rpc(
            runtime, "node-2", lhagent.agent_id, "whois",
            {"agent": AgentId(1)}, src="node-2",
        )
        stale_version = lhagent.copy.version
        self.seed_and_split(runtime, mechanism, rounds=3)
        assert mechanism.hagent.version - stale_version > 1  # gap > journal

        rpc(
            runtime, "node-2", lhagent.agent_id, "refresh",
            {"agent": AgentId(1), "stale_version": stale_version}, src="node-2",
        )
        assert lhagent.delta_refreshes == 0
        assert lhagent.full_refreshes == 2
        assert lhagent.copy.version == mechanism.hagent.version
        assert lhagent.copy.tree.to_spec() == mechanism.hagent.tree.to_spec()

    def test_up_to_date_delta_reply_is_empty(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        reply = rpc(
            runtime,
            mechanism.hagent_node,
            mechanism.hagent_id,
            "get-hash-delta",
            {"since": mechanism.hagent.version},
        )
        assert reply["mode"] == "delta"
        assert reply["ops"] == []

    def test_snapshot_wire_size_scales_with_tree(self):
        runtime = build_runtime()
        # enable_merge=False: idle IAgents must not merge back during the
        # drain, or the tree (and the modelled size) shrinks again.
        mechanism = install_hash_mechanism(
            runtime, cooldown=0.0, enable_merge=False
        )
        small = mechanism.hagent.function.snapshot_wire_size()
        self.seed_and_split(runtime, mechanism)
        assert mechanism.hagent.function.snapshot_wire_size() > small
