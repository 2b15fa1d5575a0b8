"""Tests for the HAgent / LHAgent pair: copies, versions, rehash triggers."""

import pytest

from repro.core.iagent import IAgent
from repro.platform.messages import Request, RpcTimeout
from repro.platform.naming import AgentId

from tests.conftest import build_runtime, drain, install_hash_mechanism, run_until


def rpc(runtime, dst_node, dst_agent, op, body=None, src="node-0"):
    def caller():
        reply = yield runtime.rpc(src, dst_node, dst_agent, op, body)
        return reply

    return runtime.sim.run_process(caller())


class TestHAgentPrimaryCopy:
    def test_bundle_contains_tree_and_locations(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        bundle = mechanism.hagent.function.bundle()
        assert bundle["version"] >= 1
        assert bundle["tree"][0] == "tree"
        assert len(bundle["iagent_nodes"]) == 1

    def test_get_hash_function_rpc(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        reply = rpc(
            runtime, mechanism.hagent_node, mechanism.hagent_id, "get-hash-function"
        )
        assert reply["version"] == mechanism.hagent.version

    def test_ping(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        reply = rpc(runtime, mechanism.hagent_node, mechanism.hagent_id, "ping")
        assert reply["status"] == "ok"

    def test_unknown_op_rejected(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        with pytest.raises(ValueError):
            mechanism.hagent.handle(Request(op="nonsense"))

    def test_iagent_moved_bumps_version(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        (owner,) = mechanism.iagents
        version = mechanism.hagent.version
        rpc(
            runtime,
            mechanism.hagent_node,
            mechanism.hagent_id,
            "iagent-moved",
            {"owner": owner, "node": "node-2"},
        )
        assert mechanism.hagent.version == version + 1
        assert mechanism.hagent.iagent_nodes[owner] == "node-2"

    def test_iagent_moved_to_same_node_is_noop(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        (owner,) = mechanism.iagents
        node = mechanism.hagent.iagent_nodes[owner]
        version = mechanism.hagent.version
        rpc(
            runtime,
            mechanism.hagent_node,
            mechanism.hagent_id,
            "iagent-moved",
            {"owner": owner, "node": node},
        )
        assert mechanism.hagent.version == version


class TestLoadReports:
    def overload_report(self, mechanism, owner, rate=1000.0):
        return {
            "owner": owner,
            "rate": rate,
            "mature": True,
            "records": 10,
        }

    def seed_records(self, runtime, iagent, count=16):
        """Give the IAgent a divisible record population."""
        stride = (1 << 64) // count
        for index in range(count):
            agent_id = AgentId(index * stride)
            iagent.handle(
                Request(op="register", body={"agent": agent_id, "node": "node-1"})
            )

    def test_overload_report_triggers_split(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        (owner,) = list(mechanism.iagents)
        self.seed_records(runtime, mechanism.iagents[owner])
        rpc(
            runtime,
            mechanism.hagent_node,
            mechanism.hagent_id,
            "load-report",
            self.overload_report(mechanism, owner),
        )
        drain(runtime, 1.0)
        assert mechanism.iagent_count == 2
        assert mechanism.hagent.splits == 1
        assert mechanism.hagent.tree.owner_count() == 2

    def test_thresholds_follow_a_config_replaced_mid_run(self):
        """benchmarks/bench_step_response.py freezes the directory by
        swapping ``mechanism.config``; the trigger must see the swap."""
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        (owner,) = list(mechanism.iagents)
        self.seed_records(runtime, mechanism.iagents[owner])
        mechanism.config = mechanism.config.with_overrides(t_max=1e9)
        rpc(
            runtime,
            mechanism.hagent_node,
            mechanism.hagent_id,
            "load-report",
            self.overload_report(mechanism, owner),
        )
        drain(runtime, 1.0)
        assert mechanism.hagent.splits == 0

    def test_split_transfers_records(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        (owner,) = list(mechanism.iagents)
        old_iagent = mechanism.iagents[owner]
        self.seed_records(runtime, old_iagent)
        rpc(
            runtime,
            mechanism.hagent_node,
            mechanism.hagent_id,
            "load-report",
            self.overload_report(mechanism, owner),
        )
        drain(runtime, 1.0)
        new_owner = next(o for o in mechanism.iagents if o != owner)
        new_iagent = mechanism.iagents[new_owner]
        assert len(old_iagent.records) == 8
        assert len(new_iagent.records) == 8
        # Every record sits where the tree says it should.
        for iagent in (old_iagent, new_iagent):
            for agent_id in iagent.records:
                assert mechanism.hagent.tree.lookup_id(agent_id) == iagent.agent_id

    def test_failed_extract_cannot_tear_the_primary_copy(self):
        """A split whose record hand-off fails is still one published
        transition: the tree never changes under an unchanged version."""
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        hagent = mechanism.hagent
        (owner,) = list(mechanism.iagents)
        self.seed_records(runtime, mechanism.iagents[owner])
        lhagent = mechanism.lhagents["node-2"]
        rpc(
            runtime, "node-2", lhagent.agent_id, "whois",
            {"agent": AgentId(1)}, src="node-2",
        )
        real_rpc = hagent._rpc_iagent

        def losing_extracts(target, op, body=None):
            if op == "extract":
                raise RpcTimeout("extract lost")
            return (yield from real_rpc(target, op, body))

        hagent._rpc_iagent = losing_extracts
        version = hagent.version
        rpc(
            runtime,
            mechanism.hagent_node,
            mechanism.hagent_id,
            "load-report",
            self.overload_report(mechanism, owner),
        )
        drain(runtime, 1.0)
        assert hagent.tree.owner_count() == 2
        assert hagent.version == version + 1
        assert [entry["version"] for entry in hagent.journal] == [version + 1]
        # The new leaf was still told what it serves.
        new_owner = next(o for o in mechanism.iagents if o != owner)
        assert mechanism.iagents[new_owner].coverage == (
            hagent.tree.hyper_label(new_owner).pattern()
        )
        rpc(
            runtime, "node-2", lhagent.agent_id, "refresh",
            {"agent": AgentId(1), "stale_version": lhagent.copy.version},
            src="node-2",
        )
        assert lhagent.copy.tree.to_spec() == hagent.tree.to_spec()

    def test_moved_is_what_the_new_leaf_acknowledged(self):
        """The relay's ``moved`` counts adopted records: a split whose
        adopt was lost logs none, though the extract gave eight up."""
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        hagent = mechanism.hagent
        (owner,) = list(mechanism.iagents)
        self.seed_records(runtime, mechanism.iagents[owner])
        real_rpc = hagent._rpc_iagent

        def losing_adopts(target, op, body=None):
            if op == "adopt":
                raise RpcTimeout("adopt lost")
            return (yield from real_rpc(target, op, body))

        hagent._rpc_iagent = losing_adopts
        rpc(
            runtime,
            mechanism.hagent_node,
            mechanism.hagent_id,
            "load-report",
            self.overload_report(mechanism, owner),
        )
        drain(runtime, 1.0)
        (entry,) = hagent.rehash_log
        assert entry["event"] == "split" and entry["moved"] == 0
        assert len(mechanism.iagents[owner].records) == 8

    def test_immature_report_ignored(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        (owner,) = list(mechanism.iagents)
        self.seed_records(runtime, mechanism.iagents[owner])
        report = self.overload_report(mechanism, owner)
        report["mature"] = False
        rpc(runtime, mechanism.hagent_node, mechanism.hagent_id, "load-report", report)
        drain(runtime, 1.0)
        assert mechanism.iagent_count == 1

    def test_cooldown_suppresses_immediate_resplit(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, cooldown=30.0)
        (owner,) = list(mechanism.iagents)
        self.seed_records(runtime, mechanism.iagents[owner])
        for _ in range(3):
            rpc(
                runtime,
                mechanism.hagent_node,
                mechanism.hagent_id,
                "load-report",
                self.overload_report(mechanism, owner),
            )
        drain(runtime, 1.0)
        assert mechanism.hagent.splits == 1

    def test_underload_reports_merge_after_patience(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, merge_patience=2, cooldown=0.0)
        (owner,) = list(mechanism.iagents)
        self.seed_records(runtime, mechanism.iagents[owner])
        rpc(
            runtime,
            mechanism.hagent_node,
            mechanism.hagent_id,
            "load-report",
            self.overload_report(mechanism, owner),
        )
        drain(runtime, 1.0)
        assert mechanism.iagent_count == 2
        victim = next(iter(mechanism.iagents))
        quiet = {"owner": victim, "rate": 0.1, "mature": True, "records": 8}
        rpc(runtime, mechanism.hagent_node, mechanism.hagent_id, "load-report", quiet)
        assert mechanism.hagent.merges == 0  # patience not reached
        rpc(runtime, mechanism.hagent_node, mechanism.hagent_id, "load-report", quiet)
        drain(runtime, 1.0)
        assert mechanism.hagent.merges == 1
        assert mechanism.iagent_count == 1
        # The survivor now holds all 16 records.
        (survivor,) = mechanism.iagents.values()
        assert len(survivor.records) == 16

    def test_merge_into_a_non_live_absorber_still_completes(self):
        """The absorber died: its ``adopt`` is one more failed call, not
        an exception that kills the handler mid-merge."""
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, merge_patience=1, cooldown=0.0)
        hagent = mechanism.hagent
        (owner,) = list(mechanism.iagents)
        self.seed_records(runtime, mechanism.iagents[owner])
        rpc(
            runtime, mechanism.hagent_node, mechanism.hagent_id,
            "load-report", self.overload_report(mechanism, owner),
        )
        drain(runtime, 1.0)
        victim, absorber = mechanism.iagents
        runtime.sim.run_process(mechanism.iagents[absorber].die())
        version, journaled = hagent.version, len(hagent.journal)
        quiet = {"owner": victim, "rate": 0.1, "mature": True, "records": 8}
        reply = rpc(
            runtime, mechanism.hagent_node, mechanism.hagent_id, "load-report", quiet
        )
        drain(runtime, 1.0)
        assert reply == {"status": "ok"}
        assert hagent.merges == 1
        assert hagent.rehash_log[-1]["event"] == "merge"
        assert hagent.rehash_log[-1]["absorbers"] == [absorber]
        assert victim not in mechanism.iagents  # retired, not orphaned
        # One published transition: tree, version and journal together.
        assert hagent.tree.owner_count() == 1
        assert hagent.version == version + 1
        assert len(hagent.journal) == journaled + 1

    def test_path_scope_split_backs_off_when_an_affected_iagent_is_not_live(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, complex_split_scope="path")
        hagent = mechanism.hagent
        (owner,) = list(mechanism.iagents)
        self.seed_records(runtime, mechanism.iagents[owner])

        def grow():
            # A two-bit label, so ``owner``'s path-scope candidates
            # (promote bit 1) evict from the other leaf too.
            new_owner, new_node = yield from mechanism.spawn_iagent()
            hagent._publish(
                {"op": "split", "kind": "simple", "owner": owner, "bit": 2,
                 "new_owner": new_owner, "new_node": new_node}
            )
            yield from mechanism.iagents[new_owner].die()

        runtime.sim.run_process(grow())
        version = hagent.version
        reply = rpc(
            runtime, mechanism.hagent_node, mechanism.hagent_id,
            "load-report", self.overload_report(mechanism, owner),
        )
        drain(runtime, 1.0)
        assert reply == {"status": "ok"}
        assert (hagent.version, hagent.splits) == (version, 0)  # before publish
        assert hagent.rehash_log == []

    def test_merge_disabled_by_config(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(
            runtime, enable_merge=False, merge_patience=1, cooldown=0.0
        )
        (owner,) = list(mechanism.iagents)
        self.seed_records(runtime, mechanism.iagents[owner])
        rpc(
            runtime,
            mechanism.hagent_node,
            mechanism.hagent_id,
            "load-report",
            self.overload_report(mechanism, owner),
        )
        drain(runtime, 1.0)
        victim = next(iter(mechanism.iagents))
        quiet = {"owner": victim, "rate": 0.1, "mature": True, "records": 8}
        for _ in range(3):
            rpc(
                runtime, mechanism.hagent_node, mechanism.hagent_id,
                "load-report", quiet,
            )
        drain(runtime, 1.0)
        assert mechanism.hagent.merges == 0

    def test_stale_owner_report_ignored(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        ghost = {"owner": AgentId(1), "rate": 999.0, "mature": True, "records": 5}
        reply = rpc(
            runtime, mechanism.hagent_node, mechanism.hagent_id, "load-report", ghost
        )
        assert reply["status"] == "stale"

    def test_rehash_log_records_events(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        (owner,) = list(mechanism.iagents)
        self.seed_records(runtime, mechanism.iagents[owner])
        rpc(
            runtime,
            mechanism.hagent_node,
            mechanism.hagent_id,
            "load-report",
            self.overload_report(mechanism, owner),
        )
        drain(runtime, 1.0)
        (event,) = mechanism.hagent.rehash_log
        assert event["event"] == "split"
        assert event["moved"] == 8
        assert event["iagents"] == 2


class TestLHAgent:
    def test_whois_fetches_copy_on_demand(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        lhagent = mechanism.lhagents["node-2"]
        assert lhagent.copy is None
        reply = rpc(
            runtime, "node-2", lhagent.agent_id, "whois",
            {"agent": AgentId(123)}, src="node-2",
        )
        assert lhagent.copy is not None
        assert reply["iagent"] in mechanism.iagents
        assert reply["node"] == mechanism.iagents[reply["iagent"]].node_name
        assert lhagent.refreshes == 1

    def test_whois_reuses_cached_copy(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        lhagent = mechanism.lhagents["node-2"]
        for value in (1, 2, 3):
            rpc(
                runtime, "node-2", lhagent.agent_id, "whois",
                {"agent": AgentId(value)}, src="node-2",
            )
        assert lhagent.refreshes == 1

    def test_refresh_skips_fetch_if_already_newer(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        lhagent = mechanism.lhagents["node-2"]
        rpc(
            runtime, "node-2", lhagent.agent_id, "whois",
            {"agent": AgentId(1)}, src="node-2",
        )
        # Claim staleness against an OLD version: no fetch needed.
        rpc(
            runtime, "node-2", lhagent.agent_id, "refresh",
            {"agent": AgentId(1), "stale_version": 0}, src="node-2",
        )
        assert lhagent.refreshes == 1

    def test_refresh_fetches_when_version_matches(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        lhagent = mechanism.lhagents["node-2"]
        reply = rpc(
            runtime, "node-2", lhagent.agent_id, "whois",
            {"agent": AgentId(1)}, src="node-2",
        )
        rpc(
            runtime, "node-2", lhagent.agent_id, "refresh",
            {"agent": AgentId(1), "stale_version": reply["version"]}, src="node-2",
        )
        assert lhagent.refreshes == 2

    def test_version_op(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        lhagent = mechanism.lhagents["node-1"]
        assert rpc(
            runtime, "node-1", lhagent.agent_id, "version", src="node-1"
        ) == {"version": -1}
