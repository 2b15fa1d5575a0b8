"""Tests for the primary/backup HAgent extension (paper §7)."""

import pytest

from repro.platform.agents import MobileAgent
from repro.platform.failures import FailureInjector
from repro.platform.messages import Request
from repro.platform.naming import AgentId

from tests.conftest import build_runtime, drain, install_hash_mechanism


class Roamer(MobileAgent):
    def main(self):
        return None


def force_split(runtime, mechanism):
    (owner,) = list(mechanism.iagents)
    iagent = mechanism.iagents[owner]
    stride = (1 << 64) // 16
    for index in range(16):
        iagent.handle(
            Request(
                op="register",
                body={"agent": AgentId(index * stride), "node": "node-1"},
            )
        )

    def report():
        yield runtime.rpc(
            mechanism.hagent_node,
            mechanism.hagent_node,
            mechanism.hagent_id,
            "load-report",
            {"owner": owner, "rate": 9999.0, "mature": True, "records": 16},
        )

    runtime.sim.run_process(report())
    drain(runtime, 1.0)


class TestBackupSync:
    def test_backup_receives_initial_copy(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, enable_backup_hagent=True)
        drain(runtime, 0.5)
        assert mechanism.backup.syncs_received >= 1
        assert mechanism.backup.version == mechanism.hagent.version

    def test_backup_tracks_rehash_versions(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, enable_backup_hagent=True)
        drain(runtime, 0.5)
        force_split(runtime, mechanism)
        drain(runtime, 0.5)
        assert mechanism.backup.version == mechanism.hagent.version
        assert mechanism.hagent.splits == 1

    def test_backup_ping(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, enable_backup_hagent=True)
        drain(runtime, 0.5)

        def ping():
            reply = yield runtime.rpc(
                "node-0", mechanism.backup_node, mechanism.backup_id, "ping"
            )
            return reply

        assert runtime.sim.run_process(ping())["status"] == "ok"

    def test_backup_rejects_unknown_op(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, enable_backup_hagent=True)
        with pytest.raises(ValueError):
            mechanism.backup.handle(Request(op="mystery"))

    def test_read_before_any_sync_fails(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, enable_backup_hagent=True)
        mechanism.backup._bundle = None
        with pytest.raises(RuntimeError):
            mechanism.backup.handle(Request(op="get-hash-function"))

    def test_out_of_order_sync_keeps_newest(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, enable_backup_hagent=True)
        drain(runtime, 0.5)
        new_version = mechanism.backup.version
        stale_bundle = mechanism.hagent.function.bundle()
        stale_bundle["version"] = 0
        mechanism.backup.handle(Request(op="sync", body=stale_bundle))
        assert mechanism.backup.version == new_version


class TestFailover:
    def test_lhagent_reads_from_backup_when_primary_down(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(
            runtime,
            enable_backup_hagent=True,
            hagent_failover_timeout=0.2,
        )
        tracked = runtime.create_agent(Roamer, "node-1", tracked=True)
        drain(runtime, 0.5)
        FailureInjector(runtime).crash_agent(mechanism.hagent)
        # node-3's LHAgent has no copy yet; its fetch must fail over.
        lhagent = mechanism.lhagents["node-3"]
        assert lhagent.copy is None

        def query():
            node = yield from runtime.location.locate("node-3", tracked.agent_id)
            return node

        assert runtime.sim.run_process(query()) == "node-1"
        assert mechanism.backup.reads_served >= 1

    def test_without_backup_cold_copy_read_fails(self):
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime, rpc_timeout=0.3)
        tracked = runtime.create_agent(Roamer, "node-1", tracked=True)
        drain(runtime, 0.5)
        FailureInjector(runtime).crash_agent(mechanism.hagent)

        def query():
            try:
                yield from runtime.location.locate("node-3", tracked.agent_id)
            except Exception as exc:  # noqa: BLE001 - asserting on type below
                return type(exc).__name__
            return "resolved"

        outcome = runtime.sim.run_process(query())
        assert outcome != "resolved"

    def test_warm_copies_survive_primary_outage(self):
        """LHAgents with fresh copies keep answering without the HAgent."""
        runtime = build_runtime()
        mechanism = install_hash_mechanism(runtime)
        tracked = runtime.create_agent(Roamer, "node-1", tracked=True)
        drain(runtime, 0.5)

        def query():
            node = yield from runtime.location.locate("node-2", tracked.agent_id)
            return node

        assert runtime.sim.run_process(query()) == "node-1"  # warms node-2
        FailureInjector(runtime).crash_agent(mechanism.hagent)
        assert runtime.sim.run_process(query()) == "node-1"
