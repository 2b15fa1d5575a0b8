"""Failure-injection integration tests (the paper's §7 concerns, live)."""

import pytest

from repro.harness.ablations import failover_results
from repro.platform.failures import FailureInjector
from repro.workloads.mobility import ConstantResidence
from repro.workloads.population import spawn_population

from tests.conftest import build_runtime, drain, install_hash_mechanism, patch_retries


class TestHAgentOutage:
    def test_steady_state_survives_hagent_crash(self):
        """With warm secondary copies and no rehash pressure, the system
        keeps locating agents through an HAgent outage."""
        runtime = build_runtime(nodes=4)
        mechanism = install_hash_mechanism(runtime)
        agents = spawn_population(runtime, 6, ConstantResidence(0.5))
        drain(runtime, 3.0)
        # Warm every LHAgent.
        for node in runtime.node_names():
            def q(node=node):
                node_found = yield from runtime.location.locate(
                    node, agents[0].agent_id
                )
                return node_found
            runtime.sim.run_process(q())
        FailureInjector(runtime).crash_agent(mechanism.hagent)
        drain(runtime, 2.0)
        for agent in agents:
            def q(agent=agent):
                node_found = yield from runtime.location.locate(
                    "node-1", agent.agent_id
                )
                return node_found
            assert runtime.sim.run_process(q()) == agent.node_name

    def test_rehashing_pauses_during_outage_and_resumes(self):
        runtime = build_runtime(nodes=4)
        mechanism = install_hash_mechanism(runtime, t_max=20.0, rpc_timeout=0.5)
        injector = FailureInjector(runtime)
        injector.crash_agent(mechanism.hagent)
        spawn_population(runtime, 40, ConstantResidence(0.25))
        drain(runtime, 6.0)
        assert mechanism.hagent.splits == 0  # nobody coordinated
        injector.recover_agent(mechanism.hagent)
        drain(runtime, 8.0)
        assert mechanism.hagent.splits >= 1  # coordination resumed

    def test_iagent_crash_stalls_then_times_out(self, monkeypatch):
        runtime = build_runtime(nodes=4)
        patch_retries(monkeypatch, "repro.core.mechanism", 2)
        mechanism = install_hash_mechanism(runtime, rpc_timeout=0.4)
        agents = spawn_population(runtime, 4, ConstantResidence(0.5))
        drain(runtime, 2.0)
        (iagent,) = mechanism.iagents.values()
        FailureInjector(runtime).crash_agent(iagent)

        def q():
            try:
                yield from runtime.location.locate("node-1", agents[0].agent_id)
            except Exception as exc:  # noqa: BLE001
                return type(exc).__name__
            return "ok"

        outcome = runtime.sim.run_process(q())
        assert outcome != "ok"


class TestFailoverAblation:
    def test_backup_eliminates_outage_failures(self):
        """The ABL-F headline: cold-copy reads fail without the backup
        and succeed with it."""
        rows = failover_results(seeds=(1,), quick=True)
        by_variant = {row["variant"]: row for row in rows}
        assert by_variant["no backup"]["failed_locates"] > 0
        assert by_variant["primary/backup"]["failed_locates"] == 0
