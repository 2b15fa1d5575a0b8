"""Targeted race and adversity tests for the core protocols."""

import pytest

from repro.core.messaging import AgentMessenger, MessengerConfig
from repro.platform.naming import AgentId, AgentNamer
from repro.platform.network import LinkModel, Network
from repro.platform.random import RandomStreams
from repro.platform.runtime import AgentRuntime
from repro.platform.simulator import Simulator
from repro.workloads.mobility import ConstantResidence
from repro.workloads.population import spawn_population

from tests.conftest import build_runtime, drain, install_hash_mechanism, patch_retries


def force_split(runtime, mechanism, owner):
    """Drive one split through the HAgent synchronously."""

    def report():
        yield runtime.rpc(
            mechanism.hagent_node,
            mechanism.hagent_node,
            mechanism.hagent_id,
            "load-report",
            {"owner": owner, "rate": 9999.0, "mature": True, "records": 99},
        )

    runtime.sim.run_process(report())


class TestLocateSplitRace:
    def test_locate_issued_before_split_lands_after_it(self):
        """A locate that resolves its IAgent *before* a split and
        queries it *after* must recover via NOT_RESPONSIBLE."""
        runtime = build_runtime(nodes=4)
        mechanism = install_hash_mechanism(runtime)
        agents = spawn_population(runtime, 12, ConstantResidence(5.0))
        drain(runtime, 1.0)

        # Warm node-2's copy.
        def warm():
            yield from mechanism.locate("node-2", agents[0].agent_id)

        runtime.sim.run_process(warm())
        version_before = mechanism.lhagents["node-2"].copy.version

        # Start a locate and let ONLY its whois complete, then split.
        results = {}

        def racing_locate():
            # Stale mapping resolved now...
            mapping = yield from mechanism._whois("node-2", agents[0].agent_id)
            # ...split happens while "the wire is slow".
            (owner,) = [
                o for o in mechanism.hagent.tree.owners()
            ][:1]
            force_split(runtime, mechanism, owner)
            drain_future = runtime.sim.spawn(_noop(), name="noop")
            yield drain_future
            # Now ask the (possibly no longer responsible) IAgent.
            reply = yield from mechanism.iagent_request(
                "node-2", agents[0].agent_id, "locate",
                {"agent": agents[0].agent_id}, tolerate_no_record=True,
            )
            results["reply"] = reply

        def _noop():
            from repro.platform.events import Timeout

            yield Timeout(1.0)

        runtime.sim.run_process(racing_locate())
        assert results["reply"]["status"] == "ok"
        assert results["reply"]["node"] == agents[0].node_name
        # The recovery path refreshed node-2's copy past the split.
        assert mechanism.lhagents["node-2"].copy.version > version_before


class TestMessengerUnderLoss:
    def test_guaranteed_delivery_survives_lossy_links(self, monkeypatch):
        streams = RandomStreams(seed=5)
        sim = Simulator()
        network = Network(
            sim, streams.get("network"), default_link=LinkModel(loss=0.02)
        )
        runtime = AgentRuntime(
            sim=sim, streams=streams, network=network, namer=AgentNamer(seed=5)
        )
        runtime.create_nodes(6)
        patch_retries(monkeypatch, "repro.core.mechanism", 8, 0.05)
        mechanism = install_hash_mechanism(runtime, rpc_timeout=0.4)
        messenger = AgentMessenger(
            mechanism, MessengerConfig(ttl=15.0, direct_attempts=2)
        )
        agents = spawn_population(runtime, 8, ConstantResidence(0.25))
        drain(runtime, 1.5)

        receipts = []

        def campaign():
            for agent in agents:
                receipt = yield from messenger.send(
                    "node-0", agent.agent_id, "through the static"
                )
                receipts.append(receipt)

        runtime.sim.run_process(campaign())
        delivered = [receipt for receipt in receipts if receipt.delivered]
        assert len(delivered) == len(agents)
        assert all("through the static" in agent.inbox for agent in agents)


class TestMergeRace:
    def test_locate_during_merge_transfer_recovers(self):
        """Records in flight between a merged IAgent and its absorber:
        the querier retries through no-record until they land."""
        runtime = build_runtime(nodes=4)
        mechanism = install_hash_mechanism(
            runtime, merge_patience=1, cooldown=0.0
        )
        agents = spawn_population(runtime, 10, ConstantResidence(5.0))
        drain(runtime, 1.0)
        (owner,) = list(mechanism.iagents)
        force_split(runtime, mechanism, owner)
        drain(runtime, 1.0)
        assert mechanism.iagent_count == 2

        # Trigger a merge and immediately locate everything.
        victim = next(iter(mechanism.iagents))

        def merge_report():
            yield runtime.rpc(
                mechanism.hagent_node,
                mechanism.hagent_node,
                mechanism.hagent_id,
                "load-report",
                {"owner": victim, "rate": 0.0, "mature": True, "records": 5},
            )

        runtime.sim.spawn(merge_report(), name="merge-trigger")

        def locate_all():
            found = []
            for agent in agents:
                node = yield from mechanism.locate("node-1", agent.agent_id)
                found.append(node)
            return found

        found = runtime.sim.run_process(locate_all())
        assert len(found) == 10
        drain(runtime, 1.0)
        assert mechanism.iagent_count == 1
