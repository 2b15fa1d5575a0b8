"""The two IAgent drivers over the one shared record table.

* Parity: one op script fed to a simulator ``IAgent`` and a diskless
  live ``IAgentEndpoint`` yields the same replies and the same table --
  by construction now, pinned here so a driver cannot grow its own rule.
* Journal == memory: whatever a live endpoint acknowledged *or refused*,
  its table equals what ``recover()`` rebuilds from its WAL. The
  malformed-capabilities cases failed before the shared core validated
  ahead of applying (memory said ``['n1', 2]``, the WAL ``['n0', 1]``).
"""

import pytest

from repro.core.iagent_state import OK
from repro.discovery.capability import CapabilityError
from repro.platform.messages import Request
from repro.platform.naming import AgentId
from repro.service.server import IAgentEndpoint, NodeServer, ServiceConfig
from repro.storage import DurableStore

from tests.conftest import build_runtime, install_hash_mechanism

LOW, MID, HIGH = AgentId(5), AgentId(1 << 62), AgentId((1 << 63) + 9)
STRANGER = AgentId((1 << 63) + 77)

#: (op, body) pairs walking every record-table op, in and out of coverage,
#: with sequence races, capabilities and a split-style hand-off.
SCRIPT = [
    ("set-coverage", {"pattern": ""}),
    ("register", {"agent": LOW, "node": "n0", "seq": 1, "capabilities": {"gpu": True}}),
    ("register", {"agent": MID, "node": "n1", "seq": 1}),
    ("register", {"agent": HIGH, "node": "n2", "seq": 4}),
    ("update", {"agent": HIGH, "node": "n0", "seq": 3}),  # loses the race
    ("update", {"agent": MID, "node": "n2", "seq": 2, "capabilities": {"tier": "core"}}),
    ("locate", {"agent": HIGH}),
    ("locate", {"agent": STRANGER}),
    ("set-capabilities", {"agent": HIGH, "capabilities": {"gpu": True, "hops": 1}}),
    ("set-capabilities", {"agent": STRANGER, "capabilities": {"gpu": True}}),
    ("discover-capability", {"predicate": {"gpu": True}}),
    ("discover-capability", {"predicate": {}, "pattern": "0"}),  # stale candidate
    ("discover-similar", {"agent": LOW, "d": 64}),
    ("unregister", {"agent": MID, "seq": 1}),  # stale farewell
    ("extract", {"pattern": "0"}),
    ("locate", {"agent": HIGH}),
    ("register", {"agent": HIGH, "node": "n1", "seq": 9}),
    ("adopt", {"records": {HIGH: ["n1", 5]}, "loads": {HIGH: 3},
               "capabilities": {HIGH: {"relay": True}}, "pattern": "x"}),
    ("adopt", {"records": {HIGH: ["n0", 2]}, "loads": {}}),  # older: refused
    ("unregister", {"agent": LOW, "seq": 7}),
    ("set-capabilities", {"agent": MID, "capabilities": None}),
    ("get-loads", {}),
    ("extract-all", {}),
    ("locate", {"agent": LOW}),
]


def live_endpoint(store=None):
    """A stand-alone endpoint covering everything, hosted the way
    ``NodeServer._host_iagent`` does it (the coverage is journaled)."""
    node = NodeServer("probe", ("127.0.0.1", 1), ServiceConfig())
    endpoint = IAgentEndpoint(AgentId(1), node, None, store=store)
    endpoint.op_set_coverage({"pattern": ""})
    return endpoint


def sim_iagent():
    runtime = build_runtime()
    mechanism = install_hash_mechanism(runtime)
    (iagent,) = mechanism.iagents.values()
    return iagent


class TestDriverParity:
    def test_one_script_same_replies_same_table(self):
        live, sim = live_endpoint(), sim_iagent()
        for op, body in SCRIPT:
            live_reply = getattr(live, "op_" + op.replace("-", "_"))(dict(body))
            sim_reply = sim.handle(Request(op=op, body=dict(body)))
            if op == "get-loads":
                # The rate is read off each driver's own clock.
                del live_reply["rate"], sim_reply["rate"]
            # The simulator's relay mail rides the same bundle.
            sim_reply.pop("pending", None)
            assert sim_reply == live_reply, (op, body)
            assert sim.state.table == live.state.table, (op, body)
        assert live.stats.loads() == sim.stats.loads()

    def test_script_reaches_every_status(self):
        live = live_endpoint()
        seen = set()
        for op, body in SCRIPT:
            seen.add(getattr(live, "op_" + op.replace("-", "_"))(dict(body))["status"])
        assert seen == {"ok", "not-responsible", "no-record"}

    def test_driver_attributes_are_the_table(self):
        for driver in (live_endpoint(), sim_iagent()):
            driver.coverage = "1"
            driver.records[HIGH] = ["n3", 0]
            assert driver.state.table["coverage"] == "1"
            assert driver.state.locate({"agent": HIGH}, 0.0)["node"] == "n3"


class TestJournalEqualsMemory:
    @pytest.fixture
    def store(self, tmp_path):
        store = DurableStore(tmp_path, "iagent", fsync="never", snapshot_every=0)
        yield store
        store.close()

    def recovered(self, store):
        return store.recover(
            initial=IAgentEndpoint.initial_state, apply=IAgentEndpoint.apply_mutation
        ).state

    def test_whole_script(self, store):
        endpoint = live_endpoint(store)
        for op, body in SCRIPT:
            getattr(endpoint, "op_" + op.replace("-", "_"))(dict(body))
            assert self.recovered(store) == endpoint.durable_state(), (op, body)

    @pytest.mark.parametrize("op", ["register", "update", "set-capabilities"])
    def test_malformed_capabilities_apply_nothing(self, store, op):
        endpoint = live_endpoint(store)
        endpoint.op_register({"agent": LOW, "node": "n0", "seq": 1})
        bad = {"agent": LOW, "node": "n1", "seq": 2, "capabilities": {"": 1}}
        with pytest.raises(CapabilityError):
            getattr(endpoint, "op_" + op.replace("-", "_"))(bad)
        assert endpoint.records == {LOW: ["n0", 1]}
        assert endpoint.capabilities == {}
        assert self.recovered(store) == endpoint.durable_state()

    def test_malformed_capabilities_in_a_batch(self, store):
        endpoint = live_endpoint(store)
        ops = [
            {"agent": LOW, "node": "n0", "seq": 1},
            {"agent": MID, "node": "n1", "seq": 1, "capabilities": {"": 1}},
            {"agent": HIGH, "node": "n2", "seq": 1},
        ]
        with pytest.raises(CapabilityError):
            endpoint.op_register_batch({"ops": ops})
        # Items before the bad one are applied *and* journaled; the bad
        # one and everything after it are neither.
        assert endpoint.records == {LOW: ["n0", 1]}
        assert self.recovered(store) == endpoint.durable_state()

    def test_simulator_rejects_before_applying_too(self):
        sim = sim_iagent()
        bad = {"agent": LOW, "node": "n1", "capabilities": {"": 1}}
        with pytest.raises(CapabilityError):
            sim.handle(Request(op="register", body=bad))
        assert sim.records == {} and sim.capabilities == {}
        assert sim.handle(Request(op="ping", body={}))["status"] == OK
