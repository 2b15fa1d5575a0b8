"""The two IAgent drivers over the one shared record table.

* Parity: one op script fed to a simulator ``IAgent`` and a diskless
  live ``IAgentEndpoint`` yields the same replies and the same table --
  by construction now, pinned here so a driver cannot grow its own rule.
* Journal == memory: whatever a live endpoint acknowledged *or refused*,
  its table equals what ``recover()`` rebuilds from its WAL. The
  malformed-capabilities cases failed before the shared core validated
  ahead of applying (memory said ``['n1', 2]``, the WAL ``['n0', 1]``).
* Hand-off == hand-off over the wire: a split's extract -> adopt leaves
  both leaves, their load accumulators and the taker's journal the same
  whether or not the bundle crossed the binary codec's column form; and
  the compiled coverage test the extract scans with is
  ``pattern_matches`` on the id's bit string.
"""

import asyncio
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iagent_state import (
    NOT_RESPONSIBLE,
    OK,
    compile_coverage,
    merge_handoffs,
    pattern_matches,
)
from repro.discovery.capability import CAPABILITY_PALETTE, CapabilityError
from repro.platform.messages import Request, Response
from repro.platform.naming import AgentId, AgentNamer
from repro.service.client import ServiceClient
from repro.service.server import IAgentEndpoint, NodeServer, ServiceConfig
from repro.service.wire import CODEC_BINARY, decode_frame, encode_frame
from repro.storage import DurableStore

from tests.conftest import build_runtime, copy_reply, in_running_loop, install_hash_mechanism

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
    ("get-loads", {"bits": [1, 2, 64, 65]}),  # 65: beyond the id width
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
    @in_running_loop
    def test_one_script_same_replies_same_table(self):
        live, sim = live_endpoint(), sim_iagent()
        for op, body in SCRIPT:
            live_reply = getattr(live, "op_" + op.replace("-", "_"))(dict(body))
            sim_reply = sim.handle(Request(op=op, body=dict(body)))
            if op == "get-loads":
                # The rate is read off each driver's own clock.
                del live_reply["rate"], sim_reply["rate"]
                # Real bits, both sides loaded: the parity is not vacuous.
                assert live_reply["divisions"] == {
                    1: [3, 4], 2: [4, 3], 64: [3, 4], 65: None
                }
            # The simulator's relay mail rides the same bundle.
            sim_reply.pop("pending", None)
            assert sim_reply == live_reply, (op, body)
            assert sim.state.table == live.state.table, (op, body)
        assert live.stats.loads() == sim.stats.loads()

    @in_running_loop
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
            # The compiled coverage test follows the table, not the setter.
            driver.coverage = "0"
            assert driver.state.locate({"agent": HIGH}, 0.0)["status"] == NOT_RESPONSIBLE


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

    @in_running_loop
    def test_whole_script(self, store):
        endpoint = live_endpoint(store)
        for op, body in SCRIPT:
            getattr(endpoint, "op_" + op.replace("-", "_"))(dict(body))
            assert self.recovered(store) == endpoint.durable_state(), (op, body)

    @pytest.mark.parametrize("op", ["register", "update", "set-capabilities"])
    @in_running_loop
    def test_malformed_capabilities_apply_nothing(self, store, op):
        endpoint = live_endpoint(store)
        endpoint.op_register({"agent": LOW, "node": "n0", "seq": 1})
        bad = {"agent": LOW, "node": "n1", "seq": 2, "capabilities": {"": 1}}
        with pytest.raises(CapabilityError):
            getattr(endpoint, "op_" + op.replace("-", "_"))(bad)
        assert endpoint.records == {LOW: ["n0", 1]}
        assert endpoint.capabilities == {}
        assert self.recovered(store) == endpoint.durable_state()

    @in_running_loop
    def test_malformed_capabilities_in_a_batch(self, store):
        endpoint = live_endpoint(store)
        batch = {
            "records": {LOW: ["n0", 1], MID: ["n1", 1], HIGH: ["n2", 1]},
            "capabilities": {MID: {"": 1}},
        }
        with pytest.raises(CapabilityError):
            endpoint.op_register_batch(batch)
        # Rows before the bad one are applied *and* journaled; the bad
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


class Journal:
    """The two members of ``DurableStore`` an endpoint commits through."""

    should_snapshot = False

    def __init__(self):
        self.entries = []

    def log(self, entry):
        self.entries.append(entry)


def over_the_wire(value):
    return decode_frame(
        encode_frame(value, codec=CODEC_BINARY), codec=CODEC_BINARY
    )


def split_handoff(hop):
    """One split of a seeded 2000-record leaf, every RPC body through ``hop``."""
    rng = random.Random(15)
    giver = live_endpoint(Journal())
    taker = IAgentEndpoint(AgentId(2), giver.node, None, store=Journal())
    agents = [AgentId(rng.getrandbits(64)) for _ in range(2000)]
    for n, agent in enumerate(agents):
        body = {"agent": agent, "node": f"n{rng.randrange(5)}", "seq": rng.randrange(9)}
        if n % 7 == 0:
            body["capabilities"] = {"gpu": n % 2 == 0, "hops": n % 5}
        giver.op_register(body)
    for agent in rng.choices(agents, k=3000):
        giver.op_locate({"agent": agent})
    reply = hop(Response(message_id=1, value=giver.op_extract({"pattern": "0"}))).value
    bundle = merge_handoffs([reply])
    bundle["pattern"] = "1"
    request = hop({"to": taker.owner, "req": Request(op="adopt", body=bundle)})["req"]
    assert taker.op_adopt(request.body) == {"status": OK}
    return {
        "giver": giver.state.table,
        "giver loads": giver.stats.per_agent,
        "taker": taker.state.table,
        "taker loads": taker.stats.per_agent,
        "taker journal": taker.store.entries,
    }


class TestHandoffOverTheWire:
    @in_running_loop
    def test_split_is_the_same_with_and_without_the_wire_hop(self):
        direct, wired = split_handoff(lambda value: value), split_handoff(over_the_wire)
        for part, expected in direct.items():
            # repr as well: == would let True pass for 1, a tuple row
            # for a list after a JSON snapshot, or a reordered table.
            assert wired[part] == expected, part
            assert repr(wired[part]) == repr(expected), part
        moved = len(direct["taker"]["records"])
        assert 800 < moved < 1200 and len(direct["giver"]["records"]) == 2000 - moved
        assert direct["taker"]["capabilities"] and max(direct["taker loads"].values()) > 2
        (adopt,) = direct["taker journal"]
        assert adopt["op"] == "adopt" and adopt["pattern"] == "1"
        assert adopt["records"] == direct["taker"]["records"]

    @in_running_loop
    def test_get_loads_reply_is_sized_by_the_bits_asked_not_the_records_held(self):
        """The planner's answer is two sums per candidate bit: 20 000
        held agents must not show in the frame (as bit strings, 1.3 MB)."""
        endpoint = live_endpoint()
        ids = AgentNamer(seed=20)
        for _ in range(20_000):
            endpoint.op_register({"agent": ids.next_id(), "node": "n0", "seq": 1})
        ask = {"bits": list(range(1, 9))}
        reply = endpoint.op_get_loads(ask)
        frame = encode_frame(Response(message_id=1, value=reply), codec=CODEC_BINARY)
        assert len(frame) < 256
        divisions = decode_frame(frame, codec=CODEC_BINARY).value["divisions"]
        assert divisions == endpoint.stats.divide(ask["bits"])
        assert all(sum(sides) == 20_000 and min(sides) > 9_000 for sides in divisions.values())



class _EndpointChannel:
    """A ``ServiceClient`` channel to one node whose only IAgent is
    ``endpoint`` (covering every id): each call reaches it through the
    binary codec both ways, as over a socket."""

    ADDR = ("127.0.0.1", 1)

    def __init__(self, endpoint):
        self.endpoint = endpoint

    async def call(self, addr, to, op, body=None, timeout=None, hedge=None):
        if to == "lhagent":
            return copy_reply(self.endpoint.owner, "probe", self.ADDR)
        request = over_the_wire({"to": to, "req": Request(op=op, body=body)})["req"]
        value = getattr(self.endpoint, "op_" + op.replace("-", "_"))(request.body)
        return over_the_wire(Response(message_id=1, value=value)).value

    async def close(self):
        pass


#: 64-bit ids (the id-table form) and wider ones (the generic dict; the
#: tree resolves no id narrower than its own 64 bits).
agent_ids = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1).map(AgentId),
    st.integers(min_value=65, max_value=96).flatmap(
        lambda width: st.integers(min_value=0, max_value=2**width - 1).map(
            lambda value: AgentId(value, width)
        )
    ),
)


@st.composite
def register_rows(draw):
    """``(agent, node, seq, capabilities)`` rows naming agents again, at
    mixed widths, some with a capability set -- and, drawn on, 300 rows
    on 300 nodes: more names than a row column's string table holds."""
    pool = draw(st.lists(agent_ids, min_size=1, max_size=12, unique=True))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(pool),
                st.integers(min_value=0, max_value=3).map("n{}".format),
                st.integers(min_value=0, max_value=3),
                st.one_of(st.none(), st.sampled_from(CAPABILITY_PALETTE)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    if draw(st.booleans()):
        ids = AgentNamer(seed=draw(st.integers(min_value=0, max_value=2**16)))
        rows += [(ids.next_id(), f"bulk-{n}", 0, None) for n in range(300)]
    return rows


def soft_state(endpoint):
    """What a register leaves outside the table: per-agent loads, the
    update count and the rate window's events."""
    stats = endpoint.stats
    return dict(stats.per_agent), stats.updates, stats.total.count(endpoint.node._now())


#: Coverage patterns a leaf may hold: everything, half, a quarter, and a
#: multi-bit label's skipped bit.
COVERAGES = ["", "0", "1", "10", "x1"]


@st.composite
def batch_and_prelude(draw):
    """Rows registered one by one on both sides first, then one batch
    request (each agent once, an id table) -- and, drawn on, the row
    index whose capability set is malformed."""
    rows = draw(register_rows())
    cut = draw(st.integers(min_value=0, max_value=len(rows)))
    batch = {}
    for agent, node, seq, caps in rows[cut:]:
        batch[agent] = (node, seq, caps)
    bad = None
    if batch:
        bad = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=len(batch) - 1)))
    return rows[:cut], batch, bad


class TestRegisterBatchIsSingles:
    @given(register_rows(), st.sampled_from([3, 64, 512]))
    @settings(max_examples=60, deadline=None)
    def test_tables_and_journals_equal_one_by_one(self, rows, batch_rows):
        """``register_batch(rows)`` leaves the table, the soft state and
        the state its WAL recovers equal to registering the rows one by
        one -- and, with no agent named twice, the WAL bytes too."""

        async def register(batched, root):
            store = DurableStore(root, "iagent", fsync="never", snapshot_every=0)
            endpoint = live_endpoint(store)
            channel = _EndpointChannel(endpoint)
            client = ServiceClient("probe", channel.ADDR, channel=channel)
            if batched:
                await client.register_batch(rows)
            else:
                for row in rows:
                    await client.register(*row)
            assert client.counters.ops == len(rows)
            recovered = store.recover(
                initial=IAgentEndpoint.initial_state, apply=IAgentEndpoint.apply_mutation
            ).state
            store.close()
            wal = b"".join(segment.read_bytes() for segment in store.wal.segments())
            return endpoint.durable_state(), soft_state(endpoint), wal, recovered

        with pytest.MonkeyPatch.context() as monkeypatch, tempfile.TemporaryDirectory() as root:
            monkeypatch.setattr("repro.service.client.BATCH_ROWS", batch_rows)
            batch, batch_soft, batch_wal, batch_recovered = asyncio.run(
                register(True, Path(root, "batch"))
            )
            single, single_soft, single_wal, single_recovered = asyncio.run(
                register(False, Path(root, "single"))
            )
        assert batch == single
        assert batch_soft == single_soft
        if len({row[0] for row in rows}) == len(rows):
            # One leaf, each agent once: one group, its chunks applied in
            # row order. (A repeat rides a later chunk, so it journals
            # later than its single would.)
            assert batch_wal == single_wal
        assert batch_recovered == batch and single_recovered == single

    @given(batch_and_prelude(), st.sampled_from(COVERAGES))
    @settings(max_examples=150, deadline=None)
    @in_running_loop
    def test_one_request_is_its_rows_one_by_one(self, case, coverage):
        """One ``register-batch`` request at a leaf covering part of the
        id space: ``bounced``, the table, the soft state and the journal
        entries in order equal its rows sent as single registers. A
        malformed capability set mid-batch raises with the rows before
        it applied and journaled, as the singles leave them."""
        prelude, batch, bad = case
        rows = [(agent, node, seq, caps) for agent, (node, seq, caps) in batch.items()]
        if bad is not None:
            agent, node, seq, _ = rows[bad]
            rows[bad] = (agent, node, seq, {"": 1})
        body = {"records": {agent: [node, seq] for agent, node, seq, _ in rows}}
        capabilities = {agent: caps for agent, _, _, caps in rows if caps is not None}
        if capabilities:
            body["capabilities"] = capabilities
        sides = []
        for batched in (True, False):
            journal = Journal()
            endpoint = live_endpoint(journal)
            endpoint.op_set_coverage({"pattern": coverage})
            for agent, node, seq, caps in prelude:
                endpoint.op_register({"agent": agent, "node": node, "seq": seq,
                                      "capabilities": caps})
            bounced = []
            try:
                if batched:
                    bounced = endpoint.op_register_batch(over_the_wire(body))["bounced"]
                else:
                    for agent, node, seq, caps in rows:
                        single = {"agent": agent, "node": node, "seq": seq, "capabilities": caps}
                        if endpoint.op_register(single)["status"] == NOT_RESPONSIBLE:
                            bounced.append(agent)
                raised = False
            except CapabilityError:
                raised = True
            sides.append(
                (raised, bounced, endpoint.durable_state(), soft_state(endpoint), journal.entries)
            )
        (raised, *batch_side), (single_raised, *single_side) = sides
        assert raised == single_raised == (
            bad is not None and compile_coverage(coverage)(rows[bad][0])
        )
        if raised:
            # ``bounced`` is not answered once the request raises.
            batch_side[0] = single_side[0] = None
        assert batch_side == single_side


@st.composite
def patterns_and_ids(draw):
    width = draw(st.integers(min_value=1, max_value=72))
    agent = AgentId(draw(st.integers(min_value=0, max_value=2**width - 1)), width)
    # Mostly near misses of the id's own bits: a random pattern almost
    # never covers a random id past a few constrained positions.
    near = "".join(
        draw(st.sampled_from([bit, bit, bit, "x", "0", "1"]))
        for bit in agent.bits[: draw(st.integers(min_value=0, max_value=width))]
    )
    pattern = draw(
        st.one_of(
            st.none(),
            st.just(near),
            st.just(near + "x" * draw(st.integers(min_value=0, max_value=80 - len(near)))),
            st.text(alphabet="01x", max_size=80),
            st.text(alphabet="01x_ +2", max_size=6),  # int() would take some of these
        )
    )
    return pattern, agent


@given(patterns_and_ids())
@settings(max_examples=500)
def test_compiled_coverage_is_pattern_matches(case):
    pattern, agent = case
    assert compile_coverage(pattern)(agent) == pattern_matches(pattern, agent.bits)
