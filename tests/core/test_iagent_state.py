"""The one IAgent record table, checked against a brute-force model.

A hypothesis state machine drives :class:`IAgentState` with random
``put / del / caps / extract / extract-all / adopt / set-coverage`` ops
(random ids on a 6-bit space so collisions are common, random seqs) and
after every step asserts

(a) the table equals a dict model that spells the rules out naively;
(b) replaying the journal entries the mutations returned onto
    ``initial_state()`` through the live replay reducer
    (``IAgentEndpoint.apply_mutation``) reproduces the table exactly;
(c) a hand-off conserves records and capability sets -- ``extract(p)``
    plus the remainder is what was there before, and ``route_handoff``
    delivers every moved entry to the leaf ``tree.lookup`` names.
"""

import copy
import itertools
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.hash_tree import HashTree
from repro.core.iagent_state import (
    NO_RECORD,
    NOT_RESPONSIBLE,
    OK,
    IAgentState,
    merge_handoffs,
    route_handoff,
)
from repro.core.load import GroupedLoadStatistics, LoadStatistics
from repro.discovery.capability import CapabilityError
from repro.platform.naming import AgentId
from repro.service.server import IAgentEndpoint

WIDTH = 6

agents = st.integers(0, (1 << WIDTH) - 1).map(lambda value: AgentId(value, WIDTH))
nodes = st.sampled_from(["n0", "n1", "n2"])
seqs = st.integers(0, 4)
patterns = st.text(alphabet="01x", max_size=3)
capability_sets = st.sampled_from([{"gpu": True}, {"tier": "core", "hops": 1}, {}])


def covers(pattern, agent):
    """Brute-force coverage: position by position, no shortcuts."""
    if pattern is None:
        return False
    bits = agent.bits
    for index, symbol in enumerate(pattern):
        if symbol != "x" and bits[index] != symbol:
            return False
    return True


class IAgentTable(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.state = IAgentState(None, LoadStatistics(window=1.0))
        self.coverage = None
        self.records = {}  # agent -> [node, seq]
        self.capabilities = {}
        self.journal = []
        self.clock = itertools.count()

    @initialize(splits=st.lists(st.tuples(st.integers(0, 99), st.integers(1, 2)), max_size=5))
    def grow_tree(self, splits):
        """Some hash tree for route_handoff to consult."""
        self.tree = HashTree("leaf-0", width=WIDTH)
        for number, (selector, m) in enumerate(splits, start=1):
            owners = sorted(self.tree.owners())
            owner = owners[selector % len(owners)]
            simple = [
                c for c in self.tree.split_candidates(owner) if c.kind == "simple"
            ]
            if len(simple) >= m:
                self.tree.apply_split(simple[m - 1], f"leaf-{number}")

    def commit(self, outcome):
        reply, entry = outcome
        if entry is not None:
            self.journal.append(copy.deepcopy(entry))
        return reply

    # -- single-record ops ---------------------------------------------------

    @rule(agent=agents, node=nodes, seq=seqs, caps=st.none() | capability_sets)
    def put(self, agent, node, seq, caps):
        body = {"agent": agent, "node": node, "seq": seq}
        if caps is not None:
            body["capabilities"] = caps
        reply = self.commit(self.state.put(body, next(self.clock)))
        if not covers(self.coverage, agent):
            assert reply == {"status": NOT_RESPONSIBLE}
            return
        assert reply == {"status": OK}
        if agent not in self.records or seq >= self.records[agent][1]:
            self.records[agent] = [node, seq]
            if caps is not None:
                self.capabilities[agent] = caps

    @rule(agent=agents, seq=seqs)
    def unregister(self, agent, seq):
        reply = self.commit(self.state.unregister({"agent": agent, "seq": seq}))
        if not covers(self.coverage, agent):
            assert reply == {"status": NOT_RESPONSIBLE}
            return
        assert reply == {"status": OK}
        if agent in self.records and seq >= self.records[agent][1]:
            del self.records[agent]
            self.capabilities.pop(agent, None)

    @rule(agent=agents, caps=st.none() | capability_sets)
    def set_capabilities(self, agent, caps):
        body = {"agent": agent, "capabilities": caps}
        reply = self.commit(self.state.set_capabilities(body, next(self.clock)))
        if not covers(self.coverage, agent):
            assert reply == {"status": NOT_RESPONSIBLE}
        elif agent not in self.records:
            assert reply == {"status": NO_RECORD}
        else:
            assert reply == {"status": OK}
            if caps is None:
                self.capabilities.pop(agent, None)
            else:
                self.capabilities[agent] = caps

    @rule(agent=agents)
    def locate(self, agent):
        reply = self.state.locate({"agent": agent}, next(self.clock))
        if not covers(self.coverage, agent):
            assert reply == {"status": NOT_RESPONSIBLE}
        elif agent not in self.records:
            assert reply == {"status": NO_RECORD}
        else:
            node, seq = self.records[agent]
            assert reply == {"status": OK, "node": node, "seq": seq}

    # -- hand-offs ------------------------------------------------------------

    def check_handoff(self, reply, before_records, before_caps):
        assert reply["status"] == OK
        # Conservation: moved + kept is exactly what was held, no overlap.
        assert not set(reply["records"]) & set(self.state.table["records"])
        assert {**reply["records"], **self.state.table["records"]} == before_records
        assert {
            **reply["capabilities"],
            **self.state.table["capabilities"],
        } == before_caps
        assert set(reply["loads"]) == set(reply["records"])
        assert set(reply["capabilities"]) <= set(reply["records"])
        # Routing: every moved entry of every key lands on its leaf.
        routed = route_handoff(self.tree, reply)
        for leaf, handoff in routed.items():
            for part in handoff.values():
                assert all(self.tree.lookup_id(a) == leaf for a in part)
        merged = merge_handoffs(routed.values())
        for key in ("records", "loads", "capabilities"):
            assert merged.get(key, {}) == reply[key]

    @rule(pattern=patterns)
    def extract(self, pattern):
        before = dict(self.records), dict(self.capabilities)
        reply = self.commit(self.state.extract({"pattern": pattern}, next(self.clock)))
        self.coverage = pattern
        self.records = {a: r for a, r in self.records.items() if covers(pattern, a)}
        self.capabilities = {
            a: c for a, c in self.capabilities.items() if a in self.records
        }
        self.check_handoff(reply, *before)

    @rule()
    def extract_all(self):
        before = dict(self.records), dict(self.capabilities)
        reply = self.commit(self.state.extract_all())
        self.coverage, self.records, self.capabilities = None, {}, {}
        self.check_handoff(reply, *before)

    @rule(
        incoming=st.dictionaries(agents, st.tuples(nodes, seqs), max_size=6),
        caps=st.dictionaries(agents, capability_sets, max_size=3),
        pattern=st.none() | patterns,
    )
    def adopt(self, incoming, caps, pattern):
        body = {
            "records": {agent: list(record) for agent, record in incoming.items()},
            "loads": {agent: 1 for agent in incoming},
            "capabilities": caps,
        }
        if pattern is not None:
            body["pattern"] = pattern
            self.coverage = pattern
        assert self.commit(self.state.adopt(body)) == {"status": OK}
        for agent, (node, seq) in incoming.items():
            if agent not in self.records or seq >= self.records[agent][1]:
                self.records[agent] = [node, seq]
                if agent in caps:
                    self.capabilities[agent] = caps[agent]

    @rule(pattern=patterns)
    def set_coverage(self, pattern):
        reply = self.commit(self.state.set_coverage({"pattern": pattern}))
        assert reply == {"status": OK}
        self.coverage = pattern

    # -- after every step -----------------------------------------------------

    @invariant()
    def table_equals_model(self):
        assert self.state.table == {
            "coverage": self.coverage,
            "records": self.records,
            "capabilities": self.capabilities,
        }

    @invariant()
    def journal_replays_to_the_table(self):
        replayed = IAgentEndpoint.initial_state()
        for entry in self.journal:
            assert IAgentEndpoint.apply_mutation(replayed, copy.deepcopy(entry)) is None
        assert replayed == self.state.table


TestIAgentTable = IAgentTable.TestCase
TestIAgentTable.settings = settings(
    max_examples=200, stateful_step_count=25, deadline=None
)


class TestRejectedMutationsChangeNothing:
    @pytest.mark.parametrize("op", ["put", "set_capabilities"])
    def test_malformed_capabilities(self, op):
        state = IAgentState("", LoadStatistics(window=1.0))
        agent = AgentId(5, WIDTH)
        state.put({"agent": agent, "node": "n0", "seq": 1}, 0.0)
        before = copy.deepcopy(state.table)
        body = {"agent": agent, "node": "n1", "seq": 2, "capabilities": {"": 1}}
        with pytest.raises(CapabilityError):
            getattr(state, op)(body, 1.0)
        assert state.table == before


class TestStatsAreNeverAskedWhichTheyAre:
    @pytest.mark.parametrize(
        "stats",
        [LoadStatistics(window=1.0), GroupedLoadStatistics(window=1.0, group_depth=2)],
        ids=["per-agent", "grouped"],
    )
    def test_loads_leave_with_the_records(self, stats):
        state = IAgentState("", stats)
        low, high = AgentId(0b000001, WIDTH), AgentId(0b100001, WIDTH)
        for now, agent in enumerate([low, high, high]):
            state.put({"agent": agent, "node": "n0"}, float(now))
        ask = {"bits": [1]}
        assert state.get_loads(ask, 3.0)["divisions"] == {1: [1, 2]}
        reply, _ = state.extract({"pattern": "0"}, 3.0)
        assert reply["loads"] == {high: 2}
        assert state.get_loads(ask, 3.0)["divisions"] == {1: [1, 0]}


class TestAdoptedRows:
    """``adopt`` keeps the ``[node, seq]`` lists it is handed. That is
    sound only while ``apply`` replaces a held row and never writes into
    one: the split saga's restore after an unanswered adopt lands one
    bundle in two tables."""

    def test_a_row_shared_by_two_tables_is_replaced_never_mutated(self):
        agent = AgentId(5, WIDTH)
        bundle = {"records": {agent: ["n0", 1]}, "loads": {agent: 2}}
        new, old = IAgentState("", LoadStatistics(1.0)), IAgentState("", LoadStatistics(1.0))
        new.adopt(bundle)
        old.adopt(bundle)
        assert new.table["records"][agent] is old.table["records"][agent]
        new.put({"agent": agent, "node": "n1", "seq": 2}, 0.0)
        assert new.table["records"][agent] == ["n1", 2]
        assert old.table["records"][agent] == ["n0", 1]
        assert bundle["records"][agent] == ["n0", 1]

    def test_a_tuple_row_becomes_a_list(self):
        agent = AgentId(5, WIDTH)
        state = IAgentState("", LoadStatistics(1.0))
        _, entry = state.adopt({"records": {agent: ("n0", 1)}})
        assert type(state.table["records"][agent]) is list
        assert entry["records"] == {agent: ["n0", 1]}


class TestHandoffBundles:
    def test_merge_skips_scalars_and_keeps_unknown_keys(self):
        a, b = AgentId(1, WIDTH), AgentId(2, WIDTH)
        bundle = merge_handoffs(
            [
                {"status": OK, "records": {a: ["n0", 0]}, "pending": {a: ["mail"]}},
                {"status": OK, "records": {b: ["n1", 3]}, "pattern": "x1"},
            ]
        )
        assert bundle == {
            "records": {a: ["n0", 0], b: ["n1", 3]},
            "pending": {a: ["mail"]},
        }
        assert merge_handoffs([]) == {"records": {}}

    def test_route_seeds_every_absorber(self):
        tree = HashTree("left", width=WIDTH)
        tree.apply_split(tree.split_candidates("left")[0], "right")
        a, b = AgentId(0b000001, WIDTH), AgentId(0b100001, WIDTH)
        routed = route_handoff(
            tree,
            {"epoch": 7, "records": {a: ["n0", 0]}, "pending": {b: ["mail"]}},
            absorbers=["left", "right", "idle"],
        )
        assert routed == {
            tree.lookup_id(a): {"records": {a: ["n0", 0]}},
            tree.lookup_id(b): {"pending": {b: ["mail"]}},
            "idle": {},
        }


class TestHandOff:
    """``IAgentState.hand_off``: the giving side of a split or merge, one
    bundle per destination, ready to adopt."""

    IDS = [AgentId(value, WIDTH) for value in range(0, 1 << WIDTH, 3)]

    def loaded(self):
        state = IAgentState("", LoadStatistics(1.0))
        for seq, agent in enumerate(self.IDS):
            body = {"agent": agent, "node": f"n{seq % 3}", "seq": seq}
            if seq % 2:
                body["capabilities"] = {"gpu": True}
            state.put(body, 0.0)
        return state

    def test_each_agent_goes_to_the_first_pattern_covering_it(self):
        state = self.loaded()
        patterns = ["x0", "x1", "1"]
        bundles, entry = state.hand_off(None, patterns, 0.0)
        assert entry == {"op": "clear"}
        assert state.table == IAgentState.initial_table()
        held = {}
        for pattern, bundle in zip(patterns, bundles):
            assert bundle["pattern"] == pattern
            assert all(covers(pattern, agent) for agent in bundle["records"])
            assert bundle["loads"] == {agent: 1 for agent in bundle["records"]}
            assert set(bundle["capabilities"]) <= set(bundle["records"])
            held.update(bundle["records"])
        assert bundles[2]["records"] == {}  # "x0" and "x1" came first
        assert set(held) == set(self.IDS)

    def test_a_lone_destination_takes_what_the_extract_displaced(self):
        state = self.loaded()
        (bundle,), entry = state.hand_off("0", ["1"], 0.0)
        assert entry == {"op": "extract", "pattern": "0"}
        assert bundle["pattern"] == "1"
        assert set(bundle["records"]) == {a for a in self.IDS if covers("1", a)}
        assert set(state.table["records"]) == {a for a in self.IDS if covers("0", a)}
        taker = IAgentState(None, LoadStatistics(1.0))
        taker.adopt(bundle)
        assert taker.table["coverage"] == "1"
        assert taker.table["records"] == bundle["records"]


class TestImportHygiene:
    """The core must stay importable without any IO layer."""

    FORBIDDEN = ["asyncio", "repro.service", "repro.storage"]
    SIMULATOR = [
        "repro.platform.simulator",
        "repro.platform.agents",
        "repro.platform.events",
    ]
    SRC = Path(__file__).resolve().parents[2] / "src"
    #: The sans-IO cores: the record table, the hash function, the
    #: coordinator state, the rehash policy + split / merge saga, and
    #: the requester sagas.
    MODULES = (
        "repro.core.iagent_state, repro.core.hash_function, "
        "repro.core.coordinator_state, repro.core.rehashing, repro.core.requester"
    )

    def loaded(self, names):
        script = (
            f"import sys; sys.path.insert(0, {str(self.SRC)!r})\n"
            f"import {self.MODULES}\n"
            f"print([name for name in {names!r} if name in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.strip()

    def test_plain_import_loads_no_io_layer(self):
        assert self.loaded(self.FORBIDDEN + self.SIMULATOR) == "[]"
