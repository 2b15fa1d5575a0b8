"""The coordinator sagas against an in-memory driver: no sockets, no
simulator clock.

``World`` is both halves a saga needs: the *coordinator* (a real
``CoordinatorState`` with its journaled ``HashFunction``, a real
``RehashPolicy``, counters, a log) and the *driver* (one real
``IAgentState`` per leaf and the node it sits on, performing the saga's
requests as plain method calls; a ``hand-off`` as the live driver
performs it, the sources extracting and pushing to the destinations).
The sweep fails every request the saga makes, one per run, three ways
-- the request never arrives; for a hand-off, the sources extract and
every push is lost; or it is performed and the reply is lost -- and
checks after each run what must
hold whichever request failed: for split and merge, for the takeover of
a dead leaf, and for the cross-shard merge across two worlds, where the
buddy's absorb saga runs inside the initiator's commit request and its
requests are failed in the same numbering.

``World.request`` is a third half: a requester driver that steps the
``repro.core.requester`` sagas through a secondary ``HashFunction`` copy
against the same leaves, so the paper's contract -- a locate returns the
agent's current node, or retries through ``not-responsible`` until it
does -- is checked with the rehash suspended after every request.
"""

import random
from collections import Counter
from itertools import islice

import pytest

from repro.core.config import HashMechanismConfig
from repro.core.coordinator_state import CoordinatorState
from repro.core.hash_function import HashFunction
from repro.core.hash_tree import MAX_SIMPLE_M, HashTree
from repro.core.iagent_state import NO_RECORD, NOT_RESPONSIBLE, OK, IAgentState
from repro.core.load import GroupedLoadStatistics, LoadStatistics
from repro.core.rehashing import (
    Refused,
    RehashPolicy,
    merge_saga,
    plan_split,
    shard_absorb_saga,
    shard_merge_saga,
    split_saga,
    takeover_saga,
)
from repro.core.requester import UNREACHABLE, request_saga
from repro.discovery.capability import CAPABILITY_PALETTE
from repro.platform.naming import AgentNamer

WIDTH = 64
RECORDS = 500
MAX_RETRIES = 5


def prefix_of(agent):
    """The shard of ``agent`` out of two: its top id bit."""
    return agent.value >> (WIDTH - 1)


class Tally(Counter):
    """The ``counters`` a requester saga bumps."""

    def bump(self, name, amount=1):
        self[name] += amount


class World:
    """One coordinator and its leaves; ``shard`` makes it that shard of
    two (its agents are the ids with that top bit, ``peers`` the other
    shard's world), for the cross-shard sagas."""

    def __init__(
        self, records=RECORDS, stats=lambda: LoadStatistics(2.0), shard=None, **overrides
    ):
        config = HashMechanismConfig(cooldown=5.0).with_overrides(**overrides)
        self.new_stats = stats
        self.shard = shard or 0
        self.replica_name = f"hagent-s{self.shard}-0"
        self.state = CoordinatorState(self.shard, 1, AgentNamer(seed=0), 64)
        self.function = self.state.function
        self.wal = []
        self.peers = {}
        self.policy = RehashPolicy(config)
        self.splits = self.merges = self.takeovers = 0
        self.xshard_merges = self.xshard_absorbs = self.xshard_aborts = 0
        self._xshard_grant = None
        self.rehash_log = []
        self.clock = 100.0
        self.node_addrs = {f"node-{i}": ("127.0.0.1", i) for i in range(5)}
        self._round_robin = 0
        self.owner_ids = AgentNamer(seed=0x5A6A + self.shard)
        self.leaves, self.placed = {}, {}
        root, _ = self.spawn()
        self.leaves[root].table["coverage"] = ""
        self.function.bootstrap(root, "node-0", WIDTH)
        self.placed[root] = "node-0"
        # The seeded population: records with seqs, every third agent
        # with a capability set; loads are added per scenario.
        ids = AgentNamer(seed=0xA6E27)
        self.agents = [ids.next_id() for _ in range(records)]
        if shard is not None:
            self.agents = [agent for agent in self.agents if prefix_of(agent) == shard]
        for index, agent in enumerate(self.agents):
            body = {"agent": agent, "node": f"node-{index % 5}", "seq": index % 7}
            if index % 3 == 0:
                body["capabilities"] = CAPABILITY_PALETTE[index % 6]
            self.leaves[root].put(body, self.clock)

    # -- the coordinator the saga reads and writes ----------------------

    epoch = property(lambda self: self.state.epoch)
    owned = property(lambda self: self.state.owned)
    map_version = property(lambda self: self.state.map_version)

    def _now(self):
        return self.clock

    def _publish(self, entry):
        return self.function.publish(entry)

    def _log(self, event, **fields):
        self.rehash_log.append({"event": event, **fields})

    def _pick_node(self):
        self._round_robin += 1
        order = list(self.node_addrs)
        return order[self._round_robin % len(order)]

    def _commit(self, entry):
        if entry is not None:
            self.wal.append(entry)

    def apply_shard_release(self, into):
        self._commit(self.state.release_shard(into))

    # -- the driver ------------------------------------------------------

    def spawn(self):
        owner = self.owner_ids.next_id()
        self.leaves[owner] = IAgentState(None, self.new_stats())
        self.placed[owner] = node = f"node-{len(self.leaves) % 5}"
        return owner, node

    def perform(self, kind, *args):
        if kind == "spawn":
            return self.spawn()
        if kind == "retire":
            self.leaves.pop(args[0], None)
            self.placed.pop(args[0], None)
            return None
        if kind in ("shard", "broadcast"):
            shard, op, body = args
            return self.coordinator_op(self.peers[shard], op, body)
        if kind == "hand-off":
            sources, destinations = args
            return self.push(destinations, self.give_up(sources, destinations))
        if kind == "restore":
            owner, node, body = args
            op = "adopt"  # unfenced, which the world does not model
        else:
            owner, node, op, body = args
        if owner == "host":
            assert op == "host-iagent", op
            self.leaves[body["owner"]] = IAgentState(body["pattern"], self.new_stats())
            self.placed[body["owner"]] = node
            return {"status": OK}
        leaf = self.hosted(owner, node)
        if leaf is None:
            return None
        if op == "get-loads":
            return leaf.get_loads(body, self.clock)
        if op == "extract":
            return leaf.extract(body, self.clock)[0]
        if op == "extract-all":
            return leaf.extract_all()[0]
        assert op == "adopt", op
        return leaf.adopt(body)[0]

    def hosted(self, owner, node):
        """The leaf ``owner`` if it lives on ``node``, else ``None``."""
        leaf = self.leaves.get(owner)
        return leaf if leaf is not None and self.placed[owner] == node else None

    def give_up(self, sources, destinations):
        """A hand-off's first half, as the live driver's sources perform
        it: each source extracts (``IAgentState.hand_off``) and splits
        what it gave up by the destinations. Returns the pushes."""
        patterns = [pattern for *_, pattern in destinations]
        return [
            leaf.hand_off(keep, patterns, self.clock)[0]
            for owner, node, keep in sources
            if (leaf := self.hosted(owner, node)) is not None
        ]

    def push(self, destinations, pushes):
        """The second half: every bundle is adopted where it is going,
        then each destination no push reached adopts its bare pattern
        (the coordinator's record-less adopt). The answer, as the live
        driver's: records taken per destination that acknowledged,
        ``None`` if no source answered."""
        took = {}
        for bundles in pushes:
            for (owner, node, _pattern), bundle in zip(destinations, bundles):
                leaf = self.hosted(owner, node)
                if leaf is not None:
                    leaf.adopt(bundle)
                    took[owner] = took.get(owner, 0) + len(bundle["records"])
        for owner, node, pattern in destinations:
            leaf = self.hosted(owner, node)
            if owner not in took and leaf is not None:
                leaf.adopt({"pattern": pattern})
        return took if pushes else None

    def coordinator_op(self, peer, op, body):
        """What another shard's coordinator answers: the prepare's grant,
        the commit (its saga stepped through this run's failures), or
        the release broadcast."""
        if op == "shard-merge-prepare":
            peer._xshard_grant = {
                "from_shard": body["from_shard"],
                "epoch": body["epoch"],
                "buddy_epoch": peer.epoch,
            }
            return {"status": OK, "epoch": peer.epoch, "claimant": peer.replica_name}
        if op == "shard-merge-commit":
            try:
                return self.drive(peer, shard_absorb_saga(peer, body))
            except Refused as refusal:
                return refusal
        assert op == "shard-release", op
        if body["from_shard"] == peer.shard and peer.shard in peer.owned:
            peer.apply_shard_release(body["into"])
        return None

    def number(self):
        """Number one request in this run; whether it is the one to fail."""
        made, self.made = self.made, self.made + 1
        assert made < 100, "a saga that never ends"
        return made == self.fail_at

    def answer(self, performer, request):
        """Request number ``fail_at`` fails -- never performed
        (``lose="request"``) or performed with its reply dropped (any
        other ``lose``: a request that pushes nothing has no push to
        lose)."""
        failing = self.number()
        if failing and self.lose == "request":
            return None
        reply = performer.perform(*request)
        return None if failing else reply

    def handing_off(self, request):
        """A hand-off, with a pause where the live one has a window: the
        sources gave up, nothing is pushed yet. Failing, the sources'
        part is lost before any source extracts (``lose="request"``),
        after the extracts with every push (``"push"``), or after both
        with the reply (``"reply"``); the coordinator's record-less
        adopts still go."""
        _kind, sources, destinations = request
        failing = self.number()
        pushes = []
        if not (failing and self.lose == "request"):
            pushes = self.give_up(sources, destinations)
        yield request
        if failing and self.lose == "push":
            pushes = []
        took = self.push(destinations, pushes)
        return None if failing else took

    def drive(self, performer, saga):
        """Step a saga nested in this run's request; its return value."""
        reply = None
        while True:
            try:
                request = saga.send(reply)
            except StopIteration as done:
                return done.value
            reply = self.answer(performer, request)

    def steps(self, saga, fail_at=None, lose="request"):
        """Step ``saga`` one pause per ``next()`` -- after each request,
        and inside a hand-off (see :meth:`handing_off`) -- failing
        request number ``fail_at`` (see :meth:`answer`); ``result`` is
        what the saga returned."""
        self.made, self.fail_at, self.lose = 0, fail_at, lose
        self.result, reply = None, None
        while True:
            try:
                request = saga.send(reply)
            except StopIteration as done:
                self.result = done.value
                return
            if request[0] == "hand-off":
                reply = yield from self.handing_off(request)
            else:
                reply = self.answer(self, request)
            yield request

    def run(self, saga, fail_at=None, lose="request"):
        """Step ``saga`` to its end; returns the requests made, nested
        ones included."""
        self.clock += 1.0
        for _ in self.steps(saga, fail_at, lose):
            pass
        return self.made

    # -- the requester driver ---------------------------------------------

    def request(self, copy, agent, op, body, tolerate_no_record=False):
        """One requester saga through the secondary ``copy``; returns
        ``(reply, counters, statuses the IAgents answered)``."""
        counters, seen = Tally(), []
        saga = request_saga(
            counters, MAX_RETRIES, agent, op, body, tolerate_no_record
        )
        reply = None
        while True:
            try:
                kind, *args = saga.send(reply)
            except StopIteration as done:
                return done.value, counters, seen
            counters.bump(kind)  # requests made, beside what the saga counts
            if kind == "resolve":
                _agent, stale = args
                if stale is not None and copy.version <= stale:
                    copy.absorb(self.function.delta_since(copy.version))
                owner, node = copy.resolve(agent)
                reply = {"iagent": owner, "node": node, "version": copy.version}
            elif kind == "ask":
                leaf = self.leaves.get(args[0]["iagent"])
                if leaf is None:
                    reply = None  # retired
                elif op == "locate":
                    reply = leaf.locate(body, self.clock)
                else:
                    reply = leaf.put(body, self.clock)[0]
                seen.append(UNREACHABLE if reply is None else reply["status"])
            else:
                assert kind == "pause", kind
                reply = True

    # -- scenario plumbing ----------------------------------------------

    def load(self, agents, hits=3):
        for agent in agents:
            leaf = self.leaves[self.function.tree.lookup_id(agent)]
            for _ in range(hits):
                leaf.stats.record_query(agent, self.clock)

    def snapshot(self):
        """Everything the hand-off must conserve, per agent."""
        records, capabilities, loads = {}, {}, {}
        for leaf in self.leaves.values():
            for agent, record in leaf.table["records"].items():
                assert agent not in records, f"{agent} sits in two leaves"
                records[agent] = list(record)
                loads[agent] = leaf.stats.load_of(agent)
            capabilities.update(leaf.table["capabilities"])
        return records, capabilities, loads

    def primary(self):
        function = self.function
        return function.version, function.tree.to_spec(), len(function.journal)

    def check_invariants(self, before):
        tree, function = self.function.tree, self.function
        patterns = {o: tree.hyper_label(o).pattern() for o in tree.owners()}
        assert set(patterns) == set(function.iagent_nodes)
        # Leaf coverages partition the id space.
        for agent in self.agents:
            covering = [
                owner
                for owner, pattern in patterns.items()
                if IAgentState(pattern, None).covers(agent)
            ]
            assert covering == [tree.lookup_id(agent)]
        # Version, tree and journal moved together or not at all (a
        # ``move`` re-hosts a leaf and leaves the tree as it was).
        version, spec, journaled = self.primary()
        if (version, spec, journaled) != before:
            entry = function.journal[-1]
            assert version == before[0] + 1 and journaled == before[2] + 1
            assert entry["version"] == version
            assert (spec != before[1]) == (entry["op"] != "move")
            replayed = HashFunction(before[0], HashTree.from_spec(before[1]), {})
            replayed.apply(dict(function.journal[-1]))
            assert replayed.tree.to_spec() == spec
        # A record sits in at most one leaf (``snapshot`` asserts it),
        # inside that leaf's own coverage; a leaf that heard of the
        # rehash holds nothing the tree routes elsewhere.
        self.snapshot()
        for owner, leaf in self.leaves.items():
            held = leaf.table["records"]
            assert set(leaf.table["capabilities"]) <= set(held)
            current = leaf.table["coverage"] == patterns.get(owner)
            for agent in held:
                assert leaf.covers(agent)
                if current:
                    assert tree.lookup_id(agent) == owner


def first_bit(agent):
    return agent.bits[0]


def leaf_split():
    """One leaf, evenly loaded: a simple split on bit 1."""
    world = World()
    world.load(world.agents)
    (owner,) = world.function.tree.owners()
    return world, split_saga(world, owner)


def grown(scope):
    """Two leaves under a two-bit label: only the ``0...`` half was
    loaded when the root split, so the planner skipped bit 1."""
    world = World(complex_split_scope=scope, cooldown=0.0)
    world.load([a for a in world.agents if first_bit(a) == "0"])
    (owner,) = world.function.tree.owners()
    world.run(split_saga(world, owner))
    assert world.rehash_log[-1]["bit"] == 2
    return world, owner


def path_split():
    """...then the ``1...`` half heats up: with path scope the planner
    gathers both leaves' loads and promotes bit 1 -- a complex split
    that evicts from both."""
    world, owner = grown("path")
    world.load([a for a in world.agents if first_bit(a) == "1"], hits=6)
    return world, split_saga(world, owner)


def three_leaves():
    world, owner = grown("leaf")
    world.load(world.agents)
    world.run(split_saga(world, owner))
    assert len(world.function.tree) == 3
    return world


def merge_of(kind):
    def scenario():
        world = three_leaves()
        for owner in world.function.tree.owners():
            trial = HashTree.from_spec(world.function.tree.to_spec())
            if trial.apply_merge(owner).kind == kind:
                return world, merge_saga(world, owner)
        raise AssertionError(f"no {kind} merge in {world.function.tree.to_spec()}")

    return scenario


SCENARIOS = {
    "split-leaf": (leaf_split, "split", "simple", 3),
    "split-path": (path_split, "split", "complex", 4),
    "merge-simple": (merge_of("simple"), "merge", "simple", 2),
    "merge-complex": (merge_of("complex"), "merge", "complex", 2),
}


@pytest.mark.parametrize("name", SCENARIOS)
class TestSaga:
    def test_clean_run_conserves_records_loads_and_capabilities(self, name):
        scenario, event, kind, requests = SCENARIOS[name]
        world, saga = scenario()
        held, before = world.snapshot(), world.primary()
        counted = world.splits + world.merges
        assert world.run(saga) == requests
        world.check_invariants(before)
        assert world.snapshot() == held
        assert len(held[0]) == RECORDS and len(held[1]) == (RECORDS + 2) // 3
        assert world.splits + world.merges == counted + 1
        entry = world.rehash_log[-1]
        assert (entry["event"], entry["kind"]) == (event, kind)
        assert entry["moved"] > 0
        tree = world.function.tree
        assert set(world.leaves) == set(tree.owners())
        for owner, leaf in world.leaves.items():
            assert leaf.table["coverage"] == tree.hyper_label(owner).pattern()

    @pytest.mark.parametrize("lose", ["request", "push", "reply"])
    def test_every_failure_point(self, name, lose):
        scenario, _event, _kind, requests = SCENARIOS[name]
        for fail_at in range(requests):
            world, saga = scenario()
            held, before = world.snapshot(), world.primary()
            logged = len(world.rehash_log)
            world.run(saga, fail_at=fail_at, lose=lose)
            world.check_invariants(before)
            records, capabilities, _loads = world.snapshot()
            # Nothing is invented or rolled back: what survives is what
            # was there, record for record.
            assert records.items() <= held[0].items()
            assert capabilities.items() <= held[1].items()
            if world.primary() == before:
                # Abandoned before the publish: nothing moved at all
                # (a lost ``get-loads`` reply changes nothing either).
                assert world.snapshot() == held
                assert len(world.rehash_log) == logged
                # A spawn whose reply was lost leaves an empty leaf the
                # tree never names (live, it retires itself on its first
                # ``stale`` load report).
                for orphan in set(world.leaves) - set(world.function.tree.owners()):
                    assert world.leaves[orphan].table == IAgentState.initial_table()
            else:
                assert len(world.rehash_log) == logged + 1


class TestMovedCountsWhatLanded:
    """``moved`` in the rehash log is what the destinations acknowledged,
    not what the sources gave up."""

    def test_a_split_whose_new_leaf_died_moved_nothing(self):
        world, saga = leaf_split()
        spawn = world.spawn

        def spawn_then_crash():
            owner, node = spawn()
            del world.leaves[owner]
            return owner, node

        world.spawn = spawn_then_crash
        world.run(saga)
        entry = world.rehash_log[-1]
        assert entry["event"] == "split" and entry["moved"] == 0

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_destinations_that_died_after_the_extract_took_nothing(self, name):
        world, saga = SCENARIOS[name][0]()
        give_up = world.give_up

        def give_up_then_crash(sources, destinations):
            pushes = give_up(sources, destinations)
            for owner, _node, _pattern in destinations:
                del world.leaves[owner]
            return pushes

        world.give_up = give_up_then_crash
        world.run(saga)
        assert world.rehash_log[-1]["moved"] == 0

    def test_a_clean_split_moved_what_the_new_leaf_holds(self):
        world, saga = path_split()
        world.run(saga)
        entry = world.rehash_log[-1]
        assert entry["moved"] == len(world.leaves[entry["new_owner"]].table["records"]) > 0


@pytest.mark.parametrize("view", ["stale", "current"])
@pytest.mark.parametrize("name", SCENARIOS)
class TestRequesterContract:
    """The rehash suspended after each of its requests in turn; one
    locate and one update per sampled agent run to completion there,
    each through a copy from before the rehash (``stale``) or of the
    primary as it stands (``current``); then the rehash finishes."""

    def test_every_pause_point(self, name, view):
        scenario, _event, _kind, _requests = SCENARIOS[name]
        bounced = exhausted = 0
        world, saga = scenario()
        pauses = sum(1 for _ in world.steps(saga))
        for pause_after in range(pauses):
            world, saga = scenario()
            before = world.function.bundle()
            sample = world.agents[::25]
            acked = {agent: tuple(world.snapshot()[0][agent]) for agent in sample}

            def probe(agent, op, **body):
                bundle = before if view == "stale" else world.function.bundle()
                reply, counters, seen = world.request(
                    HashFunction.from_bundle(bundle),
                    agent,
                    op,
                    {"agent": agent, **body},
                    tolerate_no_record=op == "locate",
                )
                # The budget bounds the rounds; every bounce (and every
                # vanished leaf) is followed by exactly one refresh.
                assert len(seen) == counters["ask"] <= MAX_RETRIES
                assert counters["resolve"] <= MAX_RETRIES + 1
                unreachable = seen.count(UNREACHABLE)
                assert counters["not_responsible"] == seen.count(NOT_RESPONSIBLE)
                assert counters["refreshes"] == counters["not_responsible"] + unreachable
                assert counters["retries"] == len(seen) - (reply["status"] == OK)
                if op == "locate" and reply["status"] == OK:
                    # Never an older location than the last acknowledged.
                    assert (reply["node"], reply["seq"]) == acked[agent]
                elif reply["status"] == OK:
                    acked[agent] = (body["node"], body["seq"])
                return reply["status"], counters, seen

            stepping = world.steps(saga)
            assert len(list(islice(stepping, pause_after + 1))) == pause_after + 1
            published = world.function.version > before["version"]
            answers, outcomes = [], []
            for agent in sample:
                status, counters, seen = probe(agent, "locate")
                answers += seen
                outcomes.append(status)
                bounced += counters["not_responsible"]
                status, counters, seen = probe(
                    agent, "update", node="node-moved", seq=acked[agent][1] + 1
                )
                answers += seen
                outcomes.append(status)
            rest = list(stepping)
            adopting = any(r[0] == "hand-off" for r in rest)
            if published and adopting:
                # A hand-off in flight: what did not settle ran out of
                # budget bouncing, and said so.
                assert set(outcomes) <= {OK, NOT_RESPONSIBLE}
                exhausted += outcomes.count(NOT_RESPONSIBLE)
            else:
                # Otherwise every operation settled, and no leaf covers
                # an id it has no record of.
                assert set(outcomes) == {OK} and NO_RECORD not in answers
            for agent in sample:
                status, counters, _seen = probe(agent, "locate")
                assert status == OK
                bounced += counters["not_responsible"]
        # The sweep is not vacuous: some requester was bounced, and some
        # update ran out of budget against a hand-off in flight.
        assert exhausted
        assert bounced or view == "current"


class TestPreconditions:
    def test_stale_cooling_or_last_leaf_yields_no_request(self):
        world, _ = leaf_split()
        (owner,) = world.function.tree.owners()
        before = world.primary()
        assert world.run(merge_saga(world, owner)) == 0  # the last leaf
        assert world.run(split_saga(world, world.owner_ids.next_id())) == 0
        world.policy.set_cooldown(owner, world.clock + 1.0)
        assert world.run(split_saga(world, owner)) == 0
        assert world.run(merge_saga(world, owner)) == 0
        assert world.primary() == before and world.rehash_log == []

    def test_nothing_divisible_cools_the_owner_down_before_any_spawn(self):
        world = World(records=1)  # one red-hot agent
        (owner,) = world.function.tree.owners()
        before = world.primary()
        assert world.run(split_saga(world, owner)) == 1  # get-loads only
        assert world.primary() == before and len(world.leaves) == 1
        assert world.policy.cooling(owner, world.clock)


class TestGetLoads:
    """The planning exchange: ``{"bits"}`` out, two sums per bit back."""

    @pytest.mark.parametrize("lose", ["request", "reply"])
    def test_a_lost_get_loads_abandons_with_the_primary_untouched(self, lose):
        world, saga = path_split()
        asks = [r for r in world.steps(saga) if r[3:4] == ("get-loads",)]
        assert len(asks) == 2  # both leaves sit under the broken edge
        for fail_at in range(len(asks)):
            world, saga = path_split()
            held, before, hosted = world.snapshot(), world.primary(), set(world.leaves)
            assert world.run(saga, fail_at=fail_at, lose=lose) == fail_at + 1
            assert world.primary() == before and world.snapshot() == held
            assert set(world.leaves) == hosted  # nothing spawned
            assert world.splits == 1 and len(world.rehash_log) == 1  # ``grown``'s

    def test_asks_each_owner_only_for_the_bits_that_touch_it(self):
        world, saga = path_split()
        first, second = islice(world.steps(saga), 2)
        # Bit 1 is the ancestor edge's skipped bit: it alone re-routes the
        # sibling; the simple candidates below the leaf are local.
        simple = range(3, 3 + MAX_SIMPLE_M)
        assert first[1] == world.rehash_log[-1]["owner"]
        assert first[4] == {"bits": [1, *simple]} and second[4] == {"bits": [1]}

    def test_an_unknown_division_skips_that_candidate_only(self):
        world, saga = path_split()
        owner = world.rehash_log[-1]["owner"]
        perform = world.perform

        def sibling_cannot_tell(kind, *args):
            reply = perform(kind, *args)
            if kind == "call" and args[2] == "get-loads" and args[0] != owner:
                assert reply["divisions"][1] is not None
                reply["divisions"][1] = None
            return reply

        world.perform = sibling_cannot_tell
        before = world.primary()
        world.run(saga)
        world.check_invariants(before)
        # Clean, the same scenario promotes bit 1 (``split-path``): the
        # walk moved on to the first simple candidate instead.
        entry = world.rehash_log[-1]
        assert (entry["kind"], entry["bit"], entry["owner"]) == ("simple", 3, owner)


def dead_leaf():
    """Two leaves; the IAgent the split spawned crashed, its table with
    it. Returns the world, the dead owner and the node it died on."""
    world, saga = leaf_split()
    world.run(saga)
    dead = world.rehash_log[-1]["new_owner"]
    world.leaves.pop(dead)
    return world, dead, world.placed.pop(dead)


class TestTakeoverSaga:
    def test_clean_run_rehosts_the_leaf_then_publishes_one_move(self):
        world, dead, old_node = dead_leaf()
        before, held = world.primary(), world.snapshot()
        pattern = world.function.tree.hyper_label(dead).pattern()
        ((kind, target, node, op, body),) = world.steps(takeover_saga(world, dead))
        assert (kind, target, op) == ("call", "host", "host-iagent")
        assert body == {"owner": dead, "pattern": pattern, "recover": False}
        assert node != old_node
        assert world.result == node == world.function.iagent_nodes[dead] == world.placed[dead]
        assert world.function.journal[-1] == {
            "op": "move",
            "owner": dead,
            "node": node,
            "version": before[0] + 1,
        }
        world.check_invariants(before)
        # Empty, covering exactly the dead leaf's ids: re-registration
        # refills it.
        assert world.leaves[dead].table == {**IAgentState.initial_table(), "coverage": pattern}
        assert world.snapshot() == held
        assert world.takeovers == 1
        assert world.rehash_log[-1] == {
            "event": "takeover",
            "owner": dead,
            "node": node,
            "old_node": old_node,
        }

    @pytest.mark.parametrize("lose", ["request", "reply"])
    def test_every_failure_point(self, lose):
        world, dead, old_node = dead_leaf()
        before, held = world.primary(), world.snapshot()
        # Its one request, the ``host-iagent``, fails.
        assert world.run(takeover_saga(world, dead), fail_at=0, lose=lose) == 1
        # The function is untouched: the tree still names the dead node,
        # so the liveness monitor tries again.
        assert world.primary() == before and world.result is None
        assert world.function.iagent_nodes[dead] == old_node
        assert world.takeovers == 0 and world.rehash_log[-1]["event"] == "split"
        world.check_invariants(before)
        assert world.snapshot() == held
        if lose == "request":
            assert dead not in world.leaves
        else:
            # Hosted where the tree does not name it: the live node
            # retires this orphan, whose load reports are answered stale.
            assert world.placed[dead] != world.function.iagent_nodes[dead]
            assert world.leaves[dead].table["records"] == {}

    def test_a_single_node_rehosts_in_place_from_its_own_disk(self):
        world, dead, old_node = dead_leaf()
        world.node_addrs = {old_node: ("127.0.0.1", 0)}
        ((_kind, _target, node, _op, body),) = world.steps(takeover_saga(world, dead))
        assert node == old_node and body["recover"] is True

    def test_an_owner_the_tree_does_not_name_yields_no_request(self):
        world, _dead, _old_node = dead_leaf()
        before = world.primary()
        assert world.run(takeover_saga(world, world.owner_ids.next_id())) == 0
        assert world.primary() == before and world.result is None


# ----------------------------------------------------------------------
# The cross-shard merge: shard 1 hands its prefix to shard 0


def two_shards():
    """Shard 1 starts handing its prefix to shard 0; each shard's tree
    has grown to two leaves."""
    shards = {shard: World(shard=shard) for shard in (0, 1)}
    for world in shards.values():
        world.peers = shards
        world.load(world.agents)
        (root,) = world.function.tree.owners()
        world.run(split_saga(world, root))
        assert len(world.function.tree) == 2
    return shards, shard_merge_saga(shards[1], 0)


#: prepare, 2 x extract-all, commit -> (proof adopt, 2 x adopt, release
#: broadcast), 2 x retire.
CROSS_SHARD_REQUESTS = 10


def holdings(shards):
    """Every (agent, record) and (agent, capability set) both shards'
    leaves hold, and each agent's covering holders as (shard, owner)."""
    records, capabilities, covering = set(), set(), {}
    for shard, world in shards.items():
        for owner, leaf in world.leaves.items():
            for agent, record in leaf.table["records"].items():
                records.add((agent, tuple(record)))
                if leaf.covers(agent):
                    covering.setdefault(agent, []).append((shard, owner))
            capabilities.update(
                (agent, frozenset(caps)) for agent, caps in leaf.table["capabilities"].items()
            )
    return records, capabilities, covering


def check_two_shards(shards, held):
    """What a cross-shard merge leaves whichever request failed."""
    rows = (shards[0].owned, shards[1].owned)
    # Both shard rows as before or both as after: never both owning the
    # prefix, never neither.
    assert rows in (({0}, {1}), ({0, 1}, set()))
    assert shards[1].state.absorbed_by == (0 if rows[1] == set() else None)
    records, capabilities, covering = holdings(shards)
    # Nothing invented or rolled back.
    assert records <= held[0] and capabilities <= held[1]
    for agent in shards[0].agents + shards[1].agents:
        owners = [shard for shard, world in shards.items() if prefix_of(agent) in world.owned]
        assert len(owners) == 1
        # At most one covering holder, and it serves for the owner.
        holders = covering.get(agent, [])
        assert len(holders) <= 1
        assert all(shard == owners[0] for shard, _owner in holders)


class TestCrossShardSaga:
    def test_clean_run_hands_every_record_to_the_buddy(self):
        shards, saga = two_shards()
        buddy, initiator = shards[0], shards[1]
        held = holdings(shards)
        assert initiator.run(saga) == CROSS_SHARD_REQUESTS
        check_two_shards(shards, held)
        records, capabilities, covering = holdings(shards)
        assert (records, capabilities) == held[:2]
        assert set(covering) == set(initiator.agents + buddy.agents)  # all served
        assert initiator.result == {"status": OK, "into": 0, "moved": len(initiator.agents)}
        assert initiator.owned == set() and buddy.owned == {0, 1}
        assert initiator.leaves == {}  # retired
        assert (initiator.xshard_merges, initiator.xshard_aborts, buddy.xshard_absorbs) == (
            1,
            0,
            1,
        )
        # One durable shard row each; the saga's own release after the
        # buddy's broadcast changed nothing.
        assert initiator.wal == [
            {"op": "shard", "owned": [], "map_version": 2, "absorbed_by": 0}
        ]
        assert buddy.wal == [
            {"op": "shard", "owned": [0, 1], "map_version": 2, "absorbed_by": None}
        ]
        assert initiator.rehash_log[-1] == {
            "event": "xshard-release",
            "into": 0,
            "moved": len(initiator.agents),
        }
        assert buddy.rehash_log[-1] == {
            "event": "xshard-absorb",
            "from_shard": 1,
            "moved": len(initiator.agents),
        }

    @pytest.mark.parametrize("lose", ["request", "reply"])
    def test_every_failure_point(self, lose):
        outcomes = Counter()
        for fail_at in range(CROSS_SHARD_REQUESTS):
            shards, saga = two_shards()
            held = holdings(shards)
            shards[1].run(saga, fail_at=fail_at, lose=lose)
            check_two_shards(shards, held)
            merged = shards[1].owned == set()
            status = shards[1].result["status"]
            assert status == ("ok" if merged else "aborted")
            assert shards[1].xshard_aborts == (not merged)
            assert shards[0].xshard_absorbs == merged
            outcomes[status] += 1
        # Not vacuous: some failure aborted, some was ridden out.
        assert outcomes["ok"] and outcomes["aborted"]

    @pytest.mark.parametrize("lose", ["request", "reply"])
    def test_an_unanswered_commit_is_in_doubt_and_never_restored(self, lose):
        shards, saga = two_shards()
        commit = 1 + len(shards[1].leaves)  # after the prepare and the drain
        requests = list(shards[1].steps(saga, fail_at=commit, lose=lose))
        assert not [r for r in requests if r[0] == "restore"]
        assert shards[1].result["status"] == OK
        commits = [r for r in requests if r[0] == "shard" and r[2] == "shard-merge-commit"]
        # Lost on the way: the same commit is sent again. Lost on the way
        # back: the release the buddy broadcast first completes it.
        assert len(commits) == (2 if lose == "request" else 1)
        assert all(sent == commits[0] for sent in commits)

    def test_a_refused_commit_restores_every_drained_leaf(self):
        shards, saga = two_shards()
        buddy, initiator = shards[0], shards[1]
        held = holdings(shards)
        stepping = initiator.steps(saga)
        assert next(stepping)[2] == "shard-merge-prepare"
        buddy._xshard_grant = None  # the buddy's epoch moved since its grant
        assert [r[0] for r in stepping] == ["call", "call", "shard", "restore", "restore"]
        assert initiator.result["status"] == "aborted"
        assert initiator.result["reason"].startswith("commit refused: stale-epoch")
        check_two_shards(shards, held)
        assert holdings(shards) == held
        tree = initiator.function.tree
        for owner, leaf in initiator.leaves.items():
            assert leaf.table["coverage"] == tree.hyper_label(owner).pattern()

    def test_a_buddy_deposed_mid_absorb_refuses_the_commit(self):
        shards, saga = two_shards()
        buddy, initiator = shards[0], shards[1]
        held = holdings(shards)
        perform = buddy.perform

        def fenced_off(kind, *args):
            if kind == "call" and args[2] == "adopt" and args[3]["records"]:
                buddy._xshard_grant = None  # its node's refusal demoted it
                return None
            return perform(kind, *args)

        buddy.perform = fenced_off
        initiator.run(saga)
        check_two_shards(shards, held)
        assert holdings(shards) == held
        assert initiator.result["reason"].startswith("commit refused: stale-epoch")
        assert buddy.xshard_absorbs == 0 and buddy.owned == {0}

    def test_the_absorb_answers_ok_for_a_prefix_it_already_owns(self):
        shards, saga = two_shards()
        shards[1].run(saga)
        commit = {"from_shard": 1, "epoch": 1, "buddy_epoch": 1, "records": {}}
        reply = shards[0].drive(shards[0], shard_absorb_saga(shards[0], commit))
        assert reply == {"status": OK, "absorbed": 1}
        assert shards[0].xshard_absorbs == 1


def shaped(rng, stats, **overrides):
    """A world whose tree grew by random admissible splits -- simple ones
    with ``m`` up to 3 (multi-bit labels) and complex ones -- every leaf
    holding the records the tree routes to it, unevenly loaded."""
    world = World(records=0, stats=stats, **overrides)
    function = world.function
    for _ in range(rng.randint(0, 7)):
        owner = rng.choice(function.tree.owners())
        tree = function.tree
        reach = tree.consumed_width(owner) + 3  # simple splits with m <= 3
        candidate = rng.choice(
            [
                c
                for c in tree.split_candidates(owner, scope="path")
                if c.kind == "complex" or c.bit_position <= reach
            ]
        )
        new_owner, new_node = world.spawn()
        function.publish(
            {
                "op": "split",
                "kind": candidate.kind,
                "owner": owner,
                "bit": candidate.bit_position,
                "new_owner": new_owner,
                "new_node": new_node,
            }
        )
    for owner, leaf in world.leaves.items():
        leaf.table["coverage"] = function.tree.hyper_label(owner).pattern()
    ids = AgentNamer(seed=rng.getrandbits(32))
    world.agents = [ids.next_id() for _ in range(rng.choice([1, 3, 6, 60, 300, 300]))]
    for agent in world.agents:
        leaf = world.leaves[function.tree.lookup_id(agent)]
        leaf.put({"agent": agent, "node": "node-0"}, world.clock)
        for _ in range(rng.choice([0, 0, 1, 2, 5, 40])):
            leaf.stats.record_query(agent, world.clock)
    return world


@pytest.mark.parametrize(
    "stats",
    [lambda: LoadStatistics(2.0), lambda: GroupedLoadStatistics(2.0, group_depth=5)],
    ids=["per-agent", "grouped"],
)
@pytest.mark.parametrize("complex_on", [True, False], ids=["complex", "simple-only"])
@pytest.mark.parametrize("scope", ["leaf", "path"])
class TestSagaPlansWhatPlanSplitPlans:
    """``split_saga`` sees two sums per asked bit, ``plan_split`` the
    leaves' whole ``{bits: load}`` tables: one walk, one decision."""

    def test_on_random_trees(self, scope, complex_on, stats):
        seen = Counter()
        for seed in range(40):
            rng = random.Random(seed)
            world = shaped(
                rng, stats, complex_split_scope=scope, enable_complex_split=complex_on
            )
            tree = world.function.tree
            tables = {o: leaf.stats.loads() for o, leaf in world.leaves.items()}
            owner = rng.choice(tree.owners())
            if seed % 4:  # mostly the leaf a report would name
                owner = max(tables, key=lambda o: sum(tables[o].values()))
            expected = plan_split(tree, owner, tables, world.policy.config)
            touched = expected and tree.affected_owners(expected.candidate)
            before, hosted = world.primary(), len(world.leaves)

            replies, reply = {}, None
            saga = split_saga(world, owner)
            while True:
                try:
                    request = saga.send(reply)
                except StopIteration:
                    break
                reply = world.perform(*request)
                if request[0] == "call" and request[3] == "get-loads":
                    assert request[1] not in replies  # one snapshot per owner
                    assert set(reply["divisions"]) == set(request[4]["bits"])
                    replies[request[1]] = reply["divisions"]
            assert next(iter(replies)) == owner
            seen["owners asked", len(replies) > 1] += 1

            if expected is None:
                assert world.primary() == before and len(world.leaves) == hosted
                assert world.policy.cooling(owner, world.clock)
                seen["nothing divides"] += 1
                continue
            kind, bit = expected.candidate.kind, expected.candidate.bit_position
            entry = world.rehash_log[-1]
            assert (entry["kind"], entry["bit"], entry["even"]) == (
                kind,
                bit,
                expected.even,
            )
            assert world.function.journal[-1]["bit"] == bit
            sides = [sum(replies[o][bit][side] for o in touched) for side in (0, 1)]
            assert sides == [expected.load_zero_side, expected.load_one_side]
            seen[kind, expected.even] += 1
        # Not vacuous: every outcome of the walk was reached, and other
        # owners are asked exactly when a surviving candidate touches them.
        assert seen["nothing divides"] and seen["simple", True]
        assert seen["simple", False] or seen["complex", False]
        wide = scope == "path" and complex_on
        assert bool(seen["owners asked", True]) == bool(seen["complex", True]) == wide
