"""The one hash function, checked against a brute-force reference.

Every holder of the hash function runs the same
:meth:`HashFunction.apply`. :class:`Replicas` lines the holders up
around one rehash script:

* a **primary** -- the live coordinator's ``_publish`` forward path
  (``HashFunction.publish`` plus the WAL record) with a small journal;
* a **reference** that never sees an entry: it calls
  ``HashTree.apply_split`` / ``apply_merge`` directly with its own
  candidates and keeps the directory in a plain dict;
* **secondaries** that lag by random amounts and catch up through
  ``delta_since`` -> ``absorb`` (the journal holds four entries, so a
  longer lag exercises truncation -> full snapshot);
* a **recovered coordinator** fed the primary's ``{"op": "rehash"}``
  WAL records through ``CoordinatorState.apply``;
* a **relay** -- a live LHAgent's journaled copies, fed by the
  coordinator's own ``get-hash-delta`` reply -- and a **requester**
  whose copy is fed only by what the relay serves on
  (``LHAgentEndpoint._delta_reply``): the one-hop locate's data path.

After every step all of them agree on ``tree.to_spec()``,
``iagent_nodes`` and ``version`` (the relay and the requester, which
lag, with the primary as it was at their version). A hypothesis state
machine drives the script at random; the seeded scripts below are the
same harness on plain inputs (a 24-leaf, 32-bit tree with path-scope
complex splits).
"""

import copy
import random
from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.config import HashMechanismConfig
from repro.core.hash_function import HashFunction, SecondaryCopies
from repro.core.hash_tree import HashTree
from repro.platform.naming import AgentId
from repro.service.coordinator import HAgentServer
from repro.service.routing import ShardRouter
from repro.service.server import LHAgentEndpoint, ServiceConfig

NODES = ["n0", "n1", "n2"]


class Wal(list):
    """The slice of ``DurableStore`` that ``HAgentServer._commit`` uses."""

    should_snapshot = False

    def log(self, op):
        self.append(copy.deepcopy(op))


def journaled(capacity, build):
    """``build()`` with the coordinator's and the LHAgent's journals
    bounded at ``capacity`` instead of ``SYNC_JOURNAL_CAPACITY``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        for module in ("repro.service.coordinator", "repro.service.server"):
            monkeypatch.setattr(f"{module}.SYNC_JOURNAL_CAPACITY", capacity)
        return build()


def coordinator(capacity):
    return journaled(
        capacity, lambda: HAgentServer(ServiceConfig(mechanism=HashMechanismConfig()))
    )


def state_of(function):
    spec = function.tree.to_spec() if function.tree is not None else None
    return spec, function.iagent_nodes, function.version


class Replicas:
    def __init__(self, width=6, capacity=4, secondaries=3):
        self.width = width
        self.server = coordinator(capacity)
        self.server.store = self.wal = Wal()
        self.primary = self.server.function
        first = self.server.namer.next_id()
        self.primary.bootstrap(first, NODES[0], width)
        self.tree = HashTree(first, width=width)  # the reference
        self.nodes = {first: NODES[0]}
        self.version = 1
        self.secondaries = [
            HashFunction.from_bundle(self.primary.bundle()) for _ in range(secondaries)
        ]
        # Recovery = the post-bootstrap snapshot + the WAL suffix.
        self.recovered = coordinator(capacity)
        self.recovered.function.install(self.primary.bundle())
        self.recovered.namer.state = self.server.namer.state
        self.replayed = 0
        self.entries = []
        #: version -> the reference's state when the primary was there.
        self.history = {1: (self.tree.to_spec(), dict(self.nodes), 1)}
        # The one-hop data path: primary -> relay (an LHAgent, its copy
        # journaled with the same capacity) -> requester.
        self.server.state.register_node("n0", "10.0.0.1", 7)
        node = SimpleNamespace(config=self.server.config, router=ShardRouter())
        self.relay = journaled(capacity, lambda: LHAgentEndpoint(node))
        self.requester = SecondaryCopies()
        self.relay_sync()
        self.requester_sync()

    # -- the rehash script ---------------------------------------------------

    def owner(self, selector):
        owners = self.tree.owners()
        return owners[selector % len(owners)]

    def split(self, owner_selector, candidate_selector, node):
        owner = self.owner(owner_selector)
        reach = self.tree.consumed_width(owner) + 2  # simple splits with m <= 2
        candidates = [
            c
            for c in self.tree.split_candidates(owner, scope="path")
            if c.kind == "complex" or c.bit_position <= reach
        ]
        if not candidates:
            return False
        candidate = candidates[candidate_selector % len(candidates)]
        new_owner = self.server.namer.next_id()
        expected = self.tree.apply_split(candidate, new_owner)
        self.nodes[new_owner] = node
        outcome = self.publish(
            {
                "op": "split",
                "kind": candidate.kind,
                "owner": owner,
                "bit": candidate.bit_position,
                "new_owner": new_owner,
                "new_node": node,
            }
        )
        assert outcome.affected_owners == expected.affected_owners
        return True

    def merge(self, owner_selector):
        owner = self.owner(owner_selector)
        expected = self.tree.apply_merge(owner)
        del self.nodes[owner]
        outcome = self.publish({"op": "merge", "owner": owner})
        assert (outcome.kind, outcome.absorbers) == (expected.kind, expected.absorbers)

    def move(self, owner_selector, node):
        owner = self.owner(owner_selector)
        self.nodes[owner] = node
        assert self.publish({"op": "move", "owner": owner, "node": node}) is None

    def publish(self, op):
        self.version += 1
        outcome = self.server._publish(op)
        self.entries.append(op)
        self.history[self.version] = (self.tree.to_spec(), dict(self.nodes), self.version)
        return outcome

    def relay_sync(self):
        """The relay's refresh, answered as the live coordinator does."""
        held = self.relay.held
        body = held.request(0)
        assert held.absorb(0, self.server._for_lhagent(self.server._copy_reply(body)))
        assert state_of(held.copies[0]) == self.history[self.version]
        return body

    def requester_sync(self):
        """A requester's pull, answered by the relay from what it holds
        (never by the primary); the mode the relay had to use."""
        before = self.requester.copies.get(0)
        since = before.version if before is not None else None
        reply = self.relay._delta_reply(self.requester.request(0))
        assert self.requester.absorb(0, reply)
        relayed = self.relay.copy
        assert state_of(self.requester.copies[0]) == self.history[relayed.version]
        assert self.requester.node_addrs == {"n0": ("10.0.0.1", 7)}
        journal = relayed.journal
        covered = since == relayed.version or (
            len(journal) > 0 and since is not None and journal[0]["version"] <= since + 1
        )
        assert reply["mode"] == ("delta" if covered else "full")
        return reply["mode"]

    def sync(self, index):
        """One refresh of a lagging secondary; the mode it had to use."""
        secondary = self.secondaries[index]
        since = secondary.version
        mode = secondary.absorb(self.primary.delta_since(since))
        journal = self.primary.journal
        covered = since == self.version or (
            len(journal) > 0 and journal[0]["version"] <= since + 1
        )
        assert mode == ("delta" if covered else "full")
        return mode

    # -- what must hold after every step -------------------------------------

    def check(self):
        expected = (self.tree.to_spec(), self.nodes, self.version)
        assert state_of(self.primary) == expected
        assert [entry["version"] for entry in self.primary.journal] == [
            entry["version"] for entry in self.entries
        ][-self.primary.journal.maxlen :]
        for record in self.wal[self.replayed :]:
            assert record.keys() == {"op", "entry", "namer"} and record["op"] == "rehash"
            self.recovered.state.apply(record)
        self.replayed = len(self.wal)
        assert state_of(self.recovered.function) == expected
        assert self.recovered.namer.state == self.server.namer.state
        assert list(self.recovered.journal) == list(self.primary.journal)
        for secondary in self.secondaries:
            # From whatever lag it is at, one refresh away from the
            # primary -- checked on a clone so the lag keeps growing.
            clone = HashFunction.from_bundle(secondary.bundle())
            clone.absorb(self.primary.delta_since(clone.version))
            assert state_of(clone) == expected
        # The lagging pair are each exactly some past primary.
        for lagging in (self.relay.copy, self.requester.copies[0]):
            assert state_of(lagging) == self.history[lagging.version]
        assert self.requester.copies[0].version <= self.relay.copy.version <= self.version

    def check_lookups_at(self, function):
        """``function`` resolves every id as the primary at its version did."""
        past = HashTree.from_spec(self.history[function.version][0])
        for value in range(1 << self.width):
            bits = format(value, f"0{self.width}b")
            assert function.tree.lookup(bits) == past.lookup(bits)

    def check_lookups(self, function, stride=1):
        for value in range(0, 1 << self.width, stride):
            bits = format(value, f"0{self.width}b")
            assert function.tree.lookup(bits) == self.tree.lookup(bits)


class HashFunctionReplicas(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.replicas = Replicas()

    @rule(owner=st.integers(0, 99), candidate=st.integers(0, 99), node=st.sampled_from(NODES))
    def split(self, owner, candidate, node):
        self.replicas.split(owner, candidate, node)

    @precondition(lambda self: len(self.replicas.tree) > 1)
    @rule(owner=st.integers(0, 99))
    def merge(self, owner):
        self.replicas.merge(owner)

    @rule(owner=st.integers(0, 99), node=st.sampled_from(NODES))
    def move(self, owner, node):
        self.replicas.move(owner, node)

    @rule(index=st.integers(0, 2))
    def refresh(self, index):
        replicas = self.replicas
        replicas.sync(index)
        # In-place replay must also have dropped the compiled lookup table.
        replicas.check_lookups(replicas.secondaries[index])

    @rule()
    def relay_refresh(self):
        self.replicas.relay_sync()

    @rule()
    def requester_pull(self):
        """Whatever the two lags -- beyond the relay's journal, or right
        after the relay installed a snapshot and so holds no journal --
        one pull leaves the requester where the relay is."""
        replicas = self.replicas
        replicas.requester_sync()
        replicas.check_lookups_at(replicas.requester.copies[0])

    @precondition(lambda self: self.replicas.entries)
    @rule(selector=st.integers(0, 99), index=st.integers(0, 2))
    def redeliver(self, selector, index):
        """An already-seen entry is a no-op wherever it lands again."""
        replicas = self.replicas
        entry = replicas.entries[selector % len(replicas.entries)]
        for function in (replicas.primary, replicas.recovered.function):
            before = copy.deepcopy(state_of(function)), list(function.journal)
            assert function.apply(entry) is None
            assert (state_of(function), list(function.journal)) == before
        secondary = replicas.secondaries[index]
        if entry["version"] <= secondary.version:
            before = copy.deepcopy(state_of(secondary))
            assert secondary.apply(entry) is None
            assert state_of(secondary) == before

    @invariant()
    def every_holder_agrees(self):
        self.replicas.check()


HashFunctionReplicas.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestHashFunctionReplicas = HashFunctionReplicas.TestCase


@pytest.mark.parametrize("seed", [3, 11])
def test_seeded_script_delta_refresh_is_bit_identical_to_full(seed):
    """Grow to 24 leaves, let one secondary fall six mixed ops behind:
    its delta refresh equals a fresh snapshot, lookups included, and
    delivering the same ops again changes nothing."""
    rng = random.Random(seed)
    replicas = Replicas(width=32, capacity=16, secondaries=1)
    while len(replicas.tree) < 24:
        replicas.split(rng.randrange(100), 0, rng.choice(NODES))
    assert replicas.sync(0) == "full"  # 23 splits behind a 16-entry journal
    gap = len(replicas.entries)
    for step in range(6):
        if step % 3 == 2:  # mix merges into the gap
            replicas.merge(rng.randrange(100))
        else:
            replicas.split(rng.randrange(100), rng.randrange(100), rng.choice(NODES))
    replicas.check()
    (via_delta,) = replicas.secondaries
    assert replicas.sync(0) == "delta"
    via_full = HashFunction.from_bundle(replicas.primary.bundle())
    assert state_of(via_delta) == state_of(via_full)
    replicas.check_lookups(via_delta, stride=(1 << 32) // 512)
    via_delta.apply_ops(replicas.entries[gap:])  # duplicate delivery
    assert state_of(via_delta) == state_of(via_full)


class TestAbsorb:
    def primary(self):
        replicas = Replicas(secondaries=1)
        replicas.split(0, 0, "n1")
        replicas.split(1, 0, "n2")
        return replicas

    def test_unreplayable_delta_degrades_to_the_snapshot(self):
        """A delta naming an owner the copy never had must not wedge the
        holder: the copy empties itself, so its next request is answered
        with the snapshot instead of the same failing delta."""
        replicas = self.primary()
        (copy_,) = replicas.secondaries
        since = copy_.version
        bad = {"op": "merge", "owner": "never-seen", "version": since + 1}
        reply = {"version": since + 1, "mode": "delta", "ops": [bad]}
        assert copy_.absorb(reply) == "resync"
        assert copy_.tree is None and copy_.version < 0
        fetched = replicas.primary.delta_since(copy_.version)
        assert fetched["mode"] == "full"
        assert copy_.absorb(fetched) == "full"
        assert state_of(copy_) == state_of(replicas.primary)

    def test_full_install_never_steps_backwards(self):
        replicas = self.primary()
        (copy_,) = replicas.secondaries
        slow = replicas.primary.delta_since(None)  # a snapshot, still in flight
        replicas.move(0, "n2")
        replicas.sync(0)
        newest = copy.deepcopy(state_of(copy_))
        assert copy_.absorb(slow) == "full"
        assert state_of(copy_) == newest
        # ...unless the sender's numbering restarted (a new epoch).
        copy_.absorb(slow, rebase=True)
        assert copy_.version == slow["version"] < newest[2]

    def test_snapshot_for_a_holder_from_another_numbering(self):
        replicas = self.primary()
        reply = replicas.primary.delta_since(None)
        assert reply["mode"] == "full" and reply["version"] == replicas.version
        assert replicas.primary.delta_since(replicas.version)["ops"] == []


class TestRelayedCopies:
    """The requester's copy is fed by the relay's journal alone."""

    def test_a_requester_beyond_the_relays_journal_gets_the_snapshot(self):
        replicas = Replicas(secondaries=0)
        for step in range(6):  # the relay follows every op; its journal holds four
            replicas.move(step, NODES[step % 3])
            replicas.relay_sync()
        assert replicas.requester_sync() == "full"
        replicas.split(0, 0, "n1")
        replicas.relay_sync()
        assert replicas.requester_sync() == "delta"
        replicas.check()

    def test_a_relay_that_just_installed_a_snapshot_serves_one(self):
        replicas = Replicas(secondaries=0)
        replicas.split(0, 0, "n1")
        replicas.relay_sync()
        assert replicas.requester_sync() == "delta"
        for step in range(6):  # past the primary's journal
            replicas.move(step, NODES[step % 3])
        assert replicas.relay_sync()["since"] == 2
        assert len(replicas.relay.copy.journal) == 0
        assert replicas.requester_sync() == "full"
        assert replicas.requester_sync() == "delta"  # level: nothing to send
        replicas.check()


class TestSecondaryCopies:
    """The holder rules: versions count within one origin only."""

    def reply(self, replicas, since, **origin):
        reply = replicas.primary.delta_since(since)
        reply.update(origin, node_addrs={"n1": ["10.0.0.2", 9]})
        return reply

    def held(self):
        replicas = Replicas(secondaries=0)
        held = SecondaryCopies()
        assert held.request(4) == {"since": -1, "epoch": None, "shard": 4}
        assert held.resolve(4, None) is None
        assert held.absorb(4, self.reply(replicas, None, shard=4, epoch=1))
        assert held.request(4) == {"since": 1, "epoch": 1, "shard": 4}
        return replicas, held

    def test_a_delta_from_the_same_origin_is_replayed_and_carries_the_book(self):
        replicas, held = self.held()
        replicas.split(0, 0, "n1")
        reply = self.reply(replicas, 1, shard=4, epoch=1)
        reply["node_addrs"]["n2"] = ["10.0.0.3", 9]
        assert reply["mode"] == "delta" and held.absorb(4, reply)
        assert state_of(held.copies[4]) == state_of(replicas.primary)
        assert held.node_addrs["n2"] == ("10.0.0.3", 9)

    @pytest.mark.parametrize("origin", [{"shard": 4, "epoch": 2}, {"shard": 5, "epoch": 1}])
    def test_another_origins_delta_is_refused_and_its_snapshot_installed(self, origin):
        replicas, held = self.held()
        replicas.split(0, 0, "n1")
        replicas.split(1, 0, "n2")
        held.absorb(4, self.reply(replicas, 1, shard=4, epoch=1))
        # Another origin, numbering below: an empty delta "since 3" says
        # nothing about this copy, which is dropped...
        other = Replicas(secondaries=0)
        assert not held.absorb(4, self.reply(other, 3, **origin))
        assert 4 not in held.copies and held.request(4)["epoch"] is None
        # ...and its snapshot is installed although it is numbered lower.
        held = self.held()[1]
        held.absorb(4, self.reply(replicas, 1, shard=4, epoch=1))
        assert held.absorb(4, self.reply(other, None, **origin))
        assert state_of(held.copies[4]) == state_of(other.primary)
        assert held.origins[4] == (origin["shard"], origin["epoch"])
        assert held.request(4)["since"] == 1

    def test_a_slow_snapshot_from_the_same_origin_never_steps_backwards(self):
        replicas, held = self.held()
        slow = self.reply(replicas, None, shard=4, epoch=1)
        replicas.move(0, "n2")
        held.absorb(4, self.reply(replicas, 1, shard=4, epoch=1))
        assert held.absorb(4, slow)
        assert state_of(held.copies[4]) == state_of(replicas.primary)

    def test_resolve_joins_the_copy_and_the_book(self):
        replicas, held = self.held()
        replicas.move(0, "n1")
        held.absorb(4, self.reply(replicas, 1, shard=4, epoch=1))
        (owner,) = replicas.tree.owners()
        agent = AgentId(0, replicas.width)
        assert held.resolve(4, agent) == {
            "iagent": owner,
            "node": "n1",
            "addr": ["10.0.0.2", 9],
            "version": 2,
        }
