"""The one coordinator state, reached four ways.

A live op, WAL replay, a snapshot and a standby tailing ``replica-sync``
must all produce the same :class:`CoordinatorState`, and
``CoordinatorState.apply`` is the only code that steps it:

* :class:`Recovery` drives a live state through every builder at random
  and keeps a *shadow* that is rebuilt, at arbitrary points, from the
  ``bundle()`` of some earlier step plus the entries journaled since --
  after every step ``shadow.bundle() == live.bundle()``;
* :class:`Standby` lets a standby ``absorb`` ``delta_since`` +
  ``context()`` replies taken at arbitrary steps (across an epoch
  mismatch, a truncated journal, an un-replayable delta) and rebuilds a
  replica from **only** what a driver would have on disk: the entries
  ``absorb`` returned, and a snapshot where it said the function was
  replaced -- the replica equals the standby;
* the compatibility tests recover a ``data_dir`` the parent commit (PR
  23) wrote and compare the WAL record values of one scripted scenario
  with the list the parent wrote for the same script.
"""

import asyncio
import copy
import json
import shutil
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.coordinator_state import CoordinatorState
from repro.platform.jsonable import from_jsonable
from repro.platform.naming import AgentNamer
from repro.service.coordinator import HAgentServer
from repro.service.server import ServiceConfig

from tests.conftest import in_running_loop

WIDTH = 6
CAPACITY = 4
NODES = ["n0", "n1", "n2"]

selectors = st.integers(0, 99)
node_names = st.sampled_from(NODES)
ports = st.integers(7000, 7002)
shards = st.integers(0, 3)


def fresh(epoch=0, seed=1):
    return CoordinatorState(0, epoch, AgentNamer(seed=seed, width=WIDTH), CAPACITY)


def frozen(state):
    """``bundle()`` detached from the live object."""
    return copy.deepcopy(state.bundle())


class Scripted(RuleBasedStateMachine):
    """The builders of one live (primary) state, as rules. ``commit``
    is the driver's half: journal what a builder returned."""

    def __init__(self):
        super().__init__()
        self.live = fresh(epoch=1)
        self.journal = []
        self.high_water = (self.live.epoch, self.live.map_version)

    def commit(self, build, *args):
        before = frozen(self.live)
        entry = build(*args)
        if entry is None:
            assert self.live.bundle() == before
        else:
            self.journal.append(copy.deepcopy(entry))
        return entry

    def owner(self, selector):
        owners = self.live.function.tree.owners()
        return owners[selector % len(owners)]

    bootstrapped = precondition(lambda self: self.live.function.tree is not None)

    @rule(name=node_names, port=ports)
    def register_node(self, name, port):
        known = self.live.node_addrs.get(name)
        entry = self.commit(self.live.register_node, name, "10.0.0.1", port)
        assert (entry is None) == (known == ("10.0.0.1", port))

    @rule(node=node_names)
    def bootstrap(self, node):
        if self.live.function.tree is not None:
            assert self.commit(self.live.bootstrap, "never-hosted", node) is None
        else:
            self.commit(self.live.bootstrap, self.live.namer.next_id(), node)

    @bootstrapped
    @rule(owner=selectors, candidate=selectors, node=node_names)
    def split(self, owner, candidate, node):
        owner = self.owner(owner)
        tree = self.live.function.tree
        reach = tree.consumed_width(owner) + 2  # simple splits with m <= 2
        candidates = [
            c
            for c in tree.split_candidates(owner, scope="path")
            if c.kind == "complex" or c.bit_position <= reach
        ]
        if not candidates:
            return
        chosen = candidates[candidate % len(candidates)]
        self.publish(
            {
                "op": "split",
                "kind": chosen.kind,
                "owner": owner,
                "bit": chosen.bit_position,
                "new_owner": self.live.namer.next_id(),
                "new_node": node,
            }
        )

    @precondition(lambda self: len(self.live.function.tree or ()) > 1)
    @rule(owner=selectors)
    def merge(self, owner):
        self.publish({"op": "merge", "owner": self.owner(owner)})

    @bootstrapped
    @rule(owner=selectors, node=node_names)
    def move(self, owner, node):
        self.publish({"op": "move", "owner": self.owner(owner), "node": node})

    def publish(self, op):
        version, epoch = self.live.function.version, self.live.epoch
        entry, _ = self.live.publish(op)
        assert entry["entry"]["version"] == version + 1 == self.live.function.version
        assert entry["entry"]["epoch"] == epoch
        self.journal.append(copy.deepcopy(entry))

    @rule(epoch=st.integers(0, 12))
    def witness_epoch(self, epoch):
        news = epoch > self.live.epoch
        assert (self.commit(self.live.raise_epoch, epoch) is not None) == news

    @rule()
    def claim_epoch(self):
        claimed = self.live.epoch + 1
        assert self.commit(self.live.raise_epoch, claimed) == {"op": "epoch", "epoch": claimed}

    @rule(shard=shards)
    def absorb_shard(self, shard):
        news = shard not in self.live.owned
        assert (self.commit(self.live.absorb_shard, shard) is not None) == news

    @rule(into=shards)
    def release_shard(self, into):
        self.commit(self.live.release_shard, into)
        assert (self.live.owned, self.live.absorbed_by) == (set(), into)

    @invariant()
    def fencing_tokens_never_decrease(self):
        now = (self.live.epoch, self.live.map_version)
        assert now[0] >= self.high_water[0] and now[1] >= self.high_water[1]
        self.high_water = now


class Recovery(Scripted):
    def __init__(self):
        super().__init__()
        #: (bundle at that step, journal length at that step)
        self.checkpoints = [(frozen(self.live), 0)]
        self.shadow, self.replayed = fresh(epoch=1), 0

    @rule()
    def checkpoint(self):
        self.checkpoints.append((frozen(self.live), len(self.journal)))

    @rule(selector=selectors)
    def recover(self, selector):
        """Snapshot recovery from an arbitrary earlier step; the boot
        values of the recovering replica must not show through."""
        snapshot, self.replayed = self.checkpoints[selector % len(self.checkpoints)]
        self.shadow = fresh(epoch=0, seed=99)
        self.shadow.install(copy.deepcopy(snapshot))

    @precondition(lambda self: self.journal)
    @rule(selector=selectors)
    def redeliver(self, selector):
        """A WAL suffix may overlap the snapshot it follows (a standby's
        snapshot can fall due halfway through one reply's entries):
        replaying it over the state it led to changes nothing."""
        suffix = self.journal[selector % len(self.journal) :]
        if any(entry["op"] == "bootstrap" for entry in suffix):
            return  # a version bump with no version of its own to gate on
        before = frozen(self.live)
        for entry in suffix:
            self.live.apply(copy.deepcopy(entry))
        assert self.live.bundle() == before

    @invariant()
    def replay_rebuilds_the_live_state(self):
        for entry in self.journal[self.replayed :]:
            self.shadow.apply(copy.deepcopy(entry))
        self.replayed = len(self.journal)
        assert self.shadow.bundle() == self.live.bundle()
        assert list(self.shadow.node_addrs) == list(self.live.node_addrs)


TestRecovery = Recovery.TestCase
TestRecovery.settings = settings(max_examples=200, stateful_step_count=25, deadline=None)


class Standby(Scripted):
    def __init__(self):
        super().__init__()
        self.standby = fresh()
        #: What the standby's driver has on disk.
        self.snapshot, self.wal = None, []

    def absorb(self, reply):
        mode, entries = self.standby.absorb(copy.deepcopy(reply))
        self.wal.extend(copy.deepcopy(entries))
        if mode != "delta":
            self.snapshot, self.wal = frozen(self.standby), []
        return mode

    @rule()
    def sync(self):
        primary, standby = self.live, self.standby
        comparable = standby.epoch == primary.epoch
        since, journal = standby.function.version, primary.function.journal
        expect_delta = comparable and (
            since == primary.function.version
            or (len(journal) > 0 and journal[0]["version"] <= since + 1)
        )
        reply = primary.function.delta_since(since if comparable else None)
        reply.update(primary.context())
        assert self.absorb(reply) == ("delta" if expect_delta else "full")
        caught_up, held = primary.bundle(), standby.bundle()
        for state in (caught_up, held):
            # A full install restarts the journal; the standby may have
            # heard of an epoch the primary has not.
            del state["journal"], state["epoch"]
        assert held == caught_up and standby.epoch >= primary.epoch
        assert list(standby.node_addrs) == list(primary.node_addrs)

    @rule(epoch=st.integers(0, 12))
    def standby_hears_an_announcement(self, epoch):
        entry = self.standby.raise_epoch(epoch)
        if entry is not None:
            self.wal.append(entry)

    @precondition(lambda self: self.standby.function.tree is not None)
    @rule()
    def unreplayable_delta(self):
        """A delta that does not fit empties the copy, so the next pull
        draws the snapshot instead of the same failing delta."""
        version = self.standby.function.version + 1
        bad = {"op": "merge", "owner": "never-seen", "version": version}
        reply = {"version": version, "mode": "delta", "ops": [bad]}
        reply.update(self.standby.context())
        assert self.absorb(reply) == "resync"
        assert self.standby.function.tree is None and self.standby.function.version < 0

    @invariant()
    def disk_rebuilds_the_standby(self):
        replica = fresh()
        if self.snapshot is not None:
            replica.install(copy.deepcopy(self.snapshot))
        for entry in self.wal:
            replica.apply(copy.deepcopy(entry))
        assert replica.bundle() == self.standby.bundle()


TestStandby = Standby.TestCase
TestStandby.settings = settings(max_examples=200, stateful_step_count=25, deadline=None)


class TestOlderSnapshots:
    """``install`` keeps the boot values a pre-replication (no
    ``epoch``) or pre-sharding (no ``owned``) snapshot does not carry."""

    def test_missing_epoch_and_shard_row_keep_the_boot_ones(self):
        old = fresh(epoch=1)
        old.register_node("n0", "10.0.0.1", 7000)
        old.bootstrap(old.namer.next_id(), "n0")
        snapshot = frozen(old)
        for key in ("epoch", "owned", "map_version", "absorbed_by", "node_order"):
            del snapshot[key]
        recovered = CoordinatorState(3, 7, AgentNamer(seed=99, width=WIDTH), CAPACITY)
        recovered.install(snapshot)
        assert (recovered.epoch, recovered.owned, recovered.map_version) == (7, {3}, 1)
        assert recovered.function.bundle() == old.function.bundle()
        assert recovered.node_addrs == old.node_addrs
        assert recovered.namer.state == old.namer.state


# ----------------------------------------------------------------------
# Compatibility with what the parent commit wrote
# ----------------------------------------------------------------------

FIXTURE = Path(__file__).resolve().parents[1] / "service" / "data" / "coordinator-pr23"


def parent_wrote():
    """``{"state", "wal_values"}`` as an older commit recorded them beside
    the ``data_dir`` it wrote for :func:`scripted_coordinator` (in format
    1; the fixture holds the same files, LSNs and values in format 2)."""
    return from_jsonable(json.loads((FIXTURE / "expected.json").read_text()))


async def scripted_coordinator(data_dir):
    """2 register-node, bootstrap, split, move, epoch claim, shard
    release, move -- through the driver's own methods, the fenced sender
    stubbed out; snapshots every 4 records, then dies without a final
    one. Returns the WAL record values it wrote and its last state."""
    config = ServiceConfig(data_dir=str(data_dir), snapshot_every=4, fsync="always")
    server = HAgentServer(config, shards=2)
    logged = []
    log = server.store.log

    def record(value):
        logged.append(copy.deepcopy(value))
        return log(value)

    server.store.log = record

    async def reached(*args, **kwargs):
        return {"status": "ok"}

    server._rpc_node = server._announce_primary = reached
    for port, name in enumerate(["node-0", "node-1"], start=7000):
        server._op_register_node({"name": name, "host": "127.0.0.1", "port": port})
    owner = (await server._op_bootstrap({}))["owner"]
    server._publish(
        {
            "op": "split",
            "kind": "simple",
            "owner": owner,
            "bit": 1,
            "new_owner": server.namer.next_id(),
            "new_node": "node-0",
        }
    )
    server._publish({"op": "move", "owner": owner, "node": "node-0"})
    server.role = "standby"
    await server._promote()
    server.apply_shard_release(1)
    server._publish({"op": "move", "owner": owner, "node": "node-1"})
    state = frozen(server.state)
    await server.kill()
    return logged, state


class TestParentCompatibility:
    @in_running_loop
    def test_a_data_dir_the_parent_wrote_recovers_to_the_state_it_recorded(self, tmp_path):
        # Recovery folds the WAL into a fresh snapshot: work on a copy.
        shutil.copytree(FIXTURE / "data_dir", tmp_path / "data_dir")
        server = HAgentServer(ServiceConfig(data_dir=str(tmp_path / "data_dir")), shards=2)
        server._recover_from_disk()
        server.store.close()
        assert server.wal_replayed == 2  # the snapshot at 6, then shard + rehash
        expected = parent_wrote()["state"]
        assert server.state.bundle() == expected
        assert list(server.node_addrs) == server.node_order == expected["node_order"]
        assert (server.epoch, server.owned, server.absorbed_by) == (2, set(), 1)

    def test_the_same_script_writes_the_wal_values_the_parent_wrote(self, tmp_path):
        logged, state = asyncio.run(scripted_coordinator(tmp_path))
        expected = parent_wrote()
        assert logged == expected["wal_values"]
        assert [record["op"] for record in logged] == [
            "register-node",
            "register-node",
            "bootstrap",
            "rehash",
            "rehash",
            "epoch",
            "shard",
            "rehash",
        ]
        assert state == expected["state"]

    def test_the_parent_reads_what_this_commit_writes(self, tmp_path):
        """Readable both ways: every key a parent reader takes from a
        snapshot or a ``replica-sync`` reply is still written."""
        _, state = asyncio.run(scripted_coordinator(tmp_path))
        assert state.keys() == parent_wrote()["state"].keys()
        assert fresh().context().keys() == {
            "epoch",
            "namer",
            "node_addrs",
            "node_order",
            "owned",
            "map_version",
            "absorbed_by",
        }
