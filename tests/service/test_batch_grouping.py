"""A batch's grouping, pinned against the per-agent resolve it replaced.

``ServiceClient._group_by_iagent`` reads each owner straight off the held
copy's tree and builds one mapping per copy and owner. The reference
below is the grouping it replaced, kept here: one ``SecondaryCopies.resolve``
(a mapping dict and an address list) per agent. Both run on the same
held copies -- 1, 2 or 4 shards, copies naming the same IAgents, a
shard with no copy yet (the pull),
a shard whose pull fails, an IAgent on a node with no address, and
agents named more than once -- and must hand ``_batch`` the same groups
and pull the same shards.
"""

import asyncio
import copy

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.hash_function import HashFunction
from repro.core.hash_tree import HashTree
from repro.platform.naming import AgentId, AgentNamer
from repro.service.client import ServiceClient, ServiceRpcError
from repro.service.routing import shard_of

ADDRS = {"n0": ["127.0.0.1", 7001], "n1": ["127.0.0.1", 7002]}
#: Where the IAgents live: "ghost" is in no copy's address book.
NODES = ["n0", "n1", "ghost"]


async def reference_groups(client, agents, deadline):
    """The grouping before: one ``held.resolve`` per agent."""
    held = client._held
    groups = {}
    named = {}
    served = True
    for index, agent in enumerate(agents):
        mapping = None
        if served:
            mapping = held.resolve(shard_of(agent, client._shards), agent)
            if mapping is None:
                mapping = await client._whois(agent, deadline)
                served = mapping is not None
        key = None
        if mapping is not None and mapping["addr"] is not None:
            repeat = named[agent] = named.get(agent, -1) + 1
            key = (tuple(mapping["addr"]), mapping["iagent"], repeat)
        groups.setdefault(key, (mapping, []))[1].append(index)
    return list(groups.values())


class _LHAgent:
    """A node's LHAgent as the client sees it: answers a pull with the
    asked shard's snapshot, or fails it for a dark shard."""

    def __init__(self, replies, dark):
        self.replies = replies
        self.dark = dark
        self.pulls = []

    async def call(self, addr, to, op, body=None, timeout=None, hedge=None):
        assert (to, op) == ("lhagent", "get-hash-delta")
        self.pulls.append(body["shard"])
        if body["shard"] in self.dark:
            raise ServiceRpcError("dark shard")
        return copy.deepcopy(self.replies[body["shard"]])

    async def close(self):
        pass


def shard_function(shards, shard, splits, homes, seed):
    """Shard ``shard``'s function: a tree grown by ``splits`` simple
    splits, its IAgents spread over ``homes``."""
    namer = AgentNamer(seed=seed)
    tree = HashTree(namer.next_id())
    for split in range(splits):
        owners = sorted(tree.owners())
        owner = owners[split % len(owners)]
        candidate = [c for c in tree.split_candidates(owner) if c.kind == "simple"][0]
        tree.apply_split(candidate, namer.next_id())
    nodes = {owner: homes[index % len(homes)] for index, owner in enumerate(sorted(tree.owners()))}
    reply = HashFunction(3 + shard, tree, nodes).bundle()
    reply.update(mode="full", shard=shard, epoch=1, shards=shards, node_addrs=ADDRS)
    return reply


@st.composite
def worlds(draw):
    shards = draw(st.sampled_from([1, 2, 4]))
    # One seed for every shard names the same IAgents in each copy (as
    # two shards' copies of one function do after a cross-shard merge),
    # each copy at its own version.
    seed = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)))
    replies = {
        shard: shard_function(
            shards,
            shard,
            draw(st.integers(min_value=0, max_value=6)),
            draw(st.lists(st.sampled_from(NODES), min_size=1, max_size=3)),
            seed if seed is not None else draw(st.integers(min_value=0, max_value=2**16)),
        )
        for shard in range(shards)
    }
    held = draw(st.sets(st.sampled_from(range(shards))))
    missing = sorted(set(range(shards)) - held)
    dark = draw(st.sets(st.sampled_from(missing))) if missing else set()
    # The top two bits drawn on their own: every shard gets agents.
    pool = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 2**62 - 1)).map(
                lambda parts: AgentId(parts[0] << 62 | parts[1])
            ),
            min_size=1,
            max_size=24,
            unique=True,
        )
    )
    agents = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    return shards, replies, held, dark, agents


def client_holding(shards, replies, held, dark):
    lhagent = _LHAgent(replies, dark)
    client = ServiceClient("probe", ("127.0.0.1", 7000), channel=lhagent)
    for shard in sorted(held):
        assert client._held.absorb(shard, copy.deepcopy(replies[shard]))
    if held:
        client._shards = shards
    return client, lhagent


#: Two shards' copies naming one IAgent on different nodes: a mapping
#: is per copy and owner, never per owner alone.
ONE_OWNER_TWO_COPIES = (
    2,
    {0: shard_function(2, 0, 0, ["n0"], 5), 1: shard_function(2, 1, 0, ["n1"], 5)},
    {0, 1},
    set(),
    [AgentId(1), AgentId(2**63 + 1), AgentId(2)],
)


#: No copy held: the first pull states the shard count the ids after it
#: are keyed by.
NO_COPY_YET = (
    2,
    {0: shard_function(2, 0, 0, ["n0"], 5), 1: shard_function(2, 1, 0, ["n1"], 6)},
    set(),
    set(),
    [AgentId(1), AgentId(2**63 + 1), AgentId(2)],
)


@given(worlds())
@example(ONE_OWNER_TWO_COPIES)
@example(NO_COPY_YET)
@settings(max_examples=200, deadline=None)
def test_grouping_equals_the_per_agent_resolve(world):
    shards, replies, held, dark, agents = world

    async def both():
        deadline = asyncio.get_running_loop().time() + 5.0
        old, old_lhagent = client_holding(shards, replies, held, dark)
        new, new_lhagent = client_holding(shards, replies, held, dark)
        expected = await reference_groups(old, agents, deadline)
        got = await new._group_by_iagent(agents, deadline)
        return expected, got, old_lhagent.pulls, new_lhagent.pulls

    expected, got, old_pulls, new_pulls = asyncio.run(both())
    assert got == expected
    assert new_pulls == old_pulls
    assert sorted(index for _, indices in got for index in indices) == list(range(len(agents)))


def test_the_cases_come_up():
    """The grouping test's worlds reach every case it names."""
    seen = set()

    @given(worlds())
    @settings(max_examples=200, deadline=None)
    def probe(world):
        shards, replies, held, dark, agents = world
        seen.add(("shards", shards))
        if len(set(agents)) < len(agents):
            seen.add("repeat")
        if dark:
            seen.add("failed pull")
        if len(held) < shards and set(range(shards)) - held - dark:
            seen.add("pull")
        if any("ghost" in reply["iagent_nodes"].values() for reply in replies.values()):
            seen.add("no address")

    probe()
    assert seen >= {
        ("shards", 1), ("shards", 2), ("shards", 4),
        "repeat", "failed pull", "pull", "no address",
    }
