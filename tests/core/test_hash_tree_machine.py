"""A hypothesis state machine over one small hash tree.

The id space is 8 bits, so after every split and merge each of the 256
ids is looked up and checked against a brute-force owner map the machine
keeps by the paper's rules alone (§4.1-§4.2), not by the tree's:

* a simple split on bit ``p`` hands the split owner's ids with a 1 there
  to the new owner;
* a complex split promotes a skipped bit ``p``: every id routed through
  the broken edge (the ids of the owners below it) whose bit ``p``
  differs from the bit the label stores there goes to the new owner;
* a merge hands each of the merged owner's ids to whoever owned that id
  with the leaf's valid bit flipped -- the sibling leaf (simple merge),
  or the sibling subtree's routing once that bit is skipped (complex).

Alongside, the tree's own invariants hold and its spec round-trips.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.hash_tree import HashTree

WIDTH = 8
IDS = range(1 << WIDTH)


def bit(agent, position):
    """Bit ``position`` (1-based, MSB first) of an 8-bit id."""
    return agent >> (WIDTH - position) & 1


class HashTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tree = HashTree(0, width=WIDTH)
        self.owner_of = dict.fromkeys(IDS, 0)
        self.next_owner = 1

    def owner(self, agent):
        """An owner picked by an id it serves: wide regions come up more."""
        return self.owner_of[agent]

    def split(self, candidate, moves):
        """Apply ``candidate`` and hand every id ``moves`` accepts to the
        new owner in the model."""
        new_owner, self.next_owner = self.next_owner, self.next_owner + 1
        moved = [agent for agent in IDS if moves(agent)]
        self.tree.apply_split(candidate, new_owner)
        for agent in moved:
            self.owner_of[agent] = new_owner
        assert moved  # the new leaf serves at least one id

    @rule(agent=st.sampled_from(IDS), pick=st.integers(0, 63))
    def simple_split(self, agent, pick):
        owner = self.owner(agent)
        candidates = [c for c in self.tree.split_candidates(owner) if c.kind == "simple"]
        if not candidates:  # the leaf already consumes every id bit
            return
        candidate = candidates[pick % len(candidates)]
        position = candidate.bit_position
        self.split(
            candidate,
            lambda other: self.owner_of[other] == owner and bit(other, position) == 1,
        )

    @rule(
        agent=st.sampled_from(IDS),
        pick=st.integers(0, 63),
        scope=st.sampled_from(["leaf", "path"]),
    )
    def complex_split(self, agent, pick, scope):
        owner = self.owner(agent)
        candidates = [
            c for c in self.tree.split_candidates(owner, scope=scope) if c.kind == "complex"
        ]
        if not candidates:  # no skipped bit on the (leaf's or whole) path
            return
        candidate = candidates[pick % len(candidates)]
        position = candidate.bit_position
        # The bit the label stores at that position: ids carrying it stay.
        stored = int(candidate._node.label[candidate._index])
        below = set(self.tree.affected_owners(candidate))
        assert candidate.local == (below == {owner})
        self.split(
            candidate,
            lambda other: self.owner_of[other] in below and bit(other, position) != stored,
        )

    @precondition(lambda self: len(self.tree) > 1)
    @rule(agent=st.sampled_from(IDS))
    def merge(self, agent):
        self.merge_owner(self.owner(agent))

    def merge_owner(self, owner):
        position, _ = self.tree.hyper_label(owner).valid_positions()[-1]
        flip = 1 << (WIDTH - position)
        absorbed = {
            agent: self.owner_of[agent ^ flip]
            for agent in IDS
            if self.owner_of[agent] == owner
        }
        outcome = self.tree.apply_merge(owner)
        assert set(absorbed.values()) <= set(outcome.absorbers)
        self.owner_of.update(absorbed)

    @precondition(lambda self: len(self.tree) >= 8)
    @rule()
    def merge_every_leaf(self):
        """Merging leaves until none is left to merge ends in one leaf
        that serves every id, however the tree was grown."""
        while len(self.tree) > 1:
            self.merge_owner(self.owner(0))
            self.check_model()
        (survivor,) = self.tree.owners()
        assert set(self.owner_of.values()) == {survivor}
        spec = self.tree.to_spec()
        assert spec[:2] == ("tree", WIDTH) and spec[3][0] == "leaf"

    @invariant()
    def check_model(self):
        tree = self.tree
        assert [tree.lookup_id((agent, WIDTH)) for agent in IDS] == [
            self.owner_of[agent] for agent in IDS
        ]
        assert sorted(tree.owners()) == sorted(set(self.owner_of.values()))

    @invariant()
    def structure_holds(self):
        self.tree.check_invariants()

    @invariant()
    def spec_round_trips(self):
        spec = self.tree.to_spec()
        rebuilt = HashTree.from_spec(spec)
        assert rebuilt.to_spec() == spec
        assert [rebuilt.lookup_id((agent, WIDTH)) for agent in IDS] == [
            self.owner_of[agent] for agent in IDS
        ]


HashTreeMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestHashTreeMachine = HashTreeMachine.TestCase
