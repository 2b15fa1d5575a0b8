"""A split has one name, ``(owner, kind, bit)`` (hypothesis).

The planner splits a tree with a candidate from ``split_candidates``;
every other holder of the function applies the journal entry that
records the same split through ``HashFunction.apply``. Both resolve the
split from the bit position on their own tree, so over any script of
splits and merges -- root-skip complex splits included -- the two trees
stay byte-identical, and a complex candidate kept while the tree
changes under it either no longer fits or still splits on its bit.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import SplitFailedError
from repro.core.hash_function import HashFunction
from repro.core.hash_tree import HashTree

WIDTH = 8

#: (what, owner selector, candidate selector); a split with no candidate
#: of its kind, or a merge of the last leaf, is skipped.
op_strategy = st.tuples(
    st.sampled_from(["simple", "complex", "merge"]),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
)


def pick_candidate(tree, op):
    """The split candidate ``op`` names, or None (a merge, or none left)."""
    what, owner_selector, selector = op
    if what == "merge":
        return None
    owners = tree.owners()
    owner = owners[owner_selector % len(owners)]
    candidates = [c for c in tree.split_candidates(owner, scope="path") if c.kind == what]
    return candidates[selector % len(candidates)] if candidates else None


def step(tree, op, counter):
    """Apply ``op`` to ``tree``; the journal entry recording it, or None."""
    candidate = pick_candidate(tree, op)
    if candidate is not None:
        new_owner = next(counter)
        tree.apply_split(candidate, new_owner)
        return {
            "op": "split",
            "kind": candidate.kind,
            "owner": candidate.owner,
            "bit": candidate.bit_position,
            "new_owner": new_owner,
            "new_node": "node-0",
        }
    if op[0] == "merge" and len(tree) > 1:
        owners = tree.owners()
        owner = owners[op[1] % len(owners)]
        tree.apply_merge(owner)
        return {"op": "merge", "owner": owner}
    return None


@settings(max_examples=150, deadline=None)
# m = 3 pads the root's label with two skipped bits; promote the first.
@example(script=[("simple", 0, 2), ("complex", 0, 0), ("merge", 1, 0)])
@given(script=st.lists(op_strategy, max_size=25))
def test_planned_split_and_journal_replay_agree(script):
    tree = HashTree(0, width=WIDTH)
    copy = HashFunction(0, HashTree.from_spec(tree.to_spec()), {0: "node-0"})
    counter = itertools.count(1)
    for op in script:
        entry = step(tree, op, counter)
        if entry is None:
            continue
        entry["version"] = copy.version + 1
        copy.apply(entry)
        assert copy.tree.to_spec() == tree.to_spec()
        tree.check_invariants()


@settings(max_examples=150, deadline=None)
@example(script=[("simple", 0, 2)], held=(0, 0), other=("complex", 0, 1))
@example(script=[("simple", 0, 2)], held=(0, 1), other=("complex", 0, 0))
@given(
    script=st.lists(op_strategy, max_size=15),
    held=st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
    other=op_strategy.filter(lambda op: op[0] != "merge"),
)
def test_held_complex_candidate_fails_or_splits_on_its_bit(script, held, other):
    tree = HashTree(0, width=WIDTH)
    counter = itertools.count(1)
    for op in script:
        step(tree, op, counter)
    candidate = pick_candidate(tree, ("complex",) + held)
    if candidate is None:
        return
    step(tree, other, counter)  # another split lands first
    new_owner = next(counter)
    try:
        tree.apply_split(candidate, new_owner)
    except SplitFailedError:
        return
    tree.check_invariants()
    position = candidate.bit_position
    valid_positions = tree.hyper_label(new_owner).valid_positions()
    assert valid_positions[-1][0] == position
    pattern = tree.coverage(new_owner)
    assert pattern[position - 1] in "01" and set(pattern[position:]) <= {"x"}
