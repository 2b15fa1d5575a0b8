"""Correctness of the compiled lookup path (hypothesis).

``HashTree.lookup_id`` walks lazily compiled dispatch arrays on the id's
integer, and ``lookup`` is its string edge (hash_tree.py, "Compiled
lookups"). These tests prove the fast path is *unobservable*: against
arbitrary interleavings of splits and merges, probing between every
mutation (so the compiled arrays are hot when the next mutation lands),
the integer walk, the string edge and the naive paper-§3 traversal done
directly over the node pointers always agree.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.hash_tree import HashTree
from repro.core.iagent_state import compile_coverage
from repro.platform.naming import AgentId

WIDTH = 16

ids_strategy = st.integers(min_value=0, max_value=(1 << WIDTH) - 1).map(
    lambda value: format(value, f"0{WIDTH}b")
)

op_strategy = st.tuples(
    st.sampled_from(["split-simple", "split-complex", "merge"]),
    st.integers(min_value=0, max_value=10_000),  # owner selector
    st.integers(min_value=1, max_value=4),  # candidate selector
)

PROBES = [(value, format(value, f"0{WIDTH}b")) for value in range(0, 1 << WIDTH, 521)]


def naive_lookup(tree, bits):
    """The paper's §3 traversal, straight over the node pointers.

    Follows valid bits and skips the extra bits of multi-bit labels by
    position arithmetic -- no caches, no compiled arrays.
    """
    node = tree._root
    consumed = len(node.label)
    while not node.is_leaf:
        node = node.right if bits[consumed] == "1" else node.left
        consumed += len(node.label)
    return node.owner


def apply_one(tree, op, counter):
    """Apply one fuzz op; invalid ops are skipped (same as the fuzzer
    in test_tree_properties)."""
    kind, owner_selector, selector = op
    owners = sorted(tree.owners())
    owner = owners[owner_selector % len(owners)]
    if kind == "merge":
        if len(tree) > 1:
            tree.apply_merge(owner)
        return
    scope = "path" if kind == "split-complex" else "leaf"
    wanted = "complex" if kind == "split-complex" else "simple"
    candidates = [
        c for c in tree.split_candidates(owner, scope=scope) if c.kind == wanted
    ]
    if candidates:
        tree.apply_split(candidates[selector % len(candidates)], next(counter))


def probe_all(tree):
    """The integer walk, the string edge and the naive traversal agree."""
    for value, bits in PROBES:
        owner = naive_lookup(tree, bits)
        assert tree.lookup_id(AgentId(value, WIDTH)) == tree.lookup(bits) == owner


@settings(max_examples=80, deadline=None)
@given(script=st.lists(op_strategy, min_size=0, max_size=20))
def test_compiled_lookup_matches_naive_traversal(script):
    """Probe between every mutation so stale caches would be caught."""
    tree = HashTree(0, width=WIDTH)
    counter = itertools.count(1)
    probe_all(tree)
    for op in script:
        # The compiled arrays are warm when the mutation lands, which
        # must invalidate them.
        apply_one(tree, op, counter)
        probe_all(tree)
        spec = tree.to_spec()
        assert HashTree.from_spec(spec).to_spec() == spec


@settings(max_examples=80, deadline=None)
@given(
    script=st.lists(op_strategy, min_size=0, max_size=20),
    ids=st.lists(ids_strategy, min_size=1, max_size=20),
)
def test_coverage_matches_hyper_label(script, ids):
    """The coverage read off a leaf's path is its hyper-label's pattern
    (on a clone too), and the owner a lookup names covers the id by
    both the pattern the IAgent compiles and the paper's rule."""
    tree = HashTree(0, width=WIDTH)
    counter = itertools.count(1)
    for op in script:
        apply_one(tree, op, counter)
        clone = HashTree.from_spec(tree.to_spec())
        for owner in tree.owners():
            pattern = tree.coverage(owner)
            assert pattern == tree.hyper_label(owner).pattern() == clone.coverage(owner)
            assert tree.consumed_width(owner) == len(pattern)
        for bits in ids:
            owner = tree.lookup(bits)
            assert tree.covers(owner, bits)
            assert compile_coverage(tree.coverage(owner))((int(bits, 2), WIDTH))


def test_version_bumps_and_memo_invalidation():
    tree = HashTree(0, width=WIDTH)
    assert tree.version == 0
    probe = "0" * WIDTH
    assert tree.lookup(probe) == 0

    candidate = tree.split_candidates(0)[0]
    tree.apply_split(candidate, 1)
    assert tree.version == 1
    assert tree._compiled is None

    tree.lookup(probe)
    assert tree._compiled is not None
    tree.apply_merge(1)
    assert tree.version == 2
    assert tree._compiled is None
    assert tree.lookup(probe) == 0
