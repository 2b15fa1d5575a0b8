"""Property-based tests of the hash tree (hypothesis).

The central invariants of paper §3-§4, checked over thousands of random
operation sequences:

* totality + uniqueness: every id maps to exactly one leaf, and that
  leaf's hyper-label is compatible with the id;
* structural invariants survive any split/merge sequence;
* locality: a rehash changes the mapping only for ids previously owned
  by the involved IAgents;
* serialization: ``from_spec(to_spec())`` is the identity.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.hash_tree import HashTree

WIDTH = 16


def pad(bits, width=WIDTH):
    return bits + "0" * (width - len(bits))


ids_strategy = st.integers(min_value=0, max_value=(1 << WIDTH) - 1).map(
    lambda value: format(value, f"0{WIDTH}b")
)

# An operation script: each element drives one mutation attempt.
op_strategy = st.tuples(
    st.sampled_from(["split-simple", "split-complex", "merge"]),
    st.integers(min_value=0, max_value=10_000),  # owner selector
    st.integers(min_value=1, max_value=4),  # m / candidate selector
)


def apply_script(script):
    """Build a tree by applying a random operation script.

    Invalid operations (no candidates, last owner, width exhausted) are
    skipped -- the script is a fuzzer, not a strict program.
    """
    tree = HashTree(0, width=WIDTH)
    counter = itertools.count(1)
    for kind, owner_selector, selector in script:
        owners = sorted(tree.owners())
        owner = owners[owner_selector % len(owners)]
        if kind == "merge":
            if len(tree) > 1:
                tree.apply_merge(owner)
            continue
        scope = "path" if kind == "split-complex" else "leaf"
        wanted = "complex" if kind == "split-complex" else "simple"
        candidates = [
            c for c in tree.split_candidates(owner, scope=scope) if c.kind == wanted
        ]
        if not candidates:
            continue
        tree.apply_split(candidates[selector % len(candidates)], next(counter))
    return tree


@settings(max_examples=120, deadline=None)
@given(script=st.lists(op_strategy, min_size=0, max_size=25))
def test_invariants_hold_after_any_script(script):
    tree = apply_script(script)
    tree.check_invariants()


@settings(max_examples=60, deadline=None)
@given(
    script=st.lists(op_strategy, min_size=0, max_size=20),
    ids=st.lists(ids_strategy, min_size=1, max_size=30),
)
def test_lookup_total_and_compatible(script, ids):
    tree = apply_script(script)
    for bits in ids:
        owner = tree.lookup(bits)
        assert tree.has_owner(owner)
        assert tree.hyper_label(owner).matches(bits)


@settings(max_examples=40, deadline=None)
@given(script=st.lists(op_strategy, min_size=0, max_size=15))
def test_leaves_partition_the_id_space(script):
    """Exactly one hyper-label is compatible with any id."""
    tree = apply_script(script)
    probe_values = range(0, 1 << WIDTH, 1299)  # a spread of probes
    for value in probe_values:
        bits = format(value, f"0{WIDTH}b")
        matches = [
            owner for owner in tree.owners() if tree.covers(owner, bits)
        ]
        assert len(matches) == 1
        assert matches[0] == tree.lookup(bits)


@settings(max_examples=60, deadline=None)
@given(
    script=st.lists(op_strategy, min_size=0, max_size=15),
    op=op_strategy,
)
def test_rehash_locality(script, op):
    """One more operation only re-routes ids of the involved owners."""
    tree = apply_script(script)
    probes = [format(value, f"0{WIDTH}b") for value in range(0, 1 << WIDTH, 797)]
    before = {bits: tree.lookup(bits) for bits in probes}

    kind, owner_selector, selector = op
    owners = sorted(tree.owners())
    owner = owners[owner_selector % len(owners)]

    if kind == "merge":
        if len(tree) == 1:
            return
        outcome = tree.apply_merge(owner)
        involved = {owner}
        allowed_targets = set(outcome.absorbers)
        for bits, old_owner in before.items():
            new_owner = tree.lookup(bits)
            if old_owner in involved:
                assert new_owner in allowed_targets
            else:
                assert new_owner == old_owner
        return

    scope = "path" if kind == "split-complex" else "leaf"
    wanted = "complex" if kind == "split-complex" else "simple"
    candidates = [
        c for c in tree.split_candidates(owner, scope=scope) if c.kind == wanted
    ]
    if not candidates:
        return
    candidate = candidates[selector % len(candidates)]
    involved = set(tree.affected_owners(candidate))
    tree.apply_split(candidate, "fresh-owner")
    for bits, old_owner in before.items():
        new_owner = tree.lookup(bits)
        if old_owner in involved:
            assert new_owner in involved | {"fresh-owner"}
        else:
            assert new_owner == old_owner


@settings(max_examples=60, deadline=None)
@given(script=st.lists(op_strategy, min_size=0, max_size=20))
def test_spec_round_trip_identity(script):
    tree = apply_script(script)
    clone = HashTree.from_spec(tree.to_spec())
    clone.check_invariants()
    assert clone.render() == tree.render()
    for value in range(0, 1 << WIDTH, 1021):
        bits = format(value, f"0{WIDTH}b")
        assert clone.lookup(bits) == tree.lookup(bits)


@settings(max_examples=60, deadline=None)
@given(
    script=st.lists(op_strategy, min_size=1, max_size=20),
    ids=st.lists(ids_strategy, min_size=5, max_size=40, unique=True),
)
def test_owner_count_matches_structure(script, ids):
    tree = apply_script(script)
    assert len(tree.owners()) == len(tree)
    # Splitting increases the count by one, merging decreases by one --
    # verified implicitly by invariants; here check distribution sanity:
    buckets = {owner: 0 for owner in tree.owners()}
    for bits in ids:
        buckets[tree.lookup(bits)] += 1
    assert sum(buckets.values()) == len(ids)
