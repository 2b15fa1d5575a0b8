"""Executable reconstructions of the paper's Figures 1-6.

The OCR of the paper lost the figures' bit labels, so these tests
rebuild each figure's *operation* -- the structural transformation the
surrounding text describes -- and assert the properties the text states.
They double as documentation of our reading of the split/merge rules
(DESIGN.md §4).
"""

import pytest

from repro.core.hash_tree import HashTree


def pad(bits, width=16):
    return bits + "0" * (width - len(bits))


def grow_figure1_tree():
    """A seven-leaf tree in the spirit of Figure 1 (IA0..IA6).

    Built by successive splits, it contains both shallow and deep
    leaves and at least one multi-bit label, like the figure.
    """
    tree = HashTree("IA0", width=16)

    def simple(owner, m, new):
        candidate = next(
            c
            for c in tree.split_candidates(owner)
            if c.kind == "simple" and c.bit_position == tree.consumed_width(owner) + m
        )
        tree.apply_split(candidate, new)

    simple("IA0", 1, "IA1")   # bit 1
    simple("IA0", 1, "IA2")   # bit 2 under the 0-side
    simple("IA1", 2, "IA3")   # bit 3 under the 1-side, skipping bit 2
    simple("IA2", 1, "IA4")
    simple("IA3", 1, "IA5")
    simple("IA5", 1, "IA6")
    tree.check_invariants()
    return tree


class TestFigure1HashTree:
    def test_seven_iagents(self):
        tree = grow_figure1_tree()
        assert len(tree) == 7
        assert set(tree.owners()) == {f"IA{i}" for i in range(7)}

    def test_hyper_labels_use_dot_notation(self):
        tree = grow_figure1_tree()
        # At least one leaf has a multi-bit label in its hyper-label.
        labels = [str(tree.hyper_label(owner)) for owner in tree.owners()]
        assert any("." in label for label in labels)
        assert all(set(label) <= set("01.~") for label in labels)

    def test_every_id_maps_to_exactly_one_leaf(self):
        tree = grow_figure1_tree()
        for value in range(256):
            bits = pad(format(value, "08b"))
            owner = tree.lookup(bits)
            matching = [o for o in tree.owners() if tree.covers(o, bits)]
            assert matching == [owner]


class TestFigure2Compatibility:
    """Figure 2: compatibility between a prefix and a hyper-label."""

    def test_prefix_compatible_iff_valid_bits_match(self):
        tree = grow_figure1_tree()
        for owner in tree.owners():
            hyper = tree.hyper_label(owner)
            pattern = hyper.pattern()
            # Build a compatible prefix: copy constrained bits, fill
            # wildcards arbitrarily with 1s.
            compatible_bits = pad(
                "".join(bit if bit != "x" else "1" for bit in pattern)
            )
            assert hyper.matches(compatible_bits)
            if any(bit != "x" for bit in pattern):
                # Flip one valid bit: no longer compatible.
                position = next(
                    i for i, bit in enumerate(pattern) if bit != "x"
                )
                flipped = (
                    compatible_bits[:position]
                    + ("1" if pattern[position] == "0" else "0")
                    + compatible_bits[position + 1 :]
                )
                assert not hyper.matches(flipped)


class TestFigure3SimpleSplit:
    """Figure 3: simple split of IA3 creates IA7 as its sibling."""

    def test_split_adds_sibling_under_old_position(self):
        tree = grow_figure1_tree()
        before_width = tree.consumed_width("IA3")
        candidate = next(
            c for c in tree.split_candidates("IA3") if c.kind == "simple"
        )
        outcome = tree.apply_split(candidate, "IA7")
        tree.check_invariants()
        assert outcome.affected_owners == ["IA3"]
        # Both leaves sit one level deeper than IA3 did.
        assert tree.consumed_width("IA3") == before_width + 1
        assert tree.consumed_width("IA7") == before_width + 1

    def test_only_ia3_agents_affected(self):
        """The paper's locality claim for simple split."""
        tree = grow_figure1_tree()
        before = {
            pad(format(value, "08b")): tree.lookup(pad(format(value, "08b")))
            for value in range(256)
        }
        candidate = next(
            c for c in tree.split_candidates("IA3") if c.kind == "simple"
        )
        tree.apply_split(candidate, "IA7")
        for bits, owner in before.items():
            after = tree.lookup(bits)
            if owner == "IA3":
                assert after in ("IA3", "IA7")
            else:
                assert after == owner


class TestFigure4ComplexSplit:
    """Figure 4: complex split uses an unused bit of a multi-bit label."""

    def test_complex_split_does_not_deepen_consumed_prefix(self):
        tree = grow_figure1_tree()
        # IA3 was split with m=2, so its subtree label has a skipped bit.
        candidate = next(
            (
                c
                for c in tree.split_candidates("IA3", scope="path")
                if c.kind == "complex"
            ),
            None,
        )
        assert candidate is not None, "figure tree must offer a complex split"
        affected = tree.affected_owners(candidate)
        consumed_before = {
            owner: tree.consumed_width(owner) for owner in tree.owners()
        }
        tree.apply_split(candidate, "IA8")
        tree.check_invariants()
        # Unlike simple split, no affected leaf consumes MORE bits.
        for owner in affected:
            assert tree.consumed_width(owner) <= consumed_before[owner]

    def test_unaffected_owners_keep_their_agents(self):
        tree = grow_figure1_tree()
        candidate = next(
            c
            for c in tree.split_candidates("IA3", scope="path")
            if c.kind == "complex"
        )
        affected = set(tree.affected_owners(candidate))
        before = {
            pad(format(value, "08b")): tree.lookup(pad(format(value, "08b")))
            for value in range(256)
        }
        tree.apply_split(candidate, "IA8")
        for bits, owner in before.items():
            if owner not in affected:
                assert tree.lookup(bits) == owner


class TestFigure5SimpleMerge:
    """Figure 5: IA6 merges into its leaf sibling IA5."""

    def test_merged_leaf_absorbed_by_sibling(self):
        tree = grow_figure1_tree()
        before = {
            pad(format(value, "08b")): tree.lookup(pad(format(value, "08b")))
            for value in range(256)
        }
        outcome = tree.apply_merge("IA6")
        tree.check_invariants()
        assert outcome.kind == "simple"
        assert outcome.absorbers == ["IA5"]
        for bits, owner in before.items():
            expected = "IA5" if owner == "IA6" else owner
            assert tree.lookup(bits) == expected


class TestFigure6ComplexMerge:
    """Figure 6: IA0 merges into the IAgents of its sibling subtree."""

    def test_merged_coverage_spread_over_subtree(self):
        tree = grow_figure1_tree()
        # IA1-side: find a leaf whose sibling is internal.
        target = next(
            owner
            for owner in tree.owners()
            if not tree._leaf(owner).sibling().is_leaf
        )
        before = {
            pad(format(value, "08b")): tree.lookup(pad(format(value, "08b")))
            for value in range(256)
        }
        outcome = tree.apply_merge(target)
        tree.check_invariants()
        assert outcome.kind == "complex"
        assert len(outcome.absorbers) >= 2
        for bits, owner in before.items():
            after = tree.lookup(bits)
            if owner == target:
                assert after in outcome.absorbers
            else:
                # Paper: subtree IAgents keep their own agents.
                assert after == owner

    def test_merging_may_reduce_height(self):
        """§4.2: 'Merging may lead to reducing the height of the hash
        tree' -- the spliced labels keep consumed width constant, but
        the node count shrinks by two per merge."""
        tree = grow_figure1_tree()
        owners_before = len(tree)
        target = next(
            owner
            for owner in tree.owners()
            if not tree._leaf(owner).sibling().is_leaf
        )
        tree.apply_merge(target)
        assert len(tree) == owners_before - 1
