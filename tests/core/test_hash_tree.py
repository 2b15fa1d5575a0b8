"""Unit tests for the extendible hash tree."""

import pytest

from repro.core.errors import LastIAgentError, SplitFailedError
from repro.core.hash_tree import HashTree, TreeInvariantError


def pad(bits, width=16):
    return bits + "0" * (width - len(bits))


def fresh_tree(width=16):
    return HashTree("IA0", width=width)


def simple_candidate(tree, owner, m=1):
    for candidate in tree.split_candidates(owner):
        if candidate.kind == "simple" and candidate.bit_position == tree.consumed_width(owner) + m:
            return candidate
    raise AssertionError(f"no simple candidate with m={m}")


class TestFreshTree:
    def test_single_leaf_covers_everything(self):
        tree = fresh_tree()
        assert tree.lookup(pad("0101")) == "IA0"
        assert tree.lookup(pad("1111")) == "IA0"
        assert tree.owners() == ["IA0"]
        assert len(tree) == 1

    def test_initial_version_zero(self):
        assert fresh_tree().version == 0

    def test_hyper_label_empty(self):
        tree = fresh_tree()
        assert str(tree.hyper_label("IA0")) == ""
        assert tree.consumed_width("IA0") == 0

    def test_short_id_rejected(self):
        with pytest.raises(ValueError):
            fresh_tree().lookup("0101")

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            HashTree("IA0", width=0)

    def test_lookup_id_uses_bits_attribute(self):
        from repro.platform.naming import AgentId

        tree = HashTree("IA0", width=64)
        assert tree.lookup_id(AgentId(7)) == "IA0"


class TestSimpleSplit:
    def test_m1_partitions_on_first_bit(self):
        tree = fresh_tree()
        outcome = tree.apply_split(simple_candidate(tree, "IA0", m=1), "IA1")
        assert outcome.affected_owners == ["IA0"]
        assert tree.lookup(pad("0")) == "IA0"
        assert tree.lookup(pad("1")) == "IA1"
        tree.check_invariants()

    def test_version_bumped(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        assert tree.version == 1

    def test_m2_skips_one_bit(self):
        """Splitting with m=2 discriminates on bit 2; bit 1 is skipped."""
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0", m=2), "IA1")
        assert tree.lookup(pad("00")) == "IA0"
        assert tree.lookup(pad("10")) == "IA0"  # bit 1 is a wildcard
        assert tree.lookup(pad("01")) == "IA1"
        assert tree.lookup(pad("11")) == "IA1"
        tree.check_invariants()

    def test_nested_splits_consume_prefix_in_order(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0", m=1), "IA1")
        tree.apply_split(simple_candidate(tree, "IA1", m=1), "IA2")
        assert tree.lookup(pad("0")) == "IA0"
        assert tree.lookup(pad("10")) == "IA1"
        assert tree.lookup(pad("11")) == "IA2"
        assert tree.consumed_width("IA2") == 2
        tree.check_invariants()

    def test_hyper_labels_after_m2_split(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0", m=1), "IA1")
        tree.apply_split(simple_candidate(tree, "IA1", m=2), "IA2")
        # IA1's path: label "1" padded to "10", then child "0".
        assert str(tree.hyper_label("IA1")) == "10.0"
        assert str(tree.hyper_label("IA2")) == "10.1"
        assert tree.hyper_label("IA1").pattern() == "1x0"

    def test_duplicate_owner_rejected(self):
        tree = fresh_tree()
        with pytest.raises(ValueError):
            tree.apply_split(simple_candidate(tree, "IA0"), "IA0")

    def test_split_beyond_width_refused(self):
        tree = HashTree("IA0", width=2)
        tree.apply_split(simple_candidate(tree, "IA0", m=1), "IA1")
        tree.apply_split(simple_candidate(tree, "IA0", m=1), "IA2")
        assert tree.split_candidates("IA0") == []

    def test_stale_candidate_rejected(self):
        tree = fresh_tree()
        stale = simple_candidate(tree, "IA0", m=1)
        tree.apply_split(simple_candidate(tree, "IA0", m=1), "IA1")
        with pytest.raises(SplitFailedError):
            tree.apply_split(stale, "IA9")

    def test_split_of_missing_owner_rejected(self):
        tree = fresh_tree()
        candidate = simple_candidate(tree, "IA0")
        tree.apply_merge  # owner removal path exercised elsewhere
        with pytest.raises(KeyError):
            tree.split_candidates("ghost")


class TestComplexSplit:
    def build_padded_tree(self):
        """IA0/IA1 split with m=3: the root label holds 2 skipped bits."""
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0", m=3), "IA1")
        return tree

    def test_root_skip_creates_complex_candidates(self):
        tree = self.build_padded_tree()
        complexes = [
            c for c in tree.split_candidates("IA0", scope="path")
            if c.kind == "complex"
        ]
        assert [c.bit_position for c in complexes] == [1, 2]
        assert not any(c.local for c in complexes)

    def test_leaf_scope_hides_ancestor_candidates(self):
        tree = self.build_padded_tree()
        complexes = [
            c for c in tree.split_candidates("IA0", scope="leaf")
            if c.kind == "complex"
        ]
        assert complexes == []

    def test_invalid_scope_rejected(self):
        with pytest.raises(ValueError):
            fresh_tree().split_candidates("IA0", scope="galaxy")

    def test_complex_split_of_root_skip_bit(self):
        tree = self.build_padded_tree()
        # Before: bits 1-2 skipped, bit 3 discriminates IA0/IA1.
        candidate = next(
            c for c in tree.split_candidates("IA0", scope="path")
            if c.kind == "complex" and c.bit_position == 1
        )
        outcome = tree.apply_split(candidate, "IA2")
        tree.check_invariants()
        # Bit 1 now routes: stored bit was '0', so old subtree keeps 0.
        assert tree.lookup(pad("000")) == "IA0"
        assert tree.lookup(pad("001")) == "IA1"
        assert tree.lookup(pad("100")) == "IA2"
        assert tree.lookup(pad("101")) == "IA2"
        assert set(outcome.affected_owners) == {"IA0", "IA1"}

    def test_complex_split_of_internal_edge(self):
        """Split the padded internal label below the root."""
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0", m=1), "IA1")
        tree.apply_split(simple_candidate(tree, "IA1", m=3), "IA2")
        # IA1's subtree hangs on label "100" (valid bit 1, skipped bits
        # at positions 2 and 3); bit 4 discriminates IA1/IA2.
        candidate = next(
            c for c in tree.split_candidates("IA1", scope="path")
            if c.kind == "complex" and c.bit_position == 2
        )
        outcome = tree.apply_split(candidate, "IA3")
        tree.check_invariants()
        # Bit 2 is now a valid bit: 0 keeps the old subtree, 1 -> IA3.
        assert tree.lookup(pad("0")) == "IA0"
        assert tree.lookup(pad("1000")) == "IA1"
        assert tree.lookup(pad("1001")) == "IA2"
        assert tree.lookup(pad("1010")) == "IA1"  # bit 3 still skipped
        assert tree.lookup(pad("1100")) == "IA3"
        assert tree.lookup(pad("1111")) == "IA3"
        assert set(outcome.affected_owners) == {"IA1", "IA2"}

    def test_complex_split_of_leaf_own_edge_is_local(self):
        """A leaf whose own label is multi-bit splits locally."""
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0", m=1), "IA1")
        # Construct a multi-bit leaf label through a complex split that
        # leaves a tail: first give IA1's subtree a padded label.
        tree.apply_split(simple_candidate(tree, "IA1", m=3), "IA2")
        candidate = next(
            c for c in tree.split_candidates("IA1", scope="path")
            if c.kind == "complex"
        )
        tree.apply_split(candidate, "IA3")
        # IA3's own label now carries the tail "10"; it is splittable
        # locally on its skipped bit.
        local = [
            c for c in tree.split_candidates("IA3", scope="leaf")
            if c.kind == "complex"
        ]
        assert local and all(c.local for c in local)
        outcome = tree.apply_split(local[0], "IA4")
        tree.check_invariants()
        assert outcome.affected_owners == ["IA3"]


class TestMerge:
    def test_merge_last_owner_rejected(self):
        with pytest.raises(LastIAgentError):
            fresh_tree().apply_merge("IA0")

    def test_simple_merge_collapses_into_sibling(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        outcome = tree.apply_merge("IA1")
        assert outcome.kind == "simple"
        assert outcome.absorbers == ["IA0"]
        assert tree.owners() == ["IA0"]
        assert tree.lookup(pad("1")) == "IA0"
        tree.check_invariants()

    def test_simple_merge_keeps_parent_label(self):
        """Figure 5: after the merge the parent's incoming label stays."""
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        tree.apply_split(simple_candidate(tree, "IA1"), "IA2")
        tree.apply_merge("IA2")
        assert str(tree.hyper_label("IA1")) == "1"
        tree.check_invariants()

    def test_complex_merge_splices_sibling_subtree(self):
        """Figure 6: merging a leaf whose sibling is internal."""
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        tree.apply_split(simple_candidate(tree, "IA1"), "IA2")
        outcome = tree.apply_merge("IA0")
        assert outcome.kind == "complex"
        assert set(outcome.absorbers) == {"IA1", "IA2"}
        tree.check_invariants()
        # Bit 1 is now skipped; bit 2 discriminates IA1/IA2.
        assert tree.lookup(pad("00")) == "IA1"
        assert tree.lookup(pad("01")) == "IA2"
        assert tree.lookup(pad("10")) == "IA1"
        assert tree.lookup(pad("11")) == "IA2"

    def test_complex_merge_at_root_grows_skip_label(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        tree.apply_split(simple_candidate(tree, "IA1"), "IA2")
        tree.apply_merge("IA0")
        assert tree.hyper_label("IA1").skip == 1
        assert str(tree.hyper_label("IA1")) == "~1.0"

    def test_merge_version_bumped(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        version = tree.version
        tree.apply_merge("IA1")
        assert tree.version == version + 1

    def test_split_after_complex_merge_reuses_skipped_bit(self):
        """The round trip the rehashing design relies on: a complex
        merge demotes a valid bit; a later complex split can promote it
        back without deepening the tree."""
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        tree.apply_split(simple_candidate(tree, "IA1"), "IA2")
        tree.apply_merge("IA0")  # bit 1 demoted to skip
        candidates = tree.split_candidates("IA1", scope="path")
        complex_bits = [
            c.bit_position for c in candidates if c.kind == "complex"
        ]
        assert 1 in complex_bits
        promote = next(c for c in candidates if c.bit_position == 1)
        tree.apply_split(promote, "IA3")
        tree.check_invariants()
        # The promoted bit carries no tail: IA3 sits directly under the
        # root with a one-bit prefix -- shallower than a simple re-split.
        assert tree.consumed_width("IA3") == 1
        assert tree.lookup(pad("00")) == "IA3"
        assert tree.lookup(pad("10")) == "IA1"
        assert tree.lookup(pad("11")) == "IA2"


class TestSerialization:
    def build_busy_tree(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0", m=2), "IA1")
        tree.apply_split(simple_candidate(tree, "IA1", m=1), "IA2")
        tree.apply_merge("IA0")
        return tree

    def test_spec_round_trip_preserves_structure(self):
        tree = self.build_busy_tree()
        clone = HashTree.from_spec(tree.to_spec())
        clone.check_invariants()
        assert clone.render() == tree.render()
        assert clone.version == tree.version
        assert set(clone.owners()) == set(tree.owners())

    def test_clone_is_independent(self):
        tree = self.build_busy_tree()
        clone = tree.clone()
        clone.apply_split(simple_candidate(clone, "IA1"), "IA9")
        assert not tree.has_owner("IA9")

    def test_clone_lookup_agrees(self):
        tree = self.build_busy_tree()
        clone = tree.clone()
        for value in range(64):
            bits = pad(format(value, "06b"))
            assert tree.lookup(bits) == clone.lookup(bits)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            HashTree.from_spec(("not-a-tree", 16, 0, None))


class TestDiagnostics:
    def test_render_mentions_owners(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        rendered = tree.render()
        assert "IA0" in rendered and "IA1" in rendered

    def test_to_dot_produces_valid_structure(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0", m=2), "IA1")
        tree.apply_split(simple_candidate(tree, "IA1", m=1), "IA2")
        dot = tree.to_dot(title="test")
        assert dot.startswith('digraph "test" {')
        assert dot.rstrip().endswith("}")
        assert dot.count("shape=box") == 3  # one box per IAgent leaf
        for owner in ("IA0", "IA1", "IA2"):
            assert owner in dot
        # Edge labels carry the bit strings.
        assert '[label="0"]' in dot and '[label="1"]' in dot

    def test_to_dot_single_leaf(self):
        dot = fresh_tree().to_dot()
        assert "IA0" in dot
        assert dot.count("->") == 0

    def test_statistics_fresh_tree(self):
        stats = fresh_tree().statistics()
        assert stats["leaves"] == 1.0
        assert stats["node_count"] == 1.0
        assert stats["max_consumed"] == 0.0
        assert stats["skipped_bits"] == 0.0

    def test_statistics_after_splits(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0", m=3), "IA1")
        tree.apply_split(simple_candidate(tree, "IA1", m=1), "IA2")
        stats = tree.statistics()
        assert stats["leaves"] == 3.0
        assert stats["node_count"] == 5.0
        assert stats["min_consumed"] == 3.0  # IA0: 2 skipped + 1 valid
        assert stats["max_consumed"] == 4.0  # IA1/IA2 one level deeper
        # The m=3 split padded the root with two skipped bits.
        assert stats["skipped_bits"] == 2.0
        assert stats["version"] == 2.0

    def test_invariant_checker_catches_corruption(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        leaf = tree._leaf("IA1")
        leaf.label = "01"  # wrong valid bit for the right side
        with pytest.raises(TreeInvariantError):
            tree.check_invariants()

    def test_invariant_checker_catches_ownerless_leaf(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        tree._leaf("IA1").owner = None
        with pytest.raises(TreeInvariantError):
            tree.check_invariants()

    def test_invariant_checker_catches_empty_label(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        tree._leaf("IA1").label = ""
        with pytest.raises(TreeInvariantError):
            tree.check_invariants()

    def test_invariant_checker_catches_stale_index(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        tree._leaves["ghost"] = tree._leaf("IA1")
        with pytest.raises(TreeInvariantError):
            tree.check_invariants()

    def test_invariant_checker_catches_owner_on_internal_node(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        tree._root.owner = "IA0"
        with pytest.raises(TreeInvariantError):
            tree.check_invariants()

    def test_invariant_checker_catches_overlong_path(self):
        tree = HashTree("IA0", width=2)
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        tree._leaf("IA1").label = "111"  # consumes beyond the width
        with pytest.raises(TreeInvariantError):
            tree.check_invariants()

    def test_repr(self):
        assert "1 owners" in repr(fresh_tree())

    def test_iteration_over_owners(self):
        tree = fresh_tree()
        tree.apply_split(simple_candidate(tree, "IA0"), "IA1")
        assert set(iter(tree)) == {"IA0", "IA1"}
