"""Unit tests for the split-planning policy."""

import pytest

from repro.core.config import HashMechanismConfig
from repro.core.hash_tree import HashTree
from repro.core.rehashing import plan_split


def pad(bits, width=16):
    return bits + "0" * (width - len(bits))


def config(**overrides):
    return HashMechanismConfig().with_overrides(**overrides)


def uniform_loads(prefix_bits, count):
    """``count`` ids below ``prefix_bits``, load 1 each, suffixes spread
    uniformly so every suffix bit position divides them evenly."""
    suffix_len = 16 - len(prefix_bits)
    stride = (1 << suffix_len) // count
    loads = {}
    for index in range(count):
        suffix = format(index * stride, f"0{suffix_len}b")
        loads[prefix_bits + suffix] = 1
    return loads


class TestPlanSplit:
    def test_uniform_load_splits_on_first_unconsumed_bit(self):
        tree = HashTree("IA0", width=16)
        loads = {pad(format(v, "04b"), 16): 1 for v in range(16)}
        planned = plan_split(tree, "IA0", {"IA0": loads}, config())
        assert planned is not None
        assert planned.even
        assert planned.candidate.kind == "simple"
        assert planned.candidate.bit_position == 1
        assert planned.load_zero_side == planned.load_one_side == 8

    def test_skewed_first_bit_pushes_m_deeper(self):
        """If bit 1 does not divide the load, m grows (paper §4.1)."""
        tree = HashTree("IA0", width=16)
        # All ids start with 0: bit 1 is useless, bit 2 divides evenly.
        loads = {"0" + format(v, "03b") + "0" * 12: 1 for v in range(8)}
        planned = plan_split(tree, "IA0", {"IA0": loads}, config())
        assert planned.even
        assert planned.candidate.bit_position == 2

    def test_no_loads_returns_none(self):
        tree = HashTree("IA0", width=16)
        assert plan_split(tree, "IA0", {"IA0": {}}, config()) is None

    def test_single_hot_agent_returns_none(self):
        """One agent carrying all load cannot be divided."""
        tree = HashTree("IA0", width=16)
        loads = {pad("0101"): 100}
        assert plan_split(tree, "IA0", {"IA0": loads}, config()) is None

    def test_uneven_fallback_picks_best_division(self):
        """When nothing reaches the tolerance, take the least-bad split
        that still moves load (our documented deviation from the
        unbounded loop in the paper's text)."""
        tree = HashTree("IA0", width=4)
        # 15 agents on one side of every bit, 1 on the other; max m
        # exhausts at width 4 without an even division.
        loads = {"0000": 15, "1111": 1}
        planned = plan_split(tree, "IA0", {"IA0": loads}, config())
        assert planned is not None
        assert not planned.even
        assert min(planned.load_zero_side, planned.load_one_side) == 1

    def test_complex_candidate_preferred_when_even(self):
        """Complex candidates come first in the paper's order."""
        tree = HashTree("IA0", width=16)
        # Simple split with m=3 pads two bits onto the root label.
        first = next(
            c for c in tree.split_candidates("IA0")
            if c.kind == "simple" and c.bit_position == 3
        )
        tree.apply_split(first, "IA1")
        # Now give IA0 load that divides evenly on skipped bit 1.
        loads = dict(uniform_loads("000", 4))
        loads.update(uniform_loads("100", 4))
        planned = plan_split(tree, "IA0", {"IA0": loads, "IA1": {}}, config())
        assert planned.candidate.kind == "complex"
        assert planned.candidate.bit_position == 1

    def test_complex_disabled_falls_to_simple(self):
        tree = HashTree("IA0", width=16)
        first = next(
            c for c in tree.split_candidates("IA0")
            if c.kind == "simple" and c.bit_position == 3
        )
        tree.apply_split(first, "IA1")
        loads = dict(uniform_loads("000", 4))
        loads.update(uniform_loads("100", 4))
        planned = plan_split(
            tree,
            "IA0",
            {"IA0": loads, "IA1": {}},
            config(enable_complex_split=False),
        )
        assert planned.candidate.kind == "simple"

    def test_leaf_scope_skips_ancestor_candidates(self):
        tree = HashTree("IA0", width=16)
        first = next(
            c for c in tree.split_candidates("IA0")
            if c.kind == "simple" and c.bit_position == 3
        )
        tree.apply_split(first, "IA1")
        loads = dict(uniform_loads("000", 4))
        loads.update(uniform_loads("100", 4))
        planned = plan_split(
            tree,
            "IA0",
            {"IA0": loads, "IA1": {}},
            config(complex_split_scope="leaf"),
        )
        assert planned.candidate.kind == "simple"

    def test_candidate_missing_loads_skipped(self):
        """Path-scope candidates lacking subtree loads are not chosen."""
        tree = HashTree("IA0", width=16)
        first = next(
            c for c in tree.split_candidates("IA0")
            if c.kind == "simple" and c.bit_position == 3
        )
        tree.apply_split(first, "IA1")
        loads = dict(uniform_loads("000", 4))
        loads.update(uniform_loads("100", 4))
        # IA1's loads are NOT provided: complex (affects both) skipped.
        planned = plan_split(tree, "IA0", {"IA0": loads}, config())
        assert planned.candidate.kind == "simple"


class TestAffectedOwners:
    def test_simple_candidate_is_local(self):
        tree = HashTree("IA0", width=16)
        candidate = tree.split_candidates("IA0")[0]
        assert tree.affected_owners(candidate) == ["IA0"]

    def test_root_complex_affects_everyone(self):
        tree = HashTree("IA0", width=16)
        first = next(
            c for c in tree.split_candidates("IA0")
            if c.kind == "simple" and c.bit_position == 3
        )
        tree.apply_split(first, "IA1")
        complex_candidate = next(
            c for c in tree.split_candidates("IA0", scope="path")
            if c.kind == "complex"
        )
        assert set(tree.affected_owners(complex_candidate)) == {
            "IA0",
            "IA1",
        }
