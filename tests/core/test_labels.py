"""Unit tests for labels, hyper-labels and the compatibility rule."""

import pytest

from repro.core.labels import HyperLabel, Label


class TestLabel:
    def test_valid_bit_is_first(self):
        assert Label("101").valid_bit == "1"
        assert Label("0").valid_bit == "0"

    def test_skipped_tail(self):
        assert Label("101").skipped == "01"
        assert Label("0").skipped == ""

    def test_width(self):
        assert Label("0110").width == 4

    def test_multibit_flag(self):
        assert Label("01").is_multibit
        assert not Label("1").is_multibit

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            Label("")

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            Label("0a1")

    def test_str(self):
        assert str(Label("10")) == "10"


class TestHyperLabel:
    def test_paper_notation(self):
        """The paper writes hyper-labels with '.' separators, e.g. 1.01.0"""
        hyper = HyperLabel([Label("1"), Label("01"), Label("0")])
        assert str(hyper) == "1.01.0"

    def test_width_counts_all_bits(self):
        hyper = HyperLabel([Label("1"), Label("01"), Label("0")])
        assert hyper.width == 4

    def test_root_skip_adds_width_and_notation(self):
        hyper = HyperLabel([Label("1")], skip=2)
        assert hyper.width == 3
        assert str(hyper) == "~2.1"

    def test_valid_positions_one_based(self):
        hyper = HyperLabel([Label("1"), Label("01"), Label("0")])
        assert hyper.valid_positions() == [(1, "1"), (2, "0"), (4, "0")]

    def test_valid_positions_respect_skip(self):
        hyper = HyperLabel([Label("1"), Label("0")], skip=3)
        assert hyper.valid_positions() == [(4, "1"), (5, "0")]

    def test_pattern_marks_wildcards(self):
        hyper = HyperLabel([Label("1"), Label("01"), Label("0")])
        assert hyper.pattern() == "10x0"

    def test_pattern_with_skip(self):
        hyper = HyperLabel([Label("1")], skip=2)
        assert hyper.pattern() == "xx1"

    def test_matches_follows_paper_rule(self):
        """Figure 2: valid bits must match, skipped bits are free."""
        hyper = HyperLabel([Label("1"), Label("01"), Label("0")])
        assert hyper.matches("1000" + "0" * 60)
        assert hyper.matches("1010" + "0" * 60)  # skipped bit differs: fine
        assert not hyper.matches("1001" + "0" * 60)  # valid bit 4 differs
        assert not hyper.matches("0000" + "0" * 60)  # valid bit 1 differs

    def test_matches_requires_enough_bits(self):
        hyper = HyperLabel([Label("1"), Label("01")])
        with pytest.raises(ValueError):
            hyper.matches("10")

    def test_matches_rejects_garbage(self):
        with pytest.raises(ValueError):
            HyperLabel([Label("1")]).matches("1x")

    def test_empty_hyper_label_matches_everything(self):
        hyper = HyperLabel([])
        assert hyper.width == 0
        assert hyper.matches("")
        assert hyper.matches("0101")

    def test_parse_round_trip(self):
        for text in ("1.01.0", "0", "~2.1.01", "~3"):
            assert str(HyperLabel.parse(text)) == text

    def test_labels_coerced_from_strings(self):
        hyper = HyperLabel(["1", "01"])
        assert hyper.labels == (Label("1"), Label("01"))

    def test_equality_and_hash(self):
        a = HyperLabel([Label("1"), Label("01")])
        b = HyperLabel(["1", "01"])
        c = HyperLabel(["1", "01"], skip=1)
        assert a == b
        assert a != c
        assert len({a, b, c}) == 2

    def test_negative_skip_rejected(self):
        with pytest.raises(ValueError):
            HyperLabel([], skip=-1)

    def test_iteration_yields_labels(self):
        hyper = HyperLabel(["1", "0"])
        assert [str(label) for label in hyper] == ["1", "0"]


class TestCompatibleAlias:
    def test_paper_example_shape(self):
        """Prefix 10... is compatible with 1.01... iff valid bits agree."""
        hyper = HyperLabel(["1", "01"])
        assert hyper.matches("100" + "0" * 61)
        assert not hyper.matches("110" + "0" * 61)
