"""Unit tests for agent ids and id generators."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.platform.naming import (
    AgentId,
    AgentNamer,
    SkewedNamer,
    splitmix64,
)


class TestAgentId:
    def test_bits_are_zero_padded_msb_first(self):
        assert AgentId(5, width=8).bits == "00000101"

    def test_bits_full_width(self):
        assert len(AgentId(0).bits) == 64

    def test_bit_accessor_is_one_based(self):
        agent_id = AgentId(0b1010, width=4)
        assert agent_id.bit(1) == "1"
        assert agent_id.bit(2) == "0"
        assert agent_id.bit(4) == "0"

    def test_bit_out_of_range(self):
        with pytest.raises(IndexError):
            AgentId(0, width=4).bit(5)
        with pytest.raises(IndexError):
            AgentId(0, width=4).bit(0)

    def test_value_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            AgentId(16, width=4)
        with pytest.raises(ValueError):
            AgentId(-1, width=4)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            AgentId(0, width=0)

    def test_ids_are_hashable_and_ordered(self):
        a, b = AgentId(1), AgentId(2)
        assert a < b
        assert len({a, b, AgentId(1)}) == 2

    def test_short_form(self):
        assert len(AgentId(0xABCDEF).short()) == 8


#: ``(value, width)`` with the value inside its width.
value_width = st.integers(min_value=1, max_value=128).flatmap(
    lambda width: st.tuples(
        st.integers(min_value=0, max_value=2**width - 1), st.just(width)
    )
)


class TestAgentIdContract:
    """What callers may rely on, whatever the id is built on."""

    @given(value_width)
    def test_hashes_as_its_value_width_pair(self, pair):
        # The hash the frozen dataclass generated: sets of ids iterate
        # in the order they always did, so fixed-seed runs stay identical.
        assert hash(AgentId(*pair)) == hash(pair)

    @given(value_width, value_width)
    def test_orders_as_its_value_width_pair(self, one, two):
        a, b = AgentId(*one), AgentId(*two)
        assert (a < b, a <= b, a == b, a > b) == (one < two, one <= two, one == two, one > two)
        assert sorted([a, b]) == [AgentId(*pair) for pair in sorted([one, two])]

    @given(value_width)
    def test_bit_reads_the_bit_string(self, pair):
        agent_id = AgentId(*pair)
        bits = agent_id.bits
        assert len(bits) == agent_id.width and int(bits, 2) == agent_id.value
        assert [agent_id.bit(p) for p in range(1, agent_id.width + 1)] == list(bits)

    def test_is_immutable_and_carries_no_dict(self):
        agent_id = AgentId(5)
        with pytest.raises(AttributeError):
            agent_id.value = 1
        with pytest.raises(AttributeError):
            agent_id.x = 1
        with pytest.raises(AttributeError):
            del agent_id.value
        assert not hasattr(agent_id, "__dict__")

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy]
        + [
            lambda agent_id, protocol=protocol: pickle.loads(pickle.dumps(agent_id, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ],
    )
    def test_copies_and_pickles_stay_ids(self, clone):
        # The -j sweep workers pickle ids across processes.
        agent_id = AgentId(0x9E3779B97F4A7C15, 64)
        twin = clone(agent_id)
        assert type(twin) is AgentId and twin == agent_id
        assert (twin.value, twin.width) == (0x9E3779B97F4A7C15, 64)

    def test_text_forms(self):
        agent_id = AgentId(0xABCDEF, 32)
        assert repr(agent_id) == "AgentId(value=11259375, width=32)"
        assert str(agent_id) == f"{agent_id}" == "agent-abcdef"
        assert agent_id.short() == "00000000"
        assert AgentId(0xABCDEF << 40).short() == "abcdef00"
        assert repr(AgentId(5)) == "AgentId(value=5, width=64)"

    @pytest.mark.parametrize(
        "value, width, message",
        [
            (0, 0, "id width must be positive, got 0"),
            (0, -3, "id width must be positive, got -3"),
            (-1, 4, "id value -1 out of range for width 4"),
            (16, 4, "id value 16 out of range for width 4"),
        ],
    )
    def test_error_messages(self, value, width, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AgentId(value, width)

    def test_absurd_width_allocates_nothing(self):
        # value >> width, never 2**width: a billion-bit integer would
        # take seconds and ~125 MB; this returns at once.
        assert AgentId(1, 10**9).width == 10**9


class TestSplitMix:
    def test_deterministic(self):
        assert splitmix64(1) == splitmix64(1)

    def test_spreads_sequential_inputs(self):
        outputs = {splitmix64(i) for i in range(100)}
        assert len(outputs) == 100
        # High bits should vary: count distinct top bytes.
        top_bytes = {value >> 56 for value in outputs}
        assert len(top_bytes) > 30


class TestAgentNamer:
    def test_generates_unique_ids(self):
        namer = AgentNamer(seed=1)
        ids = {namer.next_id() for _ in range(1000)}
        assert len(ids) == 1000

    def test_same_seed_same_sequence(self):
        one = [AgentNamer(seed=3).next_id() for _ in range(5)]
        two = [AgentNamer(seed=3).next_id() for _ in range(5)]
        assert one == two

    def test_first_bits_roughly_uniform(self):
        namer = AgentNamer(seed=2)
        ones = sum(namer.next_id().bits[0] == "1" for _ in range(2000))
        assert 850 < ones < 1150

    def test_respects_width(self):
        namer = AgentNamer(seed=1, width=16)
        assert all(namer.next_id().width == 16 for _ in range(10))

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=80))
    def test_ids_are_the_checked_constructors(self, seed, width):
        """``next_id`` skips ``AgentId``'s range check, so what it builds
        must be what the checked constructor builds from the same pair."""
        for agent in (AgentNamer(seed=seed, width=width).next_id() for _ in range(4)):
            assert type(agent) is AgentId
            assert agent == AgentId(agent.value, width) and repr(agent) == repr(
                AgentId(agent.value, width)
            )

    @pytest.mark.parametrize("width", [0, -3])
    def test_a_width_is_checked_once_up_front(self, width):
        with pytest.raises(ValueError, match="width must be positive"):
            AgentNamer(seed=1, width=width)


class TestSkewedNamer:
    def test_skewed_fraction_shares_prefix(self):
        namer = SkewedNamer(seed=1, prefix="0110", skew=0.8)
        hits = sum(namer.next_id().bits.startswith("0110") for _ in range(2000))
        # 80% forced + ~1/16 of the rest by chance.
        assert 1550 < hits < 1800

    def test_skew_zero_is_plain(self):
        namer = SkewedNamer(seed=1, prefix="1111", skew=0.0)
        hits = sum(namer.next_id().bits.startswith("1111") for _ in range(1000))
        assert hits < 150

    def test_skew_one_forces_all(self):
        namer = SkewedNamer(seed=1, prefix="101", skew=1.0)
        assert all(namer.next_id().bits.startswith("101") for _ in range(100))

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            SkewedNamer(prefix="01a")
        with pytest.raises(ValueError):
            SkewedNamer(prefix="")

    def test_invalid_skew_rejected(self):
        with pytest.raises(ValueError):
            SkewedNamer(skew=1.5)
