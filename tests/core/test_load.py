"""Unit tests for load statistics and the evenness criterion."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.load import (
    GroupedLoadStatistics,
    LoadStatistics,
    RateWindow,
    is_even_split,
    split_loads,
)
from repro.platform.naming import AgentId

A, B = AgentId(0b1010, width=4), AgentId(0b0101, width=4)


class TestRateWindow:
    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            RateWindow(0)

    def test_rate_counts_recent_events(self):
        window = RateWindow(2.0)
        for t in (0.0, 0.5, 1.0, 1.5):
            window.record(t)
        assert window.rate(1.5) == pytest.approx(4 / 2.0)

    def test_old_events_evicted(self):
        window = RateWindow(1.0)
        window.record(0.0)
        window.record(0.9)
        assert window.count(1.5) == 1  # the 0.0 event fell out
        assert window.rate(5.0) == 0.0

    def test_batch_record(self):
        window = RateWindow(10.0)
        window.record(1.0, count=5)
        assert window.count(1.0) == 5

    def test_maturity(self):
        window = RateWindow(2.0)
        assert not window.mature(0.0)
        window.record(0.0)
        assert not window.mature(1.0)
        assert window.mature(2.0)
        assert not window.mature(2.0, fraction=1.5)

    def test_reset_restarts_maturity(self):
        window = RateWindow(1.0)
        window.record(0.0)
        window.reset(5.0)
        assert window.count(5.0) == 0
        assert not window.mature(5.5)
        assert window.mature(6.0)


class TestLoadStatistics:
    def test_queries_and_updates_counted(self):
        stats = LoadStatistics(window=5.0)
        stats.record_query(A, 0.0)
        stats.record_update(A, 0.1)
        stats.record_update(B, 0.2)
        assert stats.queries == 1
        assert stats.updates == 2
        assert stats.loads() == {"1010": 2, "0101": 1}
        assert (stats.load_of(A), stats.load_of(B)) == (2, 1)

    def test_rate_aggregates_both_kinds(self):
        stats = LoadStatistics(window=1.0)
        stats.record_query("a", 0.0)
        stats.record_update("b", 0.5)
        assert stats.rate(0.5) == pytest.approx(2.0)

    def test_forget_agent(self):
        stats = LoadStatistics(window=1.0)
        stats.record_query(A, 0.0)
        stats.forget_agent(A)
        assert stats.loads() == {}
        assert stats.load_of(A) == 0

    def test_adopt_agent_seeds_load(self):
        stats = LoadStatistics(window=1.0)
        stats.adopt_agent(A, load=7)
        stats.record_query(A, 0.0)
        assert stats.loads() == {"1010": 8}


def divide_by_split_loads(stats, positions):
    """``divide``'s contract: ``split_loads`` of the full table, per
    position, and ``None`` exactly where that raises."""
    expected = {}
    for position in positions:
        try:
            expected[position] = list(split_loads(stats.loads().items(), position))
        except ValueError:
            expected[position] = None
    return expected


@st.composite
def populations(draw):
    """``(width, value, load)`` triples -- one id width, or mixed ones --
    and bit positions from a narrow span up to beyond the widest id."""
    widths = draw(st.lists(st.integers(1, 70), min_size=1, max_size=3, unique=True))
    agents = draw(
        st.lists(
            st.sampled_from(widths).flatmap(
                lambda width: st.tuples(
                    st.just(width),
                    st.integers(0, (1 << width) - 1),
                    st.integers(0, 50),
                )
            ),
            max_size=40,
        )
    )
    positions = draw(
        st.lists(st.integers(1, max(widths) + 3), max_size=10, unique=True)
    )
    return agents, positions


class TestDivide:
    @given(populations())
    def test_is_split_loads_at_every_asked_position(self, population):
        agents, positions = population
        stats = LoadStatistics(window=5.0)
        for width, value, load in agents:
            stats.adopt_agent(AgentId(value, width), load)
        assert stats.divide(positions) == divide_by_split_loads(stats, positions)

    def test_empty_list_and_empty_table(self):
        stats = LoadStatistics(window=5.0)
        assert stats.divide([]) == {}
        assert stats.divide([1, 200]) == {1: [0, 0], 200: [0, 0]}
        stats.adopt_agent(A, 3)
        assert stats.divide([]) == {}

    def test_span_wider_than_sixteen_bits(self):
        stats = LoadStatistics(window=5.0)
        for value, load in ((0, 1), (1, 2), (1 << 63, 4), ((1 << 64) - 1, 8)):
            stats.adopt_agent(AgentId(value), load)
        assert stats.divide([1, 64, 65]) == {1: [3, 12], 64: [5, 10], 65: None}

    def test_mixed_widths_answer_none_past_the_narrowest(self):
        stats = LoadStatistics(window=5.0)
        stats.adopt_agent(A, 2)  # 1010
        stats.adopt_agent(AgentId(0b10, width=2), 5)
        assert stats.divide([4, 2, 1, 3]) == {4: None, 2: [7, 0], 1: [0, 7], 3: None}


def sized(value):
    return AgentId(value, 6)


@st.composite
def handoffs(draw):
    """Recorded queries and earlier adoptions on a 6-bit id space (so
    groups collide), then the agents a hand-off takes away -- held or
    never seen -- and the loads one brings in, held agents among them."""
    small_ids = st.integers(0, 63).map(sized)
    history = draw(st.lists(small_ids, max_size=30))
    adopted = draw(st.dictionaries(small_ids, st.integers(0, 50), max_size=10))
    leaving = draw(st.lists(small_ids, unique=True, max_size=20))
    arriving = draw(st.dictionaries(small_ids, st.integers(0, 50), max_size=20))
    return history, adopted, leaving, arriving


STATS = {
    "per-agent": lambda: LoadStatistics(window=5.0),
    "grouped": lambda: GroupedLoadStatistics(window=5.0, group_depth=2),
}


def built(kind, history, adopted):
    stats = STATS[kind]()
    for now, agent in enumerate(history):
        stats.record_query(agent, float(now))
    for agent, load in adopted.items():
        stats.adopt_agent(agent, load)
    return stats


def tables(stats):
    """Every accumulator table, its order included."""
    return {
        name: list(value.items()) for name, value in vars(stats).items() if type(value) is dict
    }


@pytest.mark.parametrize("kind", list(STATS))
class TestBulkHandOff:
    """``release`` / ``absorb`` are the per-agent loops they replace."""

    @given(handoffs())
    @example(([sized(1)], {}, [sized(1), sized(2)], {}))  # one held, one never seen
    def test_release_is_load_of_then_forget(self, kind, case):
        history, adopted, leaving, _ = case
        bulk, loop = built(kind, history, adopted), built(kind, history, adopted)
        expected = {}
        for agent in leaving:
            expected[agent] = loop.load_of(agent)
            loop.forget_agent(agent)
        assert list(bulk.release(leaving).items()) == list(expected.items())
        assert tables(bulk) == tables(loop)

    @given(handoffs())
    @example(([sized(1)], {sized(2): 4}, [], {sized(1): 3, sized(3): 5}))  # 1 is held
    def test_absorb_is_adopt_agent(self, kind, case):
        history, adopted, _, arriving = case
        bulk, loop = built(kind, history, adopted), built(kind, history, adopted)
        bulk.absorb(arriving)
        for agent, load in arriving.items():
            loop.adopt_agent(agent, load)
        assert tables(bulk) == tables(loop)


class TestSplitLoads:
    def test_partition_by_bit(self):
        loads = [("0000", 3), ("0100", 5), ("1000", 2)]
        assert split_loads(loads, 1) == (8, 2)
        assert split_loads(loads, 2) == (5, 5)

    def test_bit_beyond_width_rejected(self):
        with pytest.raises(ValueError):
            split_loads([("01", 1)], 3)

    def test_empty_loads(self):
        assert split_loads([], 1) == (0, 0)


class TestEvenness:
    def test_perfect_balance_is_even(self):
        assert is_even_split(50, 50, tolerance=0.25)

    def test_boundary_of_tolerance(self):
        assert is_even_split(25, 75, tolerance=0.25)
        assert not is_even_split(24, 76, tolerance=0.25)

    def test_zero_total_never_even(self):
        assert not is_even_split(0, 0, tolerance=0.25)

    def test_one_sided_never_even(self):
        assert not is_even_split(100, 0, tolerance=0.1)
