"""Tests for prefix-grouped load statistics (paper §4.1 coarse option)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.load import GroupedLoadStatistics
from repro.platform.naming import AgentId

from tests.conftest import build_runtime, drain, install_hash_mechanism
from tests.core.test_load import divide_by_split_loads, populations
from repro.workloads.mobility import ConstantResidence
from repro.workloads.population import spawn_population


def aid(prefix, width=16):
    """An AgentId whose bits start with ``prefix``."""
    value = int(prefix + "0" * (width - len(prefix)), 2)
    return AgentId(value, width=width)


class TestGroupedLoadStatistics:
    def test_records_bucket_by_prefix(self):
        stats = GroupedLoadStatistics(window=5.0, group_depth=3)
        stats.record_update(aid("0001"), 0.0)
        stats.record_update(aid("0000"), 0.1)  # same 3-bit group "000"
        stats.record_query(aid("1110"), 0.2)
        assert stats.loads() == {"000": 2, "111": 1}
        assert stats.queries == 1
        assert stats.updates == 2

    def test_memory_bounded_by_groups_not_agents(self):
        stats = GroupedLoadStatistics(window=5.0, group_depth=2)
        for value in range(200):
            stats.record_update(AgentId(value, width=16), 0.0)
        assert stats.tracked_entries <= 4  # 2**2 groups at most

    def test_rate_aggregates(self):
        stats = GroupedLoadStatistics(window=1.0, group_depth=4)
        stats.record_update(aid("0000"), 0.0)
        stats.record_query(aid("1111"), 0.5)
        assert stats.rate(0.5) == pytest.approx(2.0)

    def test_estimated_agent_load_is_group_share(self):
        stats = GroupedLoadStatistics(window=5.0, group_depth=2)
        a, b = aid("0010"), aid("0001")
        for _ in range(4):
            stats.record_update(a, 0.0)
        for _ in range(2):
            stats.record_update(b, 0.0)
        # Both in group "00": 6 total over 2 members -> 3 each.
        assert stats.load_of(a) == 3
        assert stats.load_of(b) == 3
        assert stats.load_of(aid("1100")) == 0

    def test_forget_agent_releases_share(self):
        stats = GroupedLoadStatistics(window=5.0, group_depth=2)
        a, b = aid("0010"), aid("0001")
        for _ in range(4):
            stats.record_update(a, 0.0)
        for _ in range(4):
            stats.record_update(b, 0.0)
        stats.forget_agent(a)
        assert stats.loads()["00"] == 4
        stats.forget_agent(b)
        assert stats.loads() == {}

    def test_forget_unknown_agent_is_noop(self):
        stats = GroupedLoadStatistics(window=5.0, group_depth=2)
        stats.forget_agent(aid("0000"))
        assert stats.loads() == {}

    def test_adopt_agent_seeds_group(self):
        stats = GroupedLoadStatistics(window=5.0, group_depth=2)
        stats.adopt_agent(aid("0100"), load=7)
        assert stats.loads() == {"01": 7}

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            GroupedLoadStatistics(window=5.0, group_depth=0)


class TestDivide:
    @given(populations(), st.integers(1, 12))
    def test_is_split_loads_over_the_group_prefixes(self, population, group_depth):
        agents, positions = population
        stats = GroupedLoadStatistics(window=5.0, group_depth=group_depth)
        for width, value, load in agents:
            stats.adopt_agent(AgentId(value, width), load)
        assert stats.divide(positions) == divide_by_split_loads(stats, positions)

    @pytest.mark.parametrize("group_depth", [2, 3, 4])
    def test_none_past_the_group_depth(self, group_depth):
        stats = GroupedLoadStatistics(window=5.0, group_depth=group_depth)
        stats.adopt_agent(aid("0010"), 3)
        stats.adopt_agent(aid("0110"), 4)
        stats.adopt_agent(aid("1110"), 5)
        asked = stats.divide([3, 2])  # the asked bit 3: above, at, below
        assert asked[2] == [3, 9]
        assert asked[3] == (None if group_depth < 3 else [0, 12])
        assert GroupedLoadStatistics(5.0, group_depth).divide([9]) == {9: [0, 0]}


class TestGroupedModeIntegration:
    def test_mechanism_splits_with_grouped_stats(self):
        runtime = build_runtime(nodes=6)
        mechanism = install_hash_mechanism(
            runtime,
            stats_granularity="grouped",
            stats_group_depth=8,
            t_max=30.0,
        )
        spawn_population(runtime, 40, ConstantResidence(0.25))
        drain(runtime, 10.0)
        assert mechanism.iagent_count >= 3
        mechanism.hagent.tree.check_invariants()

    def test_shallow_groups_stall_deep_splits(self):
        """With 1-bit groups only the first split can be evaluated."""
        runtime = build_runtime(nodes=6)
        mechanism = install_hash_mechanism(
            runtime,
            stats_granularity="grouped",
            stats_group_depth=1,
            t_max=20.0,
        )
        spawn_population(runtime, 50, ConstantResidence(0.2))
        drain(runtime, 10.0)
        # The planner can judge bit 1 only: at most one split per side
        # of the root ever becomes evaluable; the tree stays tiny even
        # though the load would justify far more IAgents.
        assert mechanism.iagent_count <= 3

    def test_config_validates_granularity(self):
        from repro.core.config import HashMechanismConfig

        with pytest.raises(ValueError):
            HashMechanismConfig(stats_granularity="psychic").validate()
        with pytest.raises(ValueError):
            HashMechanismConfig(stats_group_depth=0).validate()
