"""Tests for the packaged paper scenarios."""

import pytest

from repro.workloads.scenarios import (
    EXP1_AGENT_COUNTS,
    EXP2_AGENT_COUNT,
    EXP2_RESIDENCE_TIMES_MS,
    PAPER_QUERY_TOTAL,
    PAPER_T_MAX,
    PAPER_T_MIN,
    Scenario,
    churn_schedule,
    exp1_scenario,
    exp2_scenario,
)


class TestPaperConstants:
    def test_threshold_ordering(self):
        assert PAPER_T_MAX > PAPER_T_MIN

    def test_exp1_counts_monotone(self):
        assert list(EXP1_AGENT_COUNTS) == sorted(EXP1_AGENT_COUNTS)

    def test_exp2_residences_monotone(self):
        assert list(EXP2_RESIDENCE_TIMES_MS) == sorted(EXP2_RESIDENCE_TIMES_MS)

    def test_query_total(self):
        assert PAPER_QUERY_TOTAL == 200


class TestScenarioFactories:
    def test_exp1_scenario_carries_population(self):
        scenario = exp1_scenario(50)
        assert scenario.num_agents == 50
        assert scenario.residence.mean() == 0.5
        assert scenario.total_queries == PAPER_QUERY_TOTAL
        assert scenario.config.t_max == PAPER_T_MAX

    def test_exp2_scenario_carries_residence(self):
        scenario = exp2_scenario(200)
        assert scenario.num_agents == EXP2_AGENT_COUNT
        assert scenario.residence.mean() == pytest.approx(0.2)

    def test_overrides_apply(self):
        scenario = exp1_scenario(10, total_queries=7, warmup=0.1)
        assert scenario.total_queries == 7
        assert scenario.warmup == 0.1

    def test_with_overrides_returns_copy(self):
        base = Scenario(name="base")
        derived = base.with_overrides(num_agents=99)
        assert derived.num_agents == 99
        assert base.num_agents != 99

    def test_seed_propagates(self):
        assert exp1_scenario(10, seed=42).seed == 42

    def test_scenario_names_distinct(self):
        names = {exp1_scenario(n).name for n in EXP1_AGENT_COUNTS}
        assert len(names) == len(EXP1_AGENT_COUNTS)


class TestChurnSchedule:
    NODES = ["node-0", "node-1", "node-2", "node-3", "node-4", "node-5"]

    def test_same_seed_is_byte_identical(self):
        first = churn_schedule(3, 10.0, self.NODES)
        second = churn_schedule(3, 10.0, self.NODES)
        assert first == second
        assert first.digest() == second.digest()

    def test_different_seeds_differ(self):
        assert churn_schedule(1, 10.0, self.NODES) != churn_schedule(
            2, 10.0, self.NODES
        )

    def test_every_leave_is_paired_with_a_later_heal(self):
        schedule = churn_schedule(3, 10.0, self.NODES)
        assert len(schedule) > 0
        down = {}
        for event in schedule.events:
            assert event.kind in ("partition-node", "heal-node")
            if event.kind == "partition-node":
                assert event.target not in down
                down[event.target] = event.at
            else:
                assert event.target in down
                assert event.at > down.pop(event.target)
        assert down == {}, "a churned node never rejoined"

    def test_quorum_floor_is_never_violated(self):
        # At most floor((1 - min_live_fraction) * n) nodes are gone at
        # once -- the invariant plain uniform sampling cannot give.
        for seed in range(1, 6):
            schedule = churn_schedule(
                seed, 20.0, self.NODES, min_live_fraction=0.5
            )
            max_down = len(self.NODES) // 2
            down = 0
            for event in schedule.events:
                down += 1 if event.kind == "partition-node" else -1
                assert 0 <= down <= max_down

    def test_outages_heal_before_the_settle_tail(self):
        schedule = churn_schedule(3, 10.0, self.NODES, settle_fraction=0.3)
        assert all(event.at <= 10.0 * 0.7 + 1e-9 for event in schedule.events)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            churn_schedule(1, 0.0, self.NODES)
        with pytest.raises(ValueError):
            churn_schedule(1, 10.0, [])
