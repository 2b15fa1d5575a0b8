"""Unit tests for the ablation setups and their rows' tables (quick settings)."""

import pytest

from repro.harness.ablations import (
    PLACEMENT_CLUSTER,
    SKEW_PREFIX,
    _campus_topology,
)
from repro.harness.experiments import experiment

from tests.conftest import build_runtime


class TestCampusTopology:
    def test_cluster_is_wan_separated(self):
        runtime = build_runtime(nodes=8)
        _campus_topology(runtime)
        wan = runtime.network.link_between("node-0", PLACEMENT_CLUSTER[0])
        lan = runtime.network.link_between("node-0", "node-1")
        assert wan.latency > 10 * lan.latency

    def test_skew_prefix_is_binary(self):
        assert set(SKEW_PREFIX) <= {"0", "1"}
        assert len(SKEW_PREFIX) >= 4


def quick_table(name):
    row = experiment(name)
    return row.table(row.run((1,), True, None))


class TestTableRenderers:
    """Each row's table is aligned and holds the variant rows.

    These run the underlying experiments once in quick mode -- slowish
    (a few seconds each) but they guard the public CLI surface.
    """

    def test_split_policy_table(self):
        table = quick_table("split-policy")
        lines = table.splitlines()
        assert "policy" in lines[0]
        assert any("simple-only" in line for line in lines)
        assert any("complex(path)" in line for line in lines)
        assert len(lines) == 5  # header + rule + 3 variants

    def test_placement_table(self):
        table = quick_table("placement")
        assert "placement off" in table
        assert "placement on" in table

    def test_failover_table(self):
        table = quick_table("failover")
        assert "no backup" in table
        assert "primary/backup" in table
        assert "failed locates" in table
