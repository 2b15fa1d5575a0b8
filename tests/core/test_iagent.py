"""Unit tests for the IAgent protocol (direct handler calls)."""

import pytest

from repro.core.iagent import NO_RECORD, NOT_RESPONSIBLE, OK, pattern_matches
from repro.platform.messages import Request
from repro.platform.naming import AgentId

from tests.conftest import build_runtime, install_hash_mechanism


def make_iagent(**config_overrides):
    runtime = build_runtime()
    mechanism = install_hash_mechanism(runtime, **config_overrides)
    (iagent,) = mechanism.iagents.values()
    return runtime, mechanism, iagent


def call(iagent, op, **body):
    return iagent.handle(Request(op=op, body=body))


class TestPatternMatches:
    def test_empty_pattern_matches_all(self):
        assert pattern_matches("", "0101")

    def test_none_matches_nothing(self):
        assert not pattern_matches(None, "0101")

    def test_wildcards(self):
        assert pattern_matches("1x0", "100" + "1" * 61)
        assert pattern_matches("1x0", "110" + "1" * 61)
        assert not pattern_matches("1x0", "101" + "1" * 61)

    def test_pattern_longer_than_bits(self):
        assert not pattern_matches("0101", "01")


class TestRecordOps:
    def test_register_then_locate(self):
        _, _, iagent = make_iagent()
        agent_id = AgentId(42)
        assert call(iagent, "register", agent=agent_id, node="node-2")["status"] == OK
        reply = call(iagent, "locate", agent=agent_id)
        assert reply == {"status": OK, "node": "node-2", "seq": 0}

    def test_update_overwrites_location(self):
        _, _, iagent = make_iagent()
        agent_id = AgentId(42)
        call(iagent, "register", agent=agent_id, node="node-0")
        call(iagent, "update", agent=agent_id, node="node-3")
        assert call(iagent, "locate", agent=agent_id)["node"] == "node-3"

    def test_locate_unknown_agent_is_no_record(self):
        _, _, iagent = make_iagent()
        assert call(iagent, "locate", agent=AgentId(7))["status"] == NO_RECORD

    def test_unregister_removes_record(self):
        _, _, iagent = make_iagent()
        agent_id = AgentId(42)
        call(iagent, "register", agent=agent_id, node="node-0")
        call(iagent, "unregister", agent=agent_id)
        assert call(iagent, "locate", agent=agent_id)["status"] == NO_RECORD

    def test_out_of_coverage_is_not_responsible(self):
        _, _, iagent = make_iagent()
        iagent.coverage = "1"  # only ids starting with 1
        low_id = AgentId(0)
        assert (
            call(iagent, "register", agent=low_id, node="n")["status"]
            == NOT_RESPONSIBLE
        )
        assert call(iagent, "locate", agent=low_id)["status"] == NOT_RESPONSIBLE
        assert call(iagent, "update", agent=low_id, node="n")["status"] == NOT_RESPONSIBLE

    def test_unknown_op_rejected(self):
        _, _, iagent = make_iagent()
        with pytest.raises(ValueError):
            call(iagent, "frobnicate")


class TestLoadAccounting:
    def test_requests_recorded_per_agent(self):
        runtime, _, iagent = make_iagent()
        a, b = AgentId(1), AgentId(2)
        call(iagent, "register", agent=a, node="n")
        call(iagent, "update", agent=a, node="n")
        call(iagent, "locate", agent=b)  # no record, but responsible
        # Ids 1 and 2 differ in their last two bits.
        divisions = call(iagent, "get-loads", bits=[1, 63, 64])["divisions"]
        assert divisions == {1: [3, 0], 63: [2, 1], 64: [1, 2]}

    def test_rate_reflects_recent_traffic(self):
        runtime, _, iagent = make_iagent()
        for value in range(10):
            call(iagent, "update", agent=AgentId(value), node="n")
        assert call(iagent, "get-loads", bits=[])["rate"] > 0


class TestTransferOps:
    def test_extract_partitions_records_by_pattern(self):
        _, _, iagent = make_iagent()
        low, high = AgentId(0), AgentId(1 << 63)
        call(iagent, "register", agent=low, node="n-low")
        call(iagent, "register", agent=high, node="n-high")
        reply = call(iagent, "extract", pattern="0")
        assert reply["status"] == OK
        assert reply["records"] == {high: ["n-high", 0]}
        assert high in reply["loads"]
        assert iagent.coverage == "0"
        assert call(iagent, "locate", agent=low)["status"] == OK
        assert call(iagent, "locate", agent=high)["status"] == NOT_RESPONSIBLE

    def test_extract_all_empties_the_iagent(self):
        _, _, iagent = make_iagent()
        call(iagent, "register", agent=AgentId(5), node="n")
        reply = call(iagent, "extract-all")
        assert len(reply["records"]) == 1
        assert iagent.records == {}
        assert iagent.coverage is None

    def test_adopt_installs_records_and_coverage(self):
        _, _, iagent = make_iagent()
        migrant = AgentId(1 << 63)
        call(
            iagent,
            "adopt",
            records={migrant: ["node-1", 0]},
            loads={migrant: 9},
            pattern="1",
        )
        assert iagent.coverage == "1"
        assert iagent.stats.per_agent[migrant] == 9
        assert call(iagent, "locate", agent=migrant)["node"] == "node-1"

    def test_set_coverage(self):
        _, _, iagent = make_iagent()
        call(iagent, "set-coverage", pattern="01")
        assert iagent.coverage == "01"

    def test_ping_reports_location(self):
        _, _, iagent = make_iagent()
        reply = call(iagent, "ping")
        assert reply["status"] == OK
        assert reply["node"] == iagent.node_name


class TestPlacementSupport:
    def test_plurality_node_none_when_empty(self):
        _, _, iagent = make_iagent()
        assert iagent.plurality_node() is None

    def test_plurality_node_detects_majority(self):
        _, _, iagent = make_iagent(placement_majority=0.5)
        for value in range(6):
            call(iagent, "register", agent=AgentId(value), node="node-3")
        for value in range(6, 10):
            call(iagent, "register", agent=AgentId(value), node="node-1")
        assert iagent.plurality_node() == "node-3"

    def test_plurality_below_threshold_is_none(self):
        _, _, iagent = make_iagent(placement_majority=0.9)
        for value in range(6):
            call(iagent, "register", agent=AgentId(value), node="node-3")
        for value in range(6, 10):
            call(iagent, "register", agent=AgentId(value), node="node-1")
        assert iagent.plurality_node() is None
