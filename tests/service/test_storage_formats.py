"""An IAgent data dir the parent commit wrote (WAL and snapshot format
1, tagged JSON) recovers here, and appending to it starts a format-2
segment instead of mixing formats in one file.

The fixture under ``data/iagent-pr34/`` was written by
:func:`scripted_iagent` at the parent commit, with ``expected.json``
recording the journal entries it logged and the table it ended with.
"""

import copy
import json
import shutil
import struct
from pathlib import Path

from repro.platform.jsonable import from_jsonable
from repro.platform.naming import AgentId
from repro.service.server import IAgentEndpoint, NodeServer, ServiceConfig
from repro.storage import DurableStore

from tests.conftest import in_running_loop

FIXTURE = Path(__file__).resolve().parent / "data" / "iagent-pr34"
STORE = "iagent-1"

LOW = AgentId(0x1234_5678_9ABC_DEF0, 64)  # top bit 0
HIGH = AgentId(0x9E37_79B9_7F4A_7C15, 64)  # top bit 1
MID = AgentId(0x5A5A_5A5A_5A5A_5A5A, 64)
ADOPTED_HIGH = AgentId(0xC001_D00D_0000_0001, 64)
ADOPTED_LOW = AgentId(0x0000_0000_0000_0101, 64)


def parent_wrote():
    """``{"table", "wal_values"}`` as the parent commit recorded them
    beside the ``data_dir`` it wrote for :func:`scripted_iagent`."""
    return from_jsonable(json.loads((FIXTURE / "expected.json").read_text()))


def scripted_iagent(data_dir):
    """coverage, 3 puts (one with capabilities), a del -- the snapshot
    at LSN 5 -- then adopt, a move and an extract in the WAL suffix.
    Returns the values it journaled and the table it ended with."""
    store = DurableStore(data_dir, STORE, fsync="always", snapshot_every=5)
    logged = []
    log = store.log

    def record(value):
        logged.append(copy.deepcopy(value))
        return log(value)

    store.log = record
    node = NodeServer("probe", ("127.0.0.1", 1), ServiceConfig())
    endpoint = IAgentEndpoint(AgentId(1), node, None, store=store)
    endpoint.op_set_coverage({"pattern": ""})
    endpoint.op_register({"agent": LOW, "node": "node-0", "seq": 1})
    endpoint.op_register(
        {"agent": HIGH, "node": "node-é", "seq": 1, "capabilities": {"gpu": True}}
    )
    endpoint.op_register({"agent": MID, "node": "node-1", "seq": 2})
    endpoint.op_unregister({"agent": MID, "seq": 2})
    endpoint.op_adopt(
        {
            "records": {ADOPTED_HIGH: ["node-2", 4], ADOPTED_LOW: ["node-0", 1]},
            "loads": {},
            "capabilities": {ADOPTED_HIGH: {"relay": True}, ADOPTED_LOW: {"zone": "eu"}},
            "pattern": "",
        }
    )
    endpoint.op_register({"agent": LOW, "node": "node-2", "seq": 3})
    endpoint.op_extract({"pattern": "0"})
    table = copy.deepcopy(endpoint.state.table)
    store.close()
    return logged, table


def segment_versions(store):
    return [struct.unpack(">8sI", path.read_bytes()[:12])[1] for path in store.wal.segments()]


def recover(store):
    return store.recover(
        initial=IAgentEndpoint.initial_state, apply=IAgentEndpoint.apply_mutation
    )


class TestParentIAgentDataDir:
    def test_recovers_through_apply_mutation_to_the_parents_table(self, tmp_path):
        shutil.copytree(FIXTURE / "data_dir", tmp_path / "data_dir")
        store = DurableStore(tmp_path / "data_dir", STORE)
        assert segment_versions(store) == [1]
        result = recover(store)
        store.close()
        assert (result.snapshot_lsn, result.replayed, result.last_lsn) == (5, 3, 8)
        assert result.state == parent_wrote()["table"]
        assert {type(key) for key in result.state["records"]} == {AgentId}

    def test_an_append_starts_a_v2_segment_and_replay_spans_both(self, tmp_path):
        shutil.copytree(FIXTURE / "data_dir", tmp_path / "data_dir")
        store = DurableStore(tmp_path / "data_dir", STORE)
        appended = [
            {"op": "put", "agent": MID, "node": "node-3", "seq": 4},
            {"op": "del", "agent": LOW},
        ]
        assert [store.log(value) for value in appended] == [9, 10]
        assert segment_versions(store) == [1, 2]
        records = list(store.wal.replay(after=5))
        assert [record.lsn for record in records] == [6, 7, 8, 9, 10]
        assert [record.value for record in records] == (
            parent_wrote()["wal_values"][5:] + appended
        )
        store.close()
        reopened = DurableStore(tmp_path / "data_dir", STORE)
        table = recover(reopened).state
        reopened.close()
        expected = parent_wrote()["table"]
        for value in appended:
            IAgentEndpoint.apply_mutation(expected, value)
        assert table == expected

    @in_running_loop
    def test_the_same_script_journals_what_the_parent_journaled(self, tmp_path):
        logged, table = scripted_iagent(tmp_path)
        expected = parent_wrote()
        assert logged == expected["wal_values"]
        assert [value["op"] for value in logged] == [
            "coverage", "put", "put", "put", "del", "adopt", "put", "extract",
        ]
        assert table == expected["table"]
