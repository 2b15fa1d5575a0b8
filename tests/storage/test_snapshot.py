"""Tests for atomic snapshots: round-trip, pruning, damage tolerance."""

import pytest

from repro.platform.naming import AgentId
from repro.storage import SnapshotStore, StorageError, StorageWarning


STATE = {
    "coverage": "01",
    "records": {AgentId(5): ["node-1", 3], AgentId(9): ["node-2", 0]},
}

#: Mixed key widths (a tagged dict) beside a one-key id table.
ID_TABLE_STATE = {
    "coverage": "1x0",
    "records": {
        AgentId(5, 64): ["node-1", 3],
        AgentId(0x9E3779B97F4A7C15, 64): ["node-\u00e9", 0],
        AgentId(5, 8): ["node-2", 1],
    },
    "capabilities": {AgentId(5, 64): {"gpu": True}},
}


class TestSaveAndLoad:
    def test_round_trip_with_tagged_values(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(STATE, last_lsn=17)
        snapshot = store.latest()
        assert snapshot is not None
        assert snapshot.last_lsn == 17
        assert snapshot.state == STATE
        # AgentId keys come back as AgentId, not strings.
        assert all(
            isinstance(key, AgentId) for key in snapshot.state["records"]
        )

    def test_a_format_1_snapshot_is_skipped_naming_the_last_reader(self, tmp_path):
        # The whole format-1 file (header, crc, tagged-JSON body) every
        # tagged-JSON writer wrote for this state: it is not read.
        (tmp_path / "snap-0000000000000007.snap").write_bytes(
            b"REPROSNP\x00\x00\x00\x01\x82\xd5\xc0\xde\x00\x00\x00\x00\x00\x00\x00\xe9"
            b'{"last_lsn":7,"state":{"coverage":"1x0","records":{"$dict":['
            b'[{"$aid":[5,64]},["node-1",3]],'
            b'[{"$aid":[11400714819323198485,64]},["node-\xc3\xa9",0]],'
            b'[{"$aid":[5,8]},["node-2",1]]]},'
            b'"capabilities":{"$dict":[[{"$aid":[5,64]},{"gpu":true}]]}}}'
        )
        store = SnapshotStore(tmp_path)
        with pytest.warns(StorageWarning, match="format 1 .* commit 60a13cf"):
            assert store.latest() is None
        assert store.invalid_skipped == 1

    def test_a_table_of_ids_is_written_in_the_binary_codec_byte_for_byte(self, tmp_path):
        path = SnapshotStore(tmp_path).save(ID_TABLE_STATE, last_lsn=7)
        assert path.read_bytes() == (
            # magic, format 2, crc32, body length
            b"REPROSNP\x00\x00\x00\x02\x01\x84\x92{\x00\x00\x00\x00\x00\x00\x00\x87"
            b"\t\x02\x08last_lsn\x03\x0e\x05state"
            b"\t\x03\x08coverage\x05\x031x0\x07records\n\x03"
            b"\x10\x00\x00\x00\x00\x00\x00\x00\x05\x08\x02\x05\x06node-1\x03\x06"
            b"\x10\x9e7y\xb9\x7fJ|\x15\x08\x02\x05\x07node-\xc3\xa9\x03\x00"
            b"\x06\x05\x08\x08\x02\x05\x06node-2\x03\x02"
            b"\x0ccapabilities\r\x01@\x00\x00\x00\x00\x00\x00\x00\x00\x05\t\x01\x03gpu\x01"
        )
        loaded = SnapshotStore(tmp_path).latest().state
        assert loaded == ID_TABLE_STATE
        assert {type(key) for key in loaded["records"]} == {AgentId}

    def test_an_unencodable_state_is_a_storage_error(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with pytest.raises(StorageError, match="not wire-encodable"):
            store.save({"blob": object()}, last_lsn=1)
        assert list(tmp_path.iterdir()) == []

    def test_latest_wins(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"v": 1}, last_lsn=10)
        store.save({"v": 2}, last_lsn=20)
        assert store.latest().state == {"v": 2}

    def test_empty_directory_has_no_latest(self, tmp_path):
        assert SnapshotStore(tmp_path).latest() is None

    def test_no_tmp_leftovers_after_save(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(STATE, last_lsn=1)
        assert list(tmp_path.glob("*.tmp")) == []


class TestPruning:
    def test_keep_bounds_snapshot_count(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for lsn in (1, 2, 3, 4, 5):
            store.save({"lsn": lsn}, last_lsn=lsn)
        assert len(store.list()) == 2
        assert store.latest().last_lsn == 5

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path, keep=0)

    def test_prune_removes_stale_tmp_files(self, tmp_path):
        store = SnapshotStore(tmp_path)
        (tmp_path / "snap-0000000000000009.tmp").write_bytes(b"half-written")
        store.prune()
        assert list(tmp_path.glob("*.tmp")) == []


class TestDamage:
    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"v": 1}, last_lsn=10)
        newest = store.save({"v": 2}, last_lsn=20)
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0xFF
        newest.write_bytes(bytes(data))
        with pytest.warns(StorageWarning):
            snapshot = store.latest()
        assert snapshot.state == {"v": 1}
        assert store.invalid_skipped == 1

    def test_truncated_header_is_skipped(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = store.save({"v": 1}, last_lsn=5)
        path.write_bytes(path.read_bytes()[:6])
        with pytest.warns(StorageWarning):
            assert store.latest() is None

    def test_bad_magic_is_skipped(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = store.save({"v": 1}, last_lsn=5)
        data = bytearray(path.read_bytes())
        data[:8] = b"WHATEVER"
        path.write_bytes(bytes(data))
        with pytest.warns(StorageWarning):
            assert store.latest() is None
