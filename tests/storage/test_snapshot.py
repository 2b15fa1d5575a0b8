"""Tests for atomic snapshots: round-trip, pruning, damage tolerance."""

import pytest

from repro.platform.naming import AgentId
from repro.storage import SnapshotStore, StorageWarning


STATE = {
    "coverage": "01",
    "records": {AgentId(5): ["node-1", 3], AgentId(9): ["node-2", 0]},
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

    def test_a_table_of_ids_is_written_byte_for_byte_as_before(self, tmp_path):
        # The whole file (header, crc, body) the commit before AgentId
        # became a tuple subclass wrote for this state.
        state = {
            "coverage": "1x0",
            "records": {
                AgentId(5, 64): ["node-1", 3],
                AgentId(0x9E3779B97F4A7C15, 64): ["node-\u00e9", 0],
                AgentId(5, 8): ["node-2", 1],
            },
            "capabilities": {AgentId(5, 64): {"gpu": True}},
        }
        path = SnapshotStore(tmp_path).save(state, last_lsn=7)
        assert path.read_bytes() == (
            b"REPROSNP\x00\x00\x00\x01\x82\xd5\xc0\xde\x00\x00\x00\x00\x00\x00\x00\xe9"
            b'{"last_lsn":7,"state":{"coverage":"1x0","records":{"$dict":['
            b'[{"$aid":[5,64]},["node-1",3]],'
            b'[{"$aid":[11400714819323198485,64]},["node-\xc3\xa9",0]],'
            b'[{"$aid":[5,8]},["node-2",1]]]},'
            b'"capabilities":{"$dict":[[{"$aid":[5,64]},{"gpu":true}]]}}}'
        )
        loaded = SnapshotStore(tmp_path).latest().state
        assert loaded == state
        assert {type(key) for key in loaded["records"]} == {AgentId}

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
