"""Tests for the DurableStore facade: log, snapshot, compact, recover."""

import shutil

import pytest

from repro.platform.naming import AgentId
from repro.storage import (
    CorruptRecordError,
    DurableStore,
    RecordTooLargeError,
    StorageWarning,
)


def apply_put(state, op):
    """A toy reducer over {key: value} mutations (dict state, in place)."""
    if op["op"] == "put":
        state[op["key"]] = op["value"]
    elif op["op"] == "del":
        state.pop(op["key"], None)


class TestRecover:
    def test_wal_only_recovery(self, tmp_path):
        store = DurableStore(tmp_path, "shard", fsync="never")
        store.log({"op": "put", "key": "a", "value": 1})
        store.log({"op": "put", "key": "b", "value": 2})
        store.log({"op": "del", "key": "a"})
        store.close()

        reopened = DurableStore(tmp_path, "shard", fsync="never")
        result = reopened.recover(initial=dict, apply=apply_put)
        assert result.state == {"b": 2}
        assert result.snapshot_lsn == 0
        assert result.replayed == 3
        assert result.elapsed_s >= 0.0
        reopened.close()

    def test_snapshot_plus_suffix_recovery(self, tmp_path):
        store = DurableStore(tmp_path, "shard", fsync="never")
        state = {}
        for index in range(5):
            op = {"op": "put", "key": f"k{index}", "value": index}
            apply_put(state, op)
            store.log(op)
        store.snapshot(state)
        store.log({"op": "put", "key": "late", "value": 99})
        store.close()

        reopened = DurableStore(tmp_path, "shard", fsync="never")
        result = reopened.recover(initial=dict, apply=apply_put)
        assert result.snapshot_lsn == 5
        assert result.replayed == 1  # only the post-snapshot suffix
        assert result.state == {**state, "late": 99}
        reopened.close()

    def test_apply_may_return_replacement_state(self, tmp_path):
        store = DurableStore(tmp_path, "shard", fsync="never")
        store.log(3)
        store.log(4)
        store.close()
        reopened = DurableStore(tmp_path, "shard", fsync="never")
        result = reopened.recover(initial=lambda: 0, apply=lambda s, v: s + v)
        assert result.state == 7
        reopened.close()

    def test_fresh_store_recovers_initial(self, tmp_path):
        store = DurableStore(tmp_path, "shard", fsync="never")
        assert not store.has_data
        result = store.recover(initial=lambda: {"empty": True}, apply=apply_put)
        assert result.state == {"empty": True}
        assert result.replayed == 0
        store.close()

    def test_agent_ids_round_trip_through_recovery(self, tmp_path):
        store = DurableStore(tmp_path, "shard", fsync="never")
        agent = AgentId(0xBEEF)
        store.log({"op": "put", "key": agent, "value": ["node-1", 2]})
        store.close()
        reopened = DurableStore(tmp_path, "shard", fsync="never")
        result = reopened.recover(initial=dict, apply=apply_put)
        assert result.state == {agent: ["node-1", 2]}
        assert isinstance(next(iter(result.state)), AgentId)
        reopened.close()


class TestCompaction:
    def test_snapshot_drops_covered_segments(self, tmp_path):
        store = DurableStore(
            tmp_path, "shard", fsync="never", segment_max_bytes=128
        )
        state = {}
        for index in range(30):
            op = {"op": "put", "key": f"k{index}", "value": index}
            apply_put(state, op)
            store.log(op)
        assert len(store.wal.segments()) > 1
        store.snapshot(state)
        assert store.compacted_segments > 0
        assert len(store.wal.segments()) == 1
        # Recovery still sees everything, now through the snapshot.
        result = store.recover(initial=dict, apply=apply_put)
        assert result.state == state
        assert result.replayed == 0
        store.close()

    def test_auto_snapshot_threshold(self, tmp_path):
        store = DurableStore(tmp_path, "shard", fsync="never", snapshot_every=4)
        for index in range(3):
            store.log({"op": "put", "key": "k", "value": index})
            assert not store.should_snapshot
        store.log({"op": "put", "key": "k", "value": 3})
        assert store.should_snapshot
        store.snapshot({"k": 3})
        assert not store.should_snapshot
        store.close()

    def test_snapshot_every_zero_disables_auto(self, tmp_path):
        store = DurableStore(tmp_path, "shard", fsync="never", snapshot_every=0)
        for index in range(10):
            store.log({"op": "put", "key": "k", "value": index})
        assert not store.should_snapshot
        store.close()


def twenty_five_values(root, **kwargs):
    """Log 0-9, snapshot, 10-19, snapshot, 20-24; close; return the store."""
    store = DurableStore(root, "shard", fsync="never", snapshot_every=0, **kwargs)
    logged = []
    for chunk in (range(10), range(10, 20), range(20, 25)):
        for value in chunk:
            store.log(value)
            logged.append(value)
        if len(logged) < 25:
            store.snapshot(list(logged))
    store.close()
    return store


def flip_last_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))


def recover_list(root, **kwargs):
    store = DurableStore(root, "shard", fsync="never", snapshot_every=0, **kwargs)
    try:
        return store.recover(initial=list, apply=lambda state, value: state.append(value))
    finally:
        store.close()


class TestDamagedHistory:
    """One bad file costs a longer replay; a hole in the log is an error."""

    def test_a_damaged_newest_snapshot_recovers_the_full_history(self, tmp_path):
        store = twenty_five_values(tmp_path)
        flip_last_byte(store.snapshots.list()[-1])
        with pytest.warns(StorageWarning, match="snapshot CRC mismatch"):
            result = recover_list(tmp_path)
        assert (result.snapshot_lsn, result.replayed) == (10, 15)
        assert result.state == list(range(25))

    def test_compaction_keeps_the_suffix_of_the_oldest_kept_snapshot(self, tmp_path):
        store = twenty_five_values(tmp_path, segment_max_bytes=32)
        first_lsns = [int(path.stem.split("-")[1]) for path in store.wal.segments()]
        assert first_lsns[0] <= 11 and store.compacted_segments > 0
        # With one snapshot kept, compaction reaches the newest one.
        store = twenty_five_values(tmp_path / "one", snapshot_keep=1)
        assert [path.name for path in store.wal.segments()] == [
            "wal-0000000000000021.log"
        ]

    def test_every_snapshot_damaged_is_an_error_not_a_shorter_history(self, tmp_path):
        store = twenty_five_values(tmp_path)
        for path in store.snapshots.list():
            flip_last_byte(path)
        with pytest.warns(StorageWarning):
            with pytest.raises(CorruptRecordError, match="records 1..10 are missing"):
                recover_list(tmp_path)

    def test_a_deleted_middle_segment_raises(self, tmp_path):
        store = twenty_five_values(tmp_path, segment_max_bytes=32)
        # Two records a segment: delete the one holding LSNs 21 and 22,
        # past the newest snapshot and before the log's last segment.
        middle = tmp_path / "shard" / "wal" / "wal-0000000000000021.log"
        assert middle in store.wal.segments()[:-1]
        middle.unlink()
        with pytest.raises(CorruptRecordError, match="records 21..22 are missing"):
            recover_list(tmp_path)

    def test_a_log_that_ends_early_raises(self, tmp_path):
        store = twenty_five_values(tmp_path, segment_max_bytes=32)
        reopened = DurableStore(tmp_path, "shard", fsync="never")
        reopened.wal.rotate()
        reopened.close()
        for path in store.snapshots.list():
            flip_last_byte(path)
        for path in reopened.wal.segments()[:-1]:
            path.unlink()
        with pytest.warns(StorageWarning):
            with pytest.raises(CorruptRecordError, match="records 1..25 are missing"):
                recover_list(tmp_path)

    def test_a_lost_log_resumes_above_the_newest_snapshot(self, tmp_path):
        store = DurableStore(tmp_path, "shard", fsync="never", snapshot_every=0)
        for value in range(20):
            store.log(value)
        store.snapshot(list(range(20)))
        store.close()
        shutil.rmtree(tmp_path / "shard" / "wal")
        reopened = DurableStore(tmp_path, "shard", fsync="never", snapshot_every=0)
        assert [reopened.log(value) for value in range(20, 23)] == [21, 22, 23]
        reopened.close()
        result = recover_list(tmp_path)
        assert (result.snapshot_lsn, result.replayed) == (20, 3)
        assert result.state == list(range(23))


class TestLifecycle:
    def test_reset_wipes_history(self, tmp_path):
        store = DurableStore(tmp_path, "shard", fsync="never")
        store.log({"op": "put", "key": "stale", "value": 1})
        store.snapshot({"stale": 1})
        assert store.has_data
        store.reset()
        assert not store.has_data
        result = store.recover(initial=dict, apply=apply_put)
        assert result.state == {}
        store.close()

    def test_abort_preserves_flushed_records(self, tmp_path):
        """An in-process crash loses nothing that reached the OS."""
        store = DurableStore(tmp_path, "shard", fsync="never")
        store.log({"op": "put", "key": "a", "value": 1})
        store.abort()
        reopened = DurableStore(tmp_path, "shard", fsync="never")
        result = reopened.recover(initial=dict, apply=apply_put)
        assert result.state == {"a": 1}
        reopened.close()

    def test_max_record_guard_passes_through(self, tmp_path):
        store = DurableStore(tmp_path, "shard", fsync="never", max_record=32)
        with pytest.raises(RecordTooLargeError):
            store.log({"blob": "y" * 100})
        store.close()

    def test_stats_shape(self, tmp_path):
        store = DurableStore(tmp_path, "shard", fsync="never")
        store.log({"op": "put", "key": "a", "value": 1})
        store.snapshot({"a": 1})
        stats = store.stats()
        assert stats["name"] == "shard"
        assert stats["last_lsn"] == 1
        assert stats["snapshots"] == 1
        assert stats["appended"] == 1
        store.close()
