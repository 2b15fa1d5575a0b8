"""Tests for the segmented write-ahead log.

The centrepiece is the torn-write sweep: a segment is truncated at
*every* byte offset of its final record, and recovery must yield
exactly the durable prefix each time -- never a partial record, never
a lost earlier one.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.naming import AgentId
from repro.storage import (
    CorruptRecordError,
    RecordTooLargeError,
    StorageError,
    StorageWarning,
    WriteAheadLog,
)


def replayed_values(wal):
    return [record.value for record in wal.replay()]


class TestAppendReplay:
    def test_round_trip_in_order(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        values = [
            {"op": "put", "agent": AgentId(7), "node": "node-1", "seq": 0},
            {"op": "del", "agent": AgentId(7)},
            {"op": "coverage", "pattern": ""},
            {"op": "coverage", "pattern": None},
        ]
        for value in values:
            wal.append(value)
        assert replayed_values(wal) == values
        assert [r.lsn for r in wal.replay()] == [1, 2, 3, 4]
        wal.close()

    def test_ids_are_journaled_as_aid_documents_byte_for_byte(self, tmp_path):
        # The record the commit before AgentId became a tuple subclass
        # wrote for this entry: a data dir written on either side of
        # that change replays on the other.
        entry = {
            "op": "adopt",
            "pattern": "1x0",
            "records": {
                AgentId(5, 64): ["node-1", 3],
                AgentId(0x9E3779B97F4A7C15, 64): ["node-\u00e9", 0],
                AgentId(5, 8): ["node-2", 1],
            },
            "capabilities": {AgentId(5, 64): {"gpu": True}},
            "pairs": {(5, 64): "a pair, not an id"},
        }
        wal = WriteAheadLog(tmp_path, fsync="never")
        wal.append(entry)
        wal.close()
        (segment,) = tmp_path.iterdir()
        payload = segment.read_bytes()[12 + 16 :]  # segment header, record header
        assert payload == (
            b'{"op":"adopt","pattern":"1x0","records":{"$dict":['
            b'[{"$aid":[5,64]},["node-1",3]],'
            b'[{"$aid":[11400714819323198485,64]},["node-\xc3\xa9",0]],'
            b'[{"$aid":[5,8]},["node-2",1]]]},'
            b'"capabilities":{"$dict":[[{"$aid":[5,64]},{"gpu":true}]]},'
            b'"pairs":{"$dict":[[{"$tuple":[5,64]},"a pair, not an id"]]}}'
        )
        (replayed,) = replayed_values(WriteAheadLog(tmp_path, fsync="never"))
        assert replayed == entry
        assert {type(key) for key in replayed["records"]} == {AgentId}
        assert [type(key) for key in replayed["pairs"]] == [tuple]

    def test_replay_after_skips_prefix(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        for index in range(10):
            wal.append({"n": index})
        # LSNs are 1-based: record n carries lsn n+1.
        assert [r.value["n"] for r in wal.replay(after=7)] == [7, 8, 9]
        wal.close()

    def test_reopen_resumes_lsn_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        for index in range(5):
            wal.append({"n": index})
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync="never")
        assert reopened.last_lsn == 5
        assert reopened.append({"n": 5}) == 6
        assert [r.lsn for r in reopened.replay()] == list(range(1, 7))
        reopened.close()

    def test_rotation_spreads_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never", segment_max_bytes=120)
        for index in range(12):
            wal.append({"n": index})
        assert len(wal.segments()) > 1
        assert [r.value["n"] for r in wal.replay()] == list(range(12))
        wal.close()

    def test_append_after_close_is_refused(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        wal.close()
        with pytest.raises(StorageError):
            wal.append({"n": 1})

    def test_truncate_until_drops_covered_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never", segment_max_bytes=120)
        for index in range(12):
            wal.append({"n": index})
        before = len(wal.segments())
        removed = wal.truncate_until(wal.last_lsn)
        # Everything but the active segment is droppable.
        assert removed == before - 1
        assert len(wal.segments()) == 1
        assert wal.append({"n": 12}) == 13
        wal.close()

    @given(
        st.lists(
            st.dictionaries(
                st.text(min_size=1, max_size=8),
                st.one_of(
                    st.integers(min_value=-(2**62), max_value=2**62),
                    st.text(max_size=16),
                    st.none(),
                    st.booleans(),
                ),
                max_size=4,
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_any_jsonable_payload_round_trips(self, tmp_path_factory, values):
        directory = tmp_path_factory.mktemp("wal-prop")
        wal = WriteAheadLog(directory, fsync="never", segment_max_bytes=256)
        for value in values:
            wal.append(value)
        assert replayed_values(wal) == values
        wal.close()


class TestGuards:
    def test_oversized_record_rejected_with_typed_error(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never", max_record=64)
        with pytest.raises(RecordTooLargeError):
            wal.append({"blob": "x" * 200})
        # The log stays usable and the reject left nothing behind.
        assert wal.append({"ok": True}) == 1
        assert len(replayed_values(wal)) == 1
        wal.close()

    def test_record_too_large_is_a_storage_error(self):
        assert issubclass(RecordTooLargeError, StorageError)

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_fsync_always_syncs_every_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="always")
        for index in range(3):
            wal.append({"n": index})
        assert wal.syncs >= 3
        wal.close()


def _fill_segment(tmp_path, records=6):
    """One closed single-segment WAL and its durable record values."""
    wal = WriteAheadLog(tmp_path, fsync="never")
    values = [{"n": index, "pad": "p" * (index % 5)} for index in range(records)]
    for value in values:
        wal.append(value)
    wal.close()
    (segment,) = wal.segments()
    return segment, values


class TestTornWrites:
    def test_truncation_at_every_byte_of_the_final_record(self, tmp_path):
        """The satellite sweep: cut the tail at every offset, recover.

        For each truncation point inside the final record, reopening
        must warn, truncate, and replay exactly the first N-1 records.
        """
        segment, values = _fill_segment(tmp_path / "proto")
        data = segment.read_bytes()
        # Find where the final record starts by re-measuring the prefix.
        proto = WriteAheadLog(tmp_path / "measure", fsync="never")
        for value in values[:-1]:
            proto.append(value)
        proto.close()
        (measured,) = proto.segments()
        final_start = measured.stat().st_size
        assert final_start < len(data)

        # Cutting exactly at the record boundary is a *clean* log.
        boundary_dir = tmp_path / "cut-boundary"
        boundary_dir.mkdir()
        (boundary_dir / segment.name).write_bytes(data[:final_start])
        clean = WriteAheadLog(boundary_dir, fsync="never")
        assert replayed_values(clean) == values[:-1]
        assert clean.torn_tails_truncated == 0
        clean.close()

        for cut in range(final_start + 1, len(data)):
            directory = tmp_path / f"cut-{cut}"
            directory.mkdir()
            (directory / segment.name).write_bytes(data[:cut])
            with pytest.warns(StorageWarning):
                wal = WriteAheadLog(directory, fsync="never")
            assert replayed_values(wal) == values[:-1], f"cut at byte {cut}"
            assert wal.last_lsn == len(values) - 1
            assert wal.torn_tails_truncated == 1
            # The log must remain appendable after truncation.
            assert wal.append({"post": cut}) == len(values)
            wal.close()

    def test_torn_segment_header_recovers_empty(self, tmp_path):
        segment, _ = _fill_segment(tmp_path)
        segment.write_bytes(segment.read_bytes()[:4])  # inside the magic
        with pytest.warns(StorageWarning):
            wal = WriteAheadLog(tmp_path, fsync="never")
        assert replayed_values(wal) == []
        assert wal.append({"fresh": True}) == 1
        wal.close()

    def test_clean_reopen_does_not_warn(self, tmp_path):
        _fill_segment(tmp_path)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", StorageWarning)
            wal = WriteAheadLog(tmp_path, fsync="never")
        assert wal.torn_tails_truncated == 0
        wal.close()


class TestMidLogCorruption:
    def test_bit_flip_mid_log_raises(self, tmp_path):
        """Damage before the tail is corruption, not a torn write."""
        segment, _ = _fill_segment(tmp_path)
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        with pytest.raises(CorruptRecordError):
            WriteAheadLog(tmp_path, fsync="never")

    def test_truncated_earlier_segment_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never", segment_max_bytes=120)
        for index in range(12):
            wal.append({"n": index})
        wal.close()
        segments = wal.segments()
        assert len(segments) >= 2
        first = segments[0]
        first.write_bytes(first.read_bytes()[:-3])
        reopened = WriteAheadLog(tmp_path, fsync="never")
        with pytest.raises(CorruptRecordError):
            list(reopened.replay())
        reopened.close()

    def test_bad_magic_raises(self, tmp_path):
        segment, _ = _fill_segment(tmp_path)
        data = bytearray(segment.read_bytes())
        data[:8] = b"NOTAWAL!"
        segment.write_bytes(bytes(data))
        with pytest.raises(CorruptRecordError):
            WriteAheadLog(tmp_path, fsync="never")

    def test_garbage_length_prefix_cannot_allocate(self, tmp_path):
        """A corrupt length larger than max_record is refused outright."""
        segment, values = _fill_segment(tmp_path, records=3)
        data = bytearray(segment.read_bytes())
        # Overwrite the first record's length field with a huge value
        # while keeping it consistent with the segment size check.
        header_size = 12  # magic + version
        struct.pack_into(">I", data, header_size, 9 * 1024 * 1024)
        data += b"\0" * (10 * 1024 * 1024 - len(data))
        segment.write_bytes(bytes(data))
        with pytest.raises(CorruptRecordError):
            WriteAheadLog(tmp_path, fsync="never")
