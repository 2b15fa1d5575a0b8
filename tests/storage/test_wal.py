"""Tests for the segmented write-ahead log.

The centrepiece is the torn-write sweep: a segment is truncated at
*every* byte offset of its final record, and recovery must yield
exactly the durable prefix each time -- never a partial record, never
a lost earlier one.
"""

import os
import struct
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.binary import BinaryCodecError
from repro.platform.naming import AgentId
from repro.storage import (
    CorruptRecordError,
    DurableStore,
    RecordTooLargeError,
    StorageError,
    StorageWarning,
    WriteAheadLog,
)


def replayed_values(wal):
    return [record.value for record in wal.replay()]


ADOPT = {
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

#: ADOPT as a format-1 (tagged JSON) record payload.
ADOPT_V1_PAYLOAD = (
    b'{"op":"adopt","pattern":"1x0","records":{"$dict":['
    b'[{"$aid":[5,64]},["node-1",3]],'
    b'[{"$aid":[11400714819323198485,64]},["node-\xc3\xa9",0]],'
    b'[{"$aid":[5,8]},["node-2",1]]]},'
    b'"capabilities":{"$dict":[[{"$aid":[5,64]},{"gpu":true}]]},'
    b'"pairs":{"$dict":[[{"$tuple":[5,64]},"a pair, not an id"]]}}'
)


def record_bytes(lsn, payload):
    """One record as the log lays it out: u32 len, u32 crc, u64 lsn, payload."""
    crc = zlib.crc32(payload, zlib.crc32(struct.pack(">Q", lsn)))
    return struct.pack(">IIQ", len(payload), crc, lsn) + payload


def v1_segment(payloads):
    """A format-1 segment holding ``payloads`` as LSNs 1, 2, ..."""
    return b"REPROWAL" + struct.pack(">I", 1) + b"".join(
        record_bytes(lsn, payload) for lsn, payload in enumerate(payloads, start=1)
    )


def segment_version(path):
    return struct.unpack(">I", path.read_bytes()[8:12])[0]


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
        # The format-1 record the commit before AgentId became a tuple
        # subclass wrote for ADOPT (and every format-1 writer after it):
        # a data dir written on either side of that change, or before
        # the binary format, replays here.
        (tmp_path / "wal-0000000000000001.log").write_bytes(
            v1_segment([ADOPT_V1_PAYLOAD])
        )
        wal = WriteAheadLog(tmp_path, fsync="never")
        (replayed,) = replayed_values(wal)
        wal.close()
        assert replayed == ADOPT
        assert {type(key) for key in replayed["records"]} == {AgentId}
        assert [type(key) for key in replayed["pairs"]] == [tuple]

    def test_ids_are_journaled_in_the_binary_codec_byte_for_byte(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        wal.append(ADOPT)
        wal.close()
        (segment,) = tmp_path.iterdir()
        assert segment.read_bytes() == (
            b"REPROWAL\x00\x00\x00\x02"  # segment header, format 2
            b"\x00\x00\x00\x9fb\xda\x1a\xd4\x00\x00\x00\x00\x00\x00\x00\x01"  # len, crc, lsn
            b"\t\x05\x02op\x05\x05adopt\x07pattern\x05\x031x0"
            # mixed key widths: a tagged dict, one AgentId per key
            b"\x07records\n\x03"
            b"\x10\x00\x00\x00\x00\x00\x00\x00\x05\x08\x02\x05\x06node-1\x03\x06"
            b"\x10\x9e7y\xb9\x7fJ|\x15\x08\x02\x05\x07node-\xc3\xa9\x03\x00"
            b"\x06\x05\x08\x08\x02\x05\x06node-2\x03\x02"
            # one 64-bit key: an id table, keys as a u64 column
            b"\x0ccapabilities\r\x01@\x00\x00\x00\x00\x00\x00\x00\x00\x05\t\x01\x03gpu\x01"
            # a tuple key stays a tuple
            b"\x05pairs\n\x01\x07\x02\x03\n\x03\x80\x01\x05\x11a pair, not an id"
        )
        (replayed,) = replayed_values(WriteAheadLog(tmp_path, fsync="never"))
        assert replayed == ADOPT
        assert {type(key) for key in replayed["records"]} == {AgentId}
        assert [type(key) for key in replayed["pairs"]] == [tuple]

    def test_a_v1_tail_is_rotated_before_the_first_append(self, tmp_path):
        (tmp_path / "wal-0000000000000001.log").write_bytes(
            v1_segment([b'{"n":0}', ADOPT_V1_PAYLOAD])
        )
        wal = WriteAheadLog(tmp_path, fsync="never")
        assert wal.last_lsn == 2
        assert wal.append({"n": 3}) == 3
        assert [segment_version(path) for path in wal.segments()] == [1, 2]
        assert [(r.lsn, r.value) for r in wal.replay()] == [
            (1, {"n": 0}), (2, ADOPT), (3, {"n": 3})
        ]
        wal.close()

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

    def test_an_unencodable_value_is_a_storage_error(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        with pytest.raises(StorageError, match="not wire-encodable") as raised:
            wal.append({"blob": object()})
        assert not isinstance(raised.value, BinaryCodecError)
        # Nothing was written: the next append takes LSN 1.
        assert wal.append({"ok": True}) == 1
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

    def test_an_idle_interval_tail_is_synced_by_sync_due(self, tmp_path):
        store = DurableStore(tmp_path, "idle", fsync="interval", fsync_interval=0.2)
        for index in range(5):
            store.log({"n": index})
        store.sync_due()  # the interval has not passed yet
        assert store.wal.syncs == 0
        time.sleep(0.3)
        store.sync_due()
        assert store.wal.syncs == 1
        time.sleep(0.3)
        store.sync_due()  # nothing appended since: nothing to sync
        assert store.wal.syncs == 1
        store.close()

    def test_sync_due_does_nothing_under_never(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never", fsync_interval=0.0)
        wal.append({"n": 0})
        wal.sync_due()
        assert wal.syncs == 0
        wal.close()

    def test_short_writes_are_finished(self, tmp_path, monkeypatch):
        real_write = os.write
        calls = []

        def three_bytes_at_a_time(fd, data):
            calls.append(len(data))
            return real_write(fd, bytes(data[:3]))

        monkeypatch.setattr(os, "write", three_bytes_at_a_time)
        wal = WriteAheadLog(tmp_path, fsync="never")
        values = [ADOPT, {"n": 1}, {"blob": "x" * 100}]
        for value in values:
            wal.append(value)
        wal.close()
        monkeypatch.undo()
        assert len(calls) > 100
        assert replayed_values(WriteAheadLog(tmp_path, fsync="never")) == values


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

    def test_a_crc_valid_record_the_decoder_rejects_is_corruption(self, tmp_path):
        segment = b"REPROWAL" + struct.pack(">I", 2) + record_bytes(1, b"\xee\x01")
        (tmp_path / "wal-0000000000000001.log").write_bytes(segment)
        with pytest.raises(CorruptRecordError, match="does not decode") as raised:
            WriteAheadLog(tmp_path, fsync="never")
        assert not isinstance(raised.value, BinaryCodecError)

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
