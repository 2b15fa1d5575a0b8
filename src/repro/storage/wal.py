"""A segmented append-only write-ahead log with CRC-checked records.

The log is a directory of segment files named ``wal-<first_lsn>.log``.
Every record is appended durably *before* the in-memory mutation it
describes is acknowledged, so a process that crashes and restarts can
rebuild its state by replaying the log (normally on top of the latest
:mod:`repro.storage.snapshot`).

On-disk layout (all integers big-endian)::

    segment   := header record*
    header    := magic[8]="REPROWAL" u32 format_version
    record    := u32 payload_len  u32 crc32  u64 lsn  payload

``crc32`` covers the 8 LSN bytes plus the payload, so a bit flip in
either the sequence number or the body is detected. The one format is 2:
the payload is the value in the binary codec of
:mod:`repro.platform.binary` -- the wire's value encoding -- so
:class:`repro.platform.naming.AgentId` keys, hash-tree tuple specs and
list-vs-tuple shapes round-trip exactly. An append encodes straight
after a 16-byte record-header slot, packs the header in place and issues
one ``os.write`` (a short write is finished, never dropped).

A format-1 segment (tagged JSON) is refused with a :class:`StorageError`
that names the last commit which reads it (:data:`FORMAT_1_REFUSAL`); a
data dir that old is upgraded by recovering it there and snapshotting.

Failure policy (the part that matters):

* A record that extends past the end of the *final* segment, or whose
  CRC fails right at its end-of-file tail, is a **torn write** -- the
  classic crash-mid-append. The log truncates it away, emits a
  :class:`StorageWarning`, and carries on: state recovers to the exact
  durable prefix.
* A CRC or structural failure anywhere *before* the end of the log is
  **corruption** -- bytes the log once read back successfully have
  changed. That raises :class:`CorruptRecordError`; silently skipping
  the middle of a journal would resurrect torn-out history. So does a
  CRC-valid payload the decoder rejects: those bytes are what was
  written, so it is a writer bug, not a torn tail.
* Appends larger than ``max_record`` are rejected up front with
  :class:`RecordTooLargeError` (the storage twin of the wire layer's
  ``DEFAULT_MAX_FRAME`` guard), so a runaway payload can never write a
  record that replay would then refuse.

``fsync`` policies: ``"always"`` syncs every append (slow, zero loss),
``"interval"`` syncs at most every ``fsync_interval`` seconds (bounded
loss, the default), ``"never"`` leaves durability to the OS (tests,
benchmarks). Under ``"interval"`` an append syncs when the interval has
passed, and an idle log's tail is synced by :meth:`WriteAheadLog.sync_due`,
which the owning agent calls from a periodic loop: the loss bound is
``fsync_interval`` plus that loop's period.
"""

from __future__ import annotations

import os
import struct
import time
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, List, Optional

from repro.platform import binary
from repro.storage.errors import (
    CorruptRecordError,
    RecordTooLargeError,
    StorageError,
    StorageWarning,
)

__all__ = [
    "DEFAULT_MAX_RECORD",
    "FSYNC_POLICIES",
    "FORMAT_1_REFUSAL",
    "WalRecord",
    "WriteAheadLog",
]

#: Records beyond this many payload bytes are rejected outright --
#: mirrors ``repro.service.wire.DEFAULT_MAX_FRAME``: far above any
#: protocol mutation (whole-shard adopts included), purely a guard
#: against a runaway payload or a garbage length prefix on replay.
DEFAULT_MAX_RECORD = 8 * 1024 * 1024

FSYNC_POLICIES = ("always", "interval", "never")

#: Why a format-1 (tagged JSON) WAL segment or snapshot is not read.
FORMAT_1_REFUSAL = "is format 1 (tagged JSON): commit 60a13cf is the last that reads it"

_MAGIC = b"REPROWAL"
_FORMAT_VERSION = 2
_HEADER = struct.Struct(">8sI")
_RECORD = struct.Struct(">IIQ")  # payload_len, crc32, lsn
_LSN = struct.Struct(">Q")
_LEN_CRC = struct.Struct(">II")


def _crc(lsn: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(_LSN.pack(lsn))) & 0xFFFFFFFF


def _segment_name(first_lsn: int) -> str:
    return f"wal-{first_lsn:016d}.log"


def sync_directory(directory: Path) -> None:
    """fsync ``directory`` so renames/creates in it survive a power cut."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. network filesystems
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class WalRecord:
    """One replayed record: its log sequence number and decoded value."""

    lsn: int
    value: Any


class WriteAheadLog:
    """An append-only log of protocol values in a directory.

    Opening an existing directory scans the final segment, truncates a
    torn tail (with a :class:`StorageWarning`) and resumes appending
    after the last durable record. LSNs are assigned contiguously from
    1 and never reused.
    """

    def __init__(
        self,
        directory: os.PathLike,
        fsync: str = "interval",
        fsync_interval: float = 0.1,
        segment_max_bytes: int = 1 << 20,
        max_record: int = DEFAULT_MAX_RECORD,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if segment_max_bytes <= 0:
            raise ValueError(f"segment_max_bytes must be positive: {segment_max_bytes}")
        self.directory = Path(directory)
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.segment_max_bytes = segment_max_bytes
        self.max_record = max_record
        self.directory.mkdir(parents=True, exist_ok=True)

        #: Counters for stats / the recovery report.
        self.appended = 0
        self.syncs = 0
        self.torn_tails_truncated = 0

        self._fd: Optional[int] = None
        self._file_size = 0
        self._last_fsync = time.monotonic()
        self._closed = False

        segments = self.segments()
        if segments:
            self.last_lsn = self._recover_tail(segments[-1])
            self._open_segment(segments[-1])
        else:
            self.last_lsn = 0
            self._start_segment(first_lsn=1)
        #: The last LSN :meth:`sync` covered (what was on disk at open
        #: counts as synced).
        self._synced_lsn = self.last_lsn

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, value: Any) -> int:
        """Durably append one value; return its LSN."""
        if self._closed:
            raise StorageError("append to a closed write-ahead log")
        # Encode straight after the record-header slot, then pack the
        # header in place: the LSN sits right before the payload, so the
        # CRC is one pass over the buffer's tail.
        record = bytearray(_RECORD.size)
        try:
            binary.encode_into(value, record)
        except binary.BinaryCodecError as error:
            raise StorageError(str(error)) from error
        length = len(record) - _RECORD.size
        if length > self.max_record:
            raise RecordTooLargeError(
                f"record of {length} bytes exceeds limit {self.max_record}"
            )
        if self._file_size >= self.segment_max_bytes:
            self.rotate()
        lsn = self.last_lsn + 1
        _LSN.pack_into(record, 8, lsn)
        _LEN_CRC.pack_into(record, 0, length, zlib.crc32(record[8:]))
        self._write(record)
        self._file_size += len(record)
        self.last_lsn = lsn
        self.appended += 1
        self._maybe_sync()
        return lsn

    def sync(self) -> None:
        """Force an fsync of the active segment."""
        if self._fd is None or self._closed:
            return
        os.fsync(self._fd)
        self.syncs += 1
        self._last_fsync = time.monotonic()
        self._synced_lsn = self.last_lsn

    def sync_due(self) -> None:
        """Sync an idle tail: under ``"interval"``, fsync when appends
        are unsynced and ``fsync_interval`` has passed since the last
        sync. An append only syncs itself, so without this call the
        last appends before a quiet spell would stay unsynced until the
        next one."""
        if (
            self.fsync == "interval"
            and self._synced_lsn < self.last_lsn
            and time.monotonic() - self._last_fsync >= self.fsync_interval
        ):
            self.sync()

    def _maybe_sync(self) -> None:
        if self.fsync == "always":
            self.sync()
        elif self.fsync == "interval":
            if time.monotonic() - self._last_fsync >= self.fsync_interval:
                self.sync()

    def _write(self, data: bytearray) -> None:
        """Write all of ``data`` to the active segment."""
        assert self._fd is not None
        written = os.write(self._fd, data)
        if written < len(data):
            with memoryview(data) as view:
                while written < len(data):
                    written += os.write(self._fd, view[written:])

    def resume_after(self, lsn: int) -> None:
        """Number the next record above ``lsn``, in a new segment, if the
        log ends below it."""
        if lsn > self.last_lsn:
            self.last_lsn = lsn
            self.rotate()

    def rotate(self) -> None:
        """Close the active segment and start a fresh one."""
        self.sync()
        if self._fd is not None:
            os.close(self._fd)
        self._start_segment(first_lsn=self.last_lsn + 1)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def replay(self, after: int = 0) -> Iterator[WalRecord]:
        """Yield every durable record with ``lsn > after``, in order.

        Tolerates a torn tail in the final segment (stops there, as the
        open-time scan already truncated it); raises
        :class:`CorruptRecordError` on damage anywhere earlier.
        """
        segments = self.segments()
        for index, path in enumerate(segments):
            next_first = (
                self._first_lsn(segments[index + 1])
                if index + 1 < len(segments)
                else None
            )
            if next_first is not None and next_first <= after + 1:
                continue  # every record in this segment is <= after
            final = index == len(segments) - 1
            for record in self._scan(path, final=final, truncate=False):
                if record.lsn > after:
                    yield record

    def truncate_until(self, lsn: int) -> int:
        """Drop whole segments containing only records ``<= lsn``.

        Compaction after a snapshot: the snapshot owns everything up to
        its LSN, so older segments are dead weight. Returns the number
        of segments removed. The active segment is never removed.
        """
        removed = 0
        segments = self.segments()
        for index, path in enumerate(segments[:-1]):
            if self._first_lsn(segments[index + 1]) <= lsn + 1:
                path.unlink()
                removed += 1
            else:
                break
        if removed:
            sync_directory(self.directory)
        return removed

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def segments(self) -> List[Path]:
        """The segment files, oldest first."""
        return sorted(self.directory.glob("wal-*.log"))

    @property
    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.segments())

    def close(self) -> None:
        """Flush, sync and close (idempotent)."""
        if self._closed:
            return
        self.sync()
        self.abort()

    def abort(self) -> None:
        """Close without syncing -- the crash-simulation path."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self._closed = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _first_lsn(path: Path) -> int:
        try:
            return int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError) as error:
            raise StorageError(f"not a WAL segment name: {path.name}") from error

    def _start_segment(self, first_lsn: int) -> None:
        path = self.directory / _segment_name(first_lsn)
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)
        self._write(bytearray(_HEADER.pack(_MAGIC, _FORMAT_VERSION)))
        self._file_size = _HEADER.size
        sync_directory(self.directory)

    def _open_segment(self, path: Path) -> None:
        self._fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        self._file_size = path.stat().st_size

    def _recover_tail(self, final_segment: Path) -> int:
        """Scan the final segment; truncate a torn tail; return last LSN."""
        last = self._first_lsn(final_segment) - 1
        for record in self._scan(final_segment, final=True, truncate=True):
            last = record.lsn
        return last

    def _scan(self, path: Path, final: bool, truncate: bool) -> Iterator[WalRecord]:
        """Decode one segment; handle the tail per the failure policy."""
        size = path.stat().st_size
        with open(path, "rb") as handle:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                # A segment torn inside its own header holds no records.
                if final:
                    self._torn(path, 0, truncate, "segment header")
                    return
                raise CorruptRecordError(
                    f"{path.name}: truncated segment header mid-log"
                )
            magic, version = _HEADER.unpack(header)
            if magic == _MAGIC and version == 1:
                raise StorageError(f"{path.name} {FORMAT_1_REFUSAL}")
            if magic != _MAGIC or version != _FORMAT_VERSION:
                raise CorruptRecordError(
                    f"{path.name}: bad segment header "
                    f"(magic={magic!r}, version={version})"
                )
            offset = _HEADER.size
            while offset < size:
                head = handle.read(_RECORD.size)
                if len(head) < _RECORD.size:
                    if final:
                        self._torn(path, offset, truncate, "record header")
                        return
                    raise CorruptRecordError(
                        f"{path.name}@{offset}: truncated record header mid-log"
                    )
                length, crc, lsn = _RECORD.unpack(head)
                end = offset + _RECORD.size + length
                if end > size:
                    # The record claims bytes past EOF: a torn append in
                    # the final segment, corruption anywhere else.
                    if final:
                        self._torn(path, offset, truncate, "record body")
                        return
                    raise CorruptRecordError(
                        f"{path.name}@{offset}: record extends past segment end"
                    )
                if length > self.max_record:
                    raise CorruptRecordError(
                        f"{path.name}@{offset}: record length {length} "
                        f"exceeds limit {self.max_record}"
                    )
                payload = handle.read(length)
                if _crc(lsn, payload) != crc:
                    if final and end == size:
                        self._torn(path, offset, truncate, "record checksum")
                        return
                    raise CorruptRecordError(
                        f"{path.name}@{offset}: CRC mismatch mid-log"
                    )
                try:
                    value = binary.decode(payload)
                except ValueError as error:
                    # The CRC matched, so these bytes are what was
                    # written -- a writer bug, not a torn tail.
                    raise CorruptRecordError(
                        f"{path.name}@{offset}: CRC-valid record does not "
                        f"decode: {error}"
                    ) from error
                yield WalRecord(lsn=lsn, value=value)
                offset = end

    def _torn(self, path: Path, offset: int, truncate: bool, what: str) -> None:
        warnings.warn(
            f"{path.name}: torn {what} at byte {offset}; "
            f"truncating to the last durable record",
            StorageWarning,
            stacklevel=3,
        )
        self.torn_tails_truncated += 1
        if not truncate:
            return
        if offset < _HEADER.size:
            # Torn inside the segment header itself: rewrite it fresh so
            # the (empty) segment stays appendable.
            with open(path, "wb") as handle:
                handle.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION))
        else:
            with open(path, "ab") as handle:
                handle.truncate(offset)
