"""Durable state: write-ahead log + snapshots + warm crash recovery.

The paper's directory state is authoritative in exactly two places --
the HAgent's primary copy of the hash function and each IAgent's
location-record shard -- yet the live service layer originally recovered
from a crash purely via soft state: a takeover IAgent booted *empty* and
waited for node hosts to republish. This package turns that into
bounded-time warm recovery with the classic checkpoint/replay
discipline:

* :mod:`repro.storage.wal` -- a segmented append-only write-ahead log
  with CRC32-checked, length-prefixed records, ``always`` / ``interval``
  / ``never`` fsync policies, segment rotation, and a replay iterator
  that truncates a torn tail (crash mid-append) but refuses mid-log
  corruption.
* :mod:`repro.storage.snapshot` -- atomic write-temp-then-rename
  snapshots of the full agent state at a known WAL position, CRC-checked
  on load, newest-valid-wins.
* :mod:`repro.storage.store` -- :class:`DurableStore`, the per-agent
  facade binding one WAL + one snapshot set, with compaction (snapshot,
  then drop the covered segments) and ``recover()`` = latest snapshot +
  WAL-suffix replay through the caller's own reducer.

Everything is standard library only (``struct``, ``zlib``, ``os``).
WAL record payloads and snapshot bodies are written in format 2: values
in the binary codec of :mod:`repro.platform.binary`, the same encoding
the wire carries, so :class:`repro.platform.naming.AgentId` record keys
and hash-tree tuple specs round-trip exactly and a durable mutation
costs one encode and one write. Format 1 (tagged JSON,
:mod:`repro.platform.jsonable`) is still read: a v1 segment replays as
it always did, a log whose last segment is v1 starts a v2 segment at its
first append, and a v1 snapshot loads. The upgrade is one-way -- a
reader from before format 2 refuses a v2 segment and skips a v2
snapshot.
"""

from repro.storage.errors import (
    CorruptRecordError,
    RecordTooLargeError,
    StorageError,
    StorageWarning,
)
from repro.storage.snapshot import Snapshot, SnapshotStore
from repro.storage.store import DurableStore, RecoveryResult
from repro.storage.wal import DEFAULT_MAX_RECORD, WalRecord, WriteAheadLog

__all__ = [
    "CorruptRecordError",
    "DEFAULT_MAX_RECORD",
    "DurableStore",
    "RecordTooLargeError",
    "RecoveryResult",
    "Snapshot",
    "SnapshotStore",
    "StorageError",
    "StorageWarning",
    "WalRecord",
    "WriteAheadLog",
]
