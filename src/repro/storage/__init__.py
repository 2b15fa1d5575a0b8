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
  then drop the segments every kept snapshot covers) and ``recover()`` =
  latest valid snapshot + WAL-suffix replay through the caller's own
  reducer, which raises rather than skip a missing LSN.

Everything is standard library only (``struct``, ``zlib``, ``os``).
WAL record payloads and snapshot bodies have one format, 2: values in
the binary codec of :mod:`repro.platform.binary`, the same encoding the
wire carries, so :class:`repro.platform.naming.AgentId` record keys and
hash-tree tuple specs round-trip exactly and a durable mutation costs
one encode and one write. A format-1 (tagged JSON) segment is refused
and a format-1 snapshot skipped, each naming the last commit that reads
it (``wal.FORMAT_1_REFUSAL``).
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
