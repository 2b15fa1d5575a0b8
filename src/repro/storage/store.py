"""The per-agent durability facade: one WAL + one snapshot set.

A :class:`DurableStore` is what an agent endpoint actually holds: it
logs every state mutation before acknowledging it, periodically folds
the log into an atomic snapshot (then drops the WAL segments that every
kept snapshot covers -- compaction), and rebuilds the state on restart
by loading the latest valid snapshot and replaying the WAL suffix. A
replay that would skip a logged record raises instead: compaction keeps
the suffix of the oldest kept snapshot, so a damaged newest snapshot
costs a longer replay, and a lost segment is an error, not lost history.

The store is deliberately agnostic about what the state *is*: recovery
takes an ``initial`` factory and an ``apply(state, value)`` reducer, the
same reducer the owner uses to mutate its live state, so replay is the
in-memory transition re-run -- there is no second interpretation of the
log to drift out of sync.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional

from repro.storage.errors import CorruptRecordError
from repro.storage.snapshot import SnapshotStore
from repro.storage.wal import DEFAULT_MAX_RECORD, WriteAheadLog

__all__ = ["DurableStore", "RecoveryResult"]


@dataclass(frozen=True)
class RecoveryResult:
    """What one :meth:`DurableStore.recover` call rebuilt."""

    state: Any
    #: WAL position the loaded snapshot covered (0 = no snapshot).
    snapshot_lsn: int
    #: Records replayed from the WAL suffix.
    replayed: int
    #: The log's last durable LSN after recovery.
    last_lsn: int
    #: Wall-clock seconds spent loading + replaying.
    elapsed_s: float


class DurableStore:
    """WAL + snapshots for one named agent under a shared data root."""

    def __init__(
        self,
        root: os.PathLike,
        name: str,
        fsync: str = "interval",
        fsync_interval: float = 0.1,
        segment_max_bytes: int = 1 << 20,
        max_record: int = DEFAULT_MAX_RECORD,
        snapshot_keep: int = 2,
        snapshot_every: int = 256,
    ) -> None:
        self.name = name
        self.directory = Path(root) / name
        self.snapshot_every = snapshot_every
        self._wal_kwargs = dict(
            fsync=fsync,
            fsync_interval=fsync_interval,
            segment_max_bytes=segment_max_bytes,
            max_record=max_record,
        )
        self._snapshot_keep = snapshot_keep
        self.wal = WriteAheadLog(self.directory / "wal", **self._wal_kwargs)
        self.snapshots = SnapshotStore(
            self.directory / "snapshots", keep=snapshot_keep
        )
        # A log that lost records a kept snapshot covers (its directory
        # deleted, say) must not number new ones at or below that
        # snapshot's LSN: recovery replays only above it.
        self.wal.resume_after(self.snapshots.newest_lsn())
        self.logged_since_snapshot = 0
        self.compacted_segments = 0

    # ------------------------------------------------------------------

    @property
    def has_data(self) -> bool:
        """Whether any durable history exists (records or snapshots)."""
        return self.wal.last_lsn > 0 or bool(self.snapshots.list())

    def log(self, value: Any) -> int:
        """Durably append one mutation; return its LSN."""
        lsn = self.wal.append(value)
        self.logged_since_snapshot += 1
        return lsn

    def sync_due(self) -> None:
        """Sync the log's idle tail if the fsync policy says it is due
        (:meth:`WriteAheadLog.sync_due`); owners call it from a periodic
        loop."""
        self.wal.sync_due()

    @property
    def should_snapshot(self) -> bool:
        """True once ``snapshot_every`` mutations accumulated (0 = never)."""
        return (
            self.snapshot_every > 0
            and self.logged_since_snapshot >= self.snapshot_every
        )

    def snapshot(self, state: Any) -> Path:
        """Persist ``state``, then compact the WAL segments that every
        kept snapshot covers: recovery may fall back to the oldest."""
        self.wal.sync()
        path = self.snapshots.save(state, self.wal.last_lsn)
        oldest = self.snapshots.oldest_lsn()
        # Rotate so even the active segment becomes droppable; the new
        # (empty) segment stays as the append target.
        self.wal.rotate()
        self.compacted_segments += self.wal.truncate_until(oldest)
        self.logged_since_snapshot = 0
        return path

    def replay(self, after: int) -> Iterator[Any]:
        """Every logged value with an LSN above ``after``, in order.

        Raises :class:`CorruptRecordError` naming the missing range
        unless each LSN in ``(after, wal.last_lsn]`` is replayed exactly
        once (segments deleted, or every snapshot covering them lost).
        """
        expected = after + 1
        for record in self.wal.replay(after=after):
            if record.lsn != expected:
                raise self._gap(after, expected, record.lsn)
            yield record.value
            expected += 1
        if expected <= self.wal.last_lsn:
            raise self._gap(after, expected, self.wal.last_lsn + 1)

    def _gap(self, after: int, expected: int, found: int) -> CorruptRecordError:
        return CorruptRecordError(
            f"{self.name}: replaying after LSN {after}, WAL records "
            f"{expected}..{found - 1} are missing (next found: {found})"
        )

    def recover(
        self,
        initial: Callable[[], Any],
        apply: Callable[[Any, Any], Optional[Any]],
    ) -> RecoveryResult:
        """Rebuild state: latest snapshot + WAL replay through ``apply``.

        ``apply`` may mutate ``state`` in place (returning ``None``) or
        return a replacement state; both conventions are honoured.
        """
        started = time.perf_counter()
        snapshot = self.snapshots.latest()
        if snapshot is not None:
            state, base = snapshot.state, snapshot.last_lsn
        else:
            state, base = initial(), 0
        replayed = 0
        for value in self.replay(after=base):
            result = apply(state, value)
            if result is not None:
                state = result
            replayed += 1
        return RecoveryResult(
            state=state,
            snapshot_lsn=base,
            replayed=replayed,
            last_lsn=self.wal.last_lsn,
            elapsed_s=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Wipe all durable history and start a fresh generation.

        Used when an agent is *re-created* rather than restarted (a
        split spawning a new shard, a takeover re-hosting a leaf whose
        history lives on another node's disk): stale records from a
        previous incarnation must not resurrect into the new one.
        """
        self.wal.abort()
        shutil.rmtree(self.directory, ignore_errors=True)
        self.wal = WriteAheadLog(self.directory / "wal", **self._wal_kwargs)
        self.snapshots = SnapshotStore(
            self.directory / "snapshots", keep=self._snapshot_keep
        )
        self.logged_since_snapshot = 0

    def close(self) -> None:
        """Flush and close cleanly (idempotent)."""
        self.wal.close()

    def abort(self) -> None:
        """Close without the final sync -- simulates an abrupt crash."""
        self.wal.abort()

    def stats(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "last_lsn": self.wal.last_lsn,
            "appended": self.wal.appended,
            "syncs": self.wal.syncs,
            "segments": len(self.wal.segments()),
            "wal_bytes": self.wal.size_bytes,
            "snapshots": len(self.snapshots.list()),
            "snapshots_saved": self.snapshots.saved,
            "compacted_segments": self.compacted_segments,
            "torn_tails_truncated": self.wal.torn_tails_truncated,
        }
