"""Atomic, CRC-checked snapshots of an agent's durable state.

A snapshot captures the *whole* state of one agent (the HAgent's hash
tree + directory, or an IAgent's record shard) at a known WAL position,
so recovery is ``load latest snapshot, replay the WAL suffix`` instead
of replaying history from the beginning of time.

Atomicity is write-temp-then-rename: the state is serialised to a
``.tmp`` file in the same directory, fsynced, then :func:`os.replace`'d
into its final name (``snap-<last_lsn>.snap``) and the directory
fsynced. A crash at any point leaves either the old snapshot set or the
old set plus a complete new member -- never a half-written file under a
live name.

On-disk layout (integers big-endian)::

    snapshot := magic[8]="REPROSNP" u32 format_version u32 crc32 u64 body_len body
    body     := {"last_lsn": int, "state": ...} as one value

The one format is 2: the body in the binary codec of
:mod:`repro.platform.binary`, the WAL's and the wire's value encoding.

:meth:`SnapshotStore.latest` validates magic, format, CRC and the body;
an invalid file (torn rename target from some pathological filesystem,
manual tampering, a format-1 file named as such in the warning) is
skipped with a :class:`StorageWarning` and the next-newest snapshot is
used. :class:`repro.storage.store.DurableStore` keeps the WAL from the
oldest kept snapshot on, so one bad file degrades recovery to a longer
replay rather than an outage.
"""

from __future__ import annotations

import os
import struct
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional

from repro.platform import binary
from repro.storage.errors import StorageError, StorageWarning
# A snapshot body's format number is the WAL's.
from repro.storage.wal import _FORMAT_VERSION, FORMAT_1_REFUSAL, sync_directory

__all__ = ["Snapshot", "SnapshotStore"]

_MAGIC = b"REPROSNP"
_HEADER = struct.Struct(">8sIIQ")  # magic, version, crc32, body_len


@dataclass(frozen=True)
class Snapshot:
    """One decoded snapshot: the state and the WAL position it covers."""

    last_lsn: int
    state: Any


class SnapshotStore:
    """Snapshot files of one agent, newest-wins, pruned to ``keep``."""

    def __init__(self, directory: os.PathLike, keep: int = 2) -> None:
        if keep < 1:
            raise ValueError(f"keep must be at least 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)
        self.saved = 0
        self.invalid_skipped = 0

    # ------------------------------------------------------------------

    def save(self, state: Any, last_lsn: int) -> Path:
        """Atomically persist ``state`` as covering WAL records <= ``last_lsn``."""
        data = bytearray(_HEADER.size)
        try:
            binary.encode_into({"last_lsn": last_lsn, "state": state}, data)
        except binary.BinaryCodecError as error:
            raise StorageError(str(error)) from error
        body = data[_HEADER.size :]
        _HEADER.pack_into(data, 0, _MAGIC, _FORMAT_VERSION, zlib.crc32(body), len(body))
        final = self.directory / f"snap-{last_lsn:016d}.snap"
        tmp = final.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        sync_directory(self.directory)
        self.saved += 1
        self.prune()
        return final

    def latest(self) -> Optional[Snapshot]:
        """The newest *valid* snapshot, or ``None``."""
        for path in sorted(self.list(), reverse=True):
            snapshot = self._load(path)
            if snapshot is not None:
                return snapshot
        return None

    def list(self) -> List[Path]:
        """Snapshot files, oldest first (tmp leftovers excluded)."""
        return sorted(self.directory.glob("snap-*.snap"))

    def oldest_lsn(self) -> int:
        """The WAL position the oldest kept snapshot covers, off its name."""
        return _lsn(self.list()[0])

    def newest_lsn(self) -> int:
        """The WAL position the newest kept snapshot covers, off its name
        (0 without one)."""
        snapshots = self.list()
        return _lsn(snapshots[-1]) if snapshots else 0

    def prune(self) -> int:
        """Drop all but the newest ``keep`` snapshots; return removals."""
        removed = 0
        snapshots = self.list()
        for path in snapshots[: max(0, len(snapshots) - self.keep)]:
            path.unlink()
            removed += 1
        for leftover in self.directory.glob("snap-*.tmp"):
            leftover.unlink()
        return removed

    # ------------------------------------------------------------------

    def _load(self, path: Path) -> Optional[Snapshot]:
        try:
            raw = path.read_bytes()
            if len(raw) < _HEADER.size:
                raise StorageError("truncated snapshot header")
            magic, version, crc, body_len = _HEADER.unpack_from(raw)
            if magic == _MAGIC and version == 1:
                raise StorageError(f"the snapshot {FORMAT_1_REFUSAL}")
            if magic != _MAGIC or version != _FORMAT_VERSION:
                raise StorageError(
                    f"bad snapshot header (magic={magic!r}, version={version})"
                )
            body = raw[_HEADER.size :]
            if len(body) != body_len:
                raise StorageError(
                    f"snapshot body is {len(body)} bytes, header says {body_len}"
                )
            if zlib.crc32(body) != crc:
                raise StorageError("snapshot CRC mismatch")
            document = binary.decode(body)
            return Snapshot(
                last_lsn=int(document["last_lsn"]),
                state=document["state"],
            )
        except (OSError, ValueError, KeyError, TypeError) as error:
            warnings.warn(
                f"{path.name}: invalid snapshot skipped ({error})",
                StorageWarning,
                stacklevel=3,
            )
            self.invalid_skipped += 1
            return None


def _lsn(path: Path) -> int:
    return int(path.stem.split("-", 1)[1])
