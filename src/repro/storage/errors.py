"""Typed failures of the durable-state subsystem.

:class:`StorageError` mirrors the role ``WireError`` plays in
:mod:`repro.service.wire`: one base class a caller can catch to mean
"the durability layer could not do that", with narrower subclasses for
the two conditions callers treat differently -- an oversized append
(caller bug, reject up front) and mid-log corruption (operator problem,
refuse to recover past it).
"""

from __future__ import annotations

from repro.platform.binary import TaggedCodecError

__all__ = [
    "CorruptRecordError",
    "RecordTooLargeError",
    "StorageError",
    "StorageWarning",
]


class StorageError(TaggedCodecError):
    """A durable-state operation that cannot be performed.

    Subclasses ``TaggedCodecError`` so unencodable WAL/snapshot payloads
    surface under the storage vocabulary (the value codec's
    ``BinaryCodecError``, re-raised), exactly as ``WireError`` does for
    the wire's frames.
    """


class RecordTooLargeError(StorageError):
    """An append larger than the log's ``max_record`` guard."""


class CorruptRecordError(StorageError):
    """A CRC or structural failure *before* the end of the log.

    Torn tails (crash mid-append) are tolerated and truncated; damage
    earlier than the tail means previously durable bytes changed, and
    replaying past it would silently drop acknowledged history.
    """


class StorageWarning(UserWarning):
    """A tolerated-but-noteworthy condition (e.g. a truncated torn tail)."""
