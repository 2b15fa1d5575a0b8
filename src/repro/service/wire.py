"""The wire codec: length-prefixed binary frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of body. Every frame on every socket is in the one ``"binary"``
codec: the values of :mod:`repro.platform.binary` -- one tag byte per
value, zigzag-varint integers, raw-int ``AgentId`` payloads (eight raw
bytes for a 64-bit id), interned protocol op names, and per-agent tables
as columns -- the same encoding the durable-state layer writes its WAL
records and snapshots in. This module owns the framing and the call /
reply headers around those values.

A body is one of three *frame kinds*, told apart by its first byte and
only there: a *call* -- the ``{"to", "req"}`` envelope every RPC is sent
in, as one fixed ``struct`` header (op index, message id, target) and
the request body; a *reply* -- a ``Response`` as a header (value or
error, message id) and that one payload; or a bare tagged value. The
encoder reads the kind off the value's shape: an envelope whose
simulator-only fields (``size``, the senders) are unset and whose
message id fits a u64 is a call or a reply, anything else is the tagged
value it always was (``Request`` 0x0B / ``Response`` 0x0C inside it),
and both decode to equal objects. The two kind bytes (0x0E, 0x0F) are
tags the value codec leaves unused.

There is no handshake: a connection speaks binary from its first byte.
The compatibility rule is the format's own -- value tags, column kinds
and ``INTERNED_OPS`` are append-only -- and bytes in any other format
are what any garbage is to the decoder: :class:`WireError` (the value
codec's ``BinaryCodecError``, re-raised here), and that connection is
dropped.

``encode_frame``/``decode_frame`` are the one-shot forms;
:class:`FrameDecoder` consumes a byte stream incrementally (partial
frames simply wait for more bytes) -- :mod:`repro.service.transport`
feeds it every socket read. Truncated one-shot buffers, oversized
length prefixes and malformed bodies all raise :class:`WireError` -- a
server must never crash on a garbage frame.
Binary decoding normalizes the frame to ``bytes`` once up front.

The one-shot functions and the decoder also take an explicit
``codec=CODEC_JSON``: the body as UTF-8 JSON in the reversible tagging
scheme of :mod:`repro.platform.jsonable` (``AgentId`` as
``{"$aid": ...}``, tuples as ``{"$tuple": ...}`` and so on). No socket
of the service carries it; it is the readable dump of a decoded frame
and the comparator the codec benchmarks time binary against. This
module re-exports ``to_jsonable``/``from_jsonable`` bound to
:class:`WireError`.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterator, List, Tuple

from repro.platform import jsonable
from repro.platform.binary import (
    _OP_INDEX,
    _U64,
    INTERNED_OPS,
    BinaryCodecError,
    Buffer,
    _decode_value,
    _encode_value,
    _KeyMemo,
    _read_str,
    _write_str,
)
from repro.platform.jsonable import TaggedCodecError
from repro.platform.messages import Request, Response
from repro.platform.naming import AgentId

__all__ = [
    "CODEC_BINARY",
    "CODEC_JSON",
    "DEFAULT_MAX_FRAME",
    "FrameDecoder",
    "WireError",
    "decode_frame",
    "encode_binary",
    "decode_binary",
    "encode_frame",
    "from_jsonable",
    "to_jsonable",
]

#: Frames beyond this many payload bytes are rejected outright. Far
#: above any protocol message (full-tree snapshots included); purely a
#: guard against garbage length prefixes allocating gigabytes.
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

#: Bytes one socket read may bring in. A connection reads into its
#: channel's or server's one preallocated buffer of this size
#: (``asyncio.BufferedProtocol``), so a read allocates nothing. A plain
#: ``asyncio.Protocol`` gets a fresh 256 KiB ``bytes`` per read, which
#: glibc serves from ``mmap`` (faulting it in on every read) or from the
#: heap depending on the process's allocation history: a slow mode that
#: came and went from one process to the next.
RECV_BUFFER_SIZE = 64 * 1024

#: Body codecs: what every socket carries, and the tagged-JSON dump form.
CODEC_BINARY = "binary"
CODEC_JSON = "json"

_LENGTH = struct.Struct(">I")
_U64_MAX = (1 << 64) - 1


class WireError(TaggedCodecError):
    """A frame or value that cannot be (de)coded."""


# ----------------------------------------------------------------------
# Tagged-JSON value codec (the CODEC_JSON dump form)
# ----------------------------------------------------------------------


def to_jsonable(value: Any) -> Any:
    """Lower a protocol value to plain JSON types, tagging rich ones."""
    return jsonable.to_jsonable(value, error=WireError)


def from_jsonable(value: Any) -> Any:
    """Invert :func:`to_jsonable`."""
    return jsonable.from_jsonable(value, error=WireError)


# ----------------------------------------------------------------------
# Frame bodies: call and reply headers around repro.platform.binary values
# ----------------------------------------------------------------------

# Frame kinds: legal as a frame body's first byte only, never inside a
# value -- the value codec leaves these two tags unused.
_T_CALL = 0x0E
_T_REPLY = 0x0F

# A call frame's fixed header: tag, op (its ``INTERNED_OPS`` index, or
# ``_CALL_OP_INLINE`` and the op as a string right after the header),
# message id, target width (1-64: the target AgentId's value follows as
# a raw u64; 0: the target follows as a tagged value). A reply's: tag,
# kind, message id.
_CALL_HEAD = struct.Struct(">BBQB")
_REPLY_HEAD = struct.Struct(">BBQ")
_CALL_OP_INLINE = 0xFF
_REPLY_VALUE = 0x00
_REPLY_ERROR = 0x01
#: ``Request.size`` / ``Response.size`` as the live service leaves them
#: (a simulator field): an envelope carrying any other value keeps the
#: generic 0x0B / 0x0C form.
_DEFAULT_SIZE = 256


def _encode_body(value: Any, out: bytearray) -> None:
    """Append one frame body: a call, a reply, or a bare tagged value.

    The frame kind is read off the value's own shape, here and nowhere
    else: a ``{"to", "req"}`` envelope or a ``Response`` whose fields
    fit the fixed header travels as one; any other value -- an envelope
    with a simulator field set, a message id outside u64, a ``Request``
    nested deeper -- travels as the tagged value it always was.
    """
    kind = type(value)
    if kind is dict:
        if len(value) == 2 and tuple(value) == ("to", "req"):
            request = value["req"]
            if type(request) is Request and _encode_call(value["to"], request, out):
                return
    elif kind is Response and _encode_reply(value, out):
        return
    _encode_value(value, out)


def _encode_call(target: Any, request: Request, out: bytearray) -> bool:
    op = request.op
    message_id = request.message_id
    if (
        request.size != _DEFAULT_SIZE
        or request.sender_node is not None
        or request.sender_agent is not None
        or type(op) is not str
        or type(message_id) is not int
        or not 0 <= message_id <= _U64_MAX
    ):
        return False
    op_byte = _OP_INDEX.get(op, _CALL_OP_INLINE)
    raw_target = type(target) is AgentId and target[1] <= 64
    out += _CALL_HEAD.pack(_T_CALL, op_byte, message_id, target[1] if raw_target else 0)
    if op_byte == _CALL_OP_INLINE:
        _write_str(op, out)
    if raw_target:
        out += _U64.pack(target[0])
    else:
        _encode_value(target, out)
    _encode_value(request.body, out)
    return True


def _encode_reply(response: Response, out: bytearray) -> bool:
    message_id = response.message_id
    error = response.error
    if (
        response.size != _DEFAULT_SIZE
        or type(message_id) is not int
        or not 0 <= message_id <= _U64_MAX
    ):
        return False
    if error is None:
        out += _REPLY_HEAD.pack(_T_REPLY, _REPLY_VALUE, message_id)
        _encode_value(response.value, out)
    elif type(error) is str and response.value is None:
        out += _REPLY_HEAD.pack(_T_REPLY, _REPLY_ERROR, message_id)
        _write_str(error, out)
    else:
        return False
    return True


def encode_binary(value: Any) -> bytes:
    """One frame body in the binary codec, unframed (mostly for tests)."""
    out = bytearray()
    try:
        _encode_body(value, out)
    except BinaryCodecError as error:
        raise WireError(str(error)) from error
    except RecursionError:
        raise WireError("value nests deeper than the encoder recurses") from None
    return bytes(out)


def _decode_call(data: bytes, end: int, memo: _KeyMemo) -> Tuple[Dict[str, Any], int]:
    """Invert :func:`_encode_call`: the ``{"to", "req"}`` envelope."""
    pos = _CALL_HEAD.size
    if pos > end:
        raise WireError("binary call frame truncated inside its header")
    _, op_byte, message_id, width = _CALL_HEAD.unpack_from(data)
    if op_byte == _CALL_OP_INLINE:
        op, pos = _read_str(data, pos, end)
    elif op_byte < len(INTERNED_OPS):
        op = INTERNED_OPS[op_byte]
    else:
        raise WireError(f"unknown interned op index {op_byte}")
    if width == 0:
        target, pos = _decode_value(data, pos, end, memo)
    elif width <= 64:
        if pos + 8 > end:
            raise WireError("binary call frame truncated inside its target")
        (raw,) = _U64.unpack_from(data, pos)
        if raw >> width:
            raise WireError(f"binary call target out of range for width {width}")
        target = tuple.__new__(AgentId, (raw, width))
        pos += 8
    else:
        raise WireError(f"binary call frame has target width {width}")
    body, pos = _decode_value(data, pos, end, memo)
    return {"to": target, "req": Request(op=op, body=body, message_id=message_id)}, pos


def _decode_reply(data: bytes, end: int, memo: _KeyMemo) -> Tuple[Response, int]:
    """Invert :func:`_encode_reply`."""
    pos = _REPLY_HEAD.size
    if pos > end:
        raise WireError("binary reply frame truncated inside its header")
    _, kind, message_id = _REPLY_HEAD.unpack_from(data)
    if kind == _REPLY_VALUE:
        value, pos = _decode_value(data, pos, end, memo)
        return Response(message_id, value), pos
    if kind == _REPLY_ERROR:
        error, pos = _read_str(data, pos, end)
        return Response(message_id, error=error), pos
    raise WireError(f"unknown binary reply kind {kind:#04x}")


def decode_binary(body: Buffer) -> Any:
    """Invert :func:`encode_binary`; the buffer must hold exactly one
    frame body -- a call, a reply, or a bare value.

    The buffer is normalized to ``bytes`` up front: one bulk copy is
    linear and cheap, and every downstream index/slice on ``bytes``
    beats the per-access overhead of ``memoryview`` -- on dict-heavy
    frames the difference is ~2x end to end.
    """
    data = body if type(body) is bytes else bytes(body)
    end = len(data)
    kind = data[0] if end else None
    memo: _KeyMemo = {}
    try:
        if kind == _T_CALL:
            value, pos = _decode_call(data, end, memo)
        elif kind == _T_REPLY:
            value, pos = _decode_reply(data, end, memo)
        else:
            value, pos = _decode_value(data, 0, end, memo)
    except BinaryCodecError as error:
        raise WireError(str(error)) from error
    except RecursionError:
        # Outside input: a few KB of nested one-element lists.
        raise WireError("binary frame nests deeper than the decoder recurses") from None
    if pos != end:
        raise WireError(
            f"binary frame has {end - pos} trailing garbage bytes"
        )
    return value


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------


def encode_frame(
    value: Any, max_frame: int = DEFAULT_MAX_FRAME, codec: str = CODEC_BINARY
) -> bytes:
    """One value as a length-prefixed frame in the given codec."""
    if codec == CODEC_BINARY:
        # Encode straight after the header slot: framing adds no copy.
        out = bytearray(_LENGTH.size)
        try:
            _encode_body(value, out)
        except BinaryCodecError as error:
            raise WireError(str(error)) from error
        except RecursionError:
            raise WireError("value nests deeper than the encoder recurses") from None
        length = len(out) - _LENGTH.size
        if length > max_frame:
            raise WireError(f"frame of {length} bytes exceeds limit {max_frame}")
        _LENGTH.pack_into(out, 0, length)
        return bytes(out)
    body = json.dumps(
        to_jsonable(value), separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    if len(body) > max_frame:
        raise WireError(f"frame of {len(body)} bytes exceeds limit {max_frame}")
    return _LENGTH.pack(len(body)) + body


def decode_frame(
    buffer: Buffer, max_frame: int = DEFAULT_MAX_FRAME, codec: str = CODEC_BINARY
) -> Any:
    """Decode exactly one frame occupying the whole buffer."""
    if len(buffer) < _LENGTH.size:
        raise WireError(f"truncated frame: {len(buffer)} bytes is no header")
    (length,) = _LENGTH.unpack_from(buffer)
    if length > max_frame:
        raise WireError(f"frame length {length} exceeds limit {max_frame}")
    body = memoryview(buffer)[_LENGTH.size :]
    if len(body) != length:
        raise WireError(
            f"truncated frame: header says {length} bytes, got {len(body)}"
        )
    return _decode_body(body, codec)


def _decode_body(body: Buffer, codec: str) -> Any:
    if codec == CODEC_BINARY:
        return decode_binary(body)
    try:
        document = json.loads(str(body, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"frame body is not JSON: {error}") from error
    return from_jsonable(document)


class FrameDecoder:
    """Incremental decoder for a byte stream of frames.

    Feed arbitrary chunks; complete frames come out, partial frames stay
    buffered. A malformed length prefix or body raises :class:`WireError`
    and poisons the decoder (a stream is unrecoverable once desynced).

    :meth:`frames` decodes lazily, one frame per step; :meth:`feed`
    decodes the whole chunk at once.
    """

    def __init__(
        self, max_frame: int = DEFAULT_MAX_FRAME, codec: str = CODEC_BINARY
    ) -> None:
        self.max_frame = max_frame
        self.codec = codec
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> List[Any]:
        """Consume ``data``; return every frame completed by it."""
        return list(self.frames(data))

    def frames(self, data: bytes) -> Iterator[Any]:
        """Consume ``data``; yield each frame it completes, lazily.

        Frames are walked with a read offset and the buffer is compacted
        once, when the iteration ends; frames not pulled stay buffered.
        """
        if self._poisoned:
            raise WireError("decoder poisoned by an earlier malformed frame")
        buffer = self._buffer
        buffer += data
        header = _LENGTH.size
        pos = 0
        try:
            while len(buffer) - pos >= header:
                (length,) = _LENGTH.unpack_from(buffer, pos)
                if length > self.max_frame:
                    raise WireError(
                        f"frame length {length} exceeds limit {self.max_frame}"
                    )
                end = pos + header + length
                if end > len(buffer):
                    break
                # Decode through a memoryview -- no copy of the body --
                # released before the final del resizes the bytearray.
                with memoryview(buffer) as view:
                    frame = _decode_body(view[pos + header : end], self.codec)
                pos = end
                yield frame
        except WireError:
            self._poisoned = True
            raise
        finally:
            # A poisoned buffer is dead, and the failed body's view may
            # still be pinned by the traceback: leave it alone.
            if not self._poisoned:
                del buffer[:pos]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buffer)
