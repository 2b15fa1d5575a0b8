"""The wire codec: length-prefixed binary frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of body. Every frame on every socket is in the one ``"binary"``
codec: the values of :mod:`repro.platform.binary` -- one tag byte per
value, zigzag-varint integers, raw-int ``AgentId`` payloads (eight raw
bytes for a 64-bit id) and per-agent tables as columns -- the same
encoding the durable-state layer writes its WAL records and snapshots
in. This module owns the framing and the call / reply headers around
those values, and the table of interned op names a call header indexes.

A body is one of three *frame kinds*, told apart by its first byte and
only there: a *call* -- one fixed ``struct`` header (op index, message
id, target) and the request body; a *reply* -- a header (value or
error, message id) and that one payload; or a bare tagged *value*. The
two kind bytes (0x0E, 0x0F) are tags the value codec leaves unused.

An RPC is its header fields end to end. The transport encodes a call
with :func:`encode_call` and a reply with :func:`encode_reply`, straight
from those fields, and :meth:`FrameDecoder.decode` turns every complete
frame of a received segment into a flat tuple -- ``(CALL, target, op,
body, message_id)``, ``(REPLY, message_id, value, error)`` or ``(VALUE,
value)`` -- decoding them all by offset from one ``bytes`` copy of the
segment. No envelope object is built on either end.

The header is an RPC's only wire form. A call whose fields do not fit
it -- an op that is not a string, a message id outside u64 -- and a
reply carrying both a value and an error, or an error that is not a
string, raise :class:`WireError`; the value codec has no envelope tag
to fall back to (its 0x0B / 0x0C are retired).

The simulator's envelopes (:class:`~repro.platform.messages.Request`,
:class:`~repro.platform.messages.Response`) survive at the one-shot
edge only, as an adapter on the same functions: :func:`encode_frame`
sends a ``{"to", "req"}`` envelope to :func:`encode_call` and a
``Response`` to :func:`encode_reply` (one whose simulator-only fields --
``size``, the senders -- are set has no wire form and raises), and
:func:`decode_frame`, :func:`decode_binary` and
:meth:`FrameDecoder.feed` rebuild envelopes from the tuples. Any other
value is a value frame.

There is no handshake: a connection speaks binary from its first byte.
The compatibility rule is the format's own -- value tags, column kinds
and ``INTERNED_OPS`` are append-only, and retired tags are never
reused -- and bytes in any other format are what any garbage is to the
decoder: :class:`WireError` (the value codec's ``BinaryCodecError``,
re-raised here), and that connection is dropped. Truncated one-shot
buffers, oversized length prefixes and malformed bodies all raise
:class:`WireError` -- a server must never crash on a garbage frame.

The one-shot functions and the decoder also take an explicit
``codec=CODEC_JSON``: the body as UTF-8 JSON in the reversible tagging
scheme of :mod:`repro.platform.jsonable` (``AgentId`` as
``{"$aid": ...}``, tuples as ``{"$tuple": ...}`` and so on). It has no
frame kinds -- every JSON frame decodes as a value frame -- and no
socket of the service carries it; it is the readable dump of a decoded
frame and the comparator the codec benchmarks time binary against. This
module re-exports ``to_jsonable``/``from_jsonable`` bound to
:class:`WireError`.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.platform import jsonable
from repro.platform.binary import (
    _U64,
    BinaryCodecError,
    Buffer,
    TaggedCodecError,
    _decode_value,
    _encode_value,
    _read_str,
    _write_str,
)
from repro.platform.messages import Request, Response
from repro.platform.naming import AgentId

__all__ = [
    "CALL",
    "CODEC_BINARY",
    "CODEC_JSON",
    "DEFAULT_MAX_FRAME",
    "FrameDecoder",
    "REPLY",
    "VALUE",
    "WireError",
    "decode_binary",
    "decode_frame",
    "encode_binary",
    "encode_call",
    "encode_frame",
    "encode_reply",
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

#: The first field of a decoded frame's tuple: ``(CALL, target, op, body,
#: message_id)``, ``(REPLY, message_id, value, error)``, ``(VALUE, value)``.
CALL = "call"
REPLY = "reply"
VALUE = "value"

_LENGTH = struct.Struct(">I")
_U64_MAX = (1 << 64) - 1

#: Protocol op names carried as a one-byte table index instead of a
#: string. Append only -- indices are wire format, and a call header
#: holds one in a byte with 0xFF taken: 255 entries at most. An op
#: missing here still travels, as an inline string.
INTERNED_OPS: Tuple[str, ...] = (
    "register",
    "update",
    "unregister",
    "locate",
    "whois",
    "refresh",
    "version",
    "ping",
    "get-loads",
    "extract",
    "extract-all",
    "adopt",
    "set-coverage",
    "agent-arrive",
    "agent-depart",
    "register-node",
    "bootstrap",
    "load-report",
    "get-hash-function",
    "get-hash-delta",
    "replica-sync",
    "new-primary",
    "list-iagents",
    "stats",
    "host-iagent",
    "restart-iagent",
    "retire-iagent",
    "crash-iagent",
    "node-stats",
    "register-batch",
    "locate-batch",
    "whois-batch",
    "shard-map",
    "shard-merge",
    "shard-merge-prepare",
    "shard-merge-commit",
    "shard-release",
    "discover-candidates",
    "discover-similar",
    "discover-capability",
    "discover-similar-batch",
    "discover-capability-batch",
    "set-capabilities",
    "hand-off",
)
_OP_INDEX: Dict[str, int] = {name: index for index, name in enumerate(INTERNED_OPS)}


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
# Encoding: call and reply headers around repro.platform.binary values
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


def _sealed(out: bytearray, max_frame: int) -> bytes:
    """Fill in the length slot at the front of ``out``: the frame."""
    length = len(out) - _LENGTH.size
    if length > max_frame:
        raise WireError(f"frame of {length} bytes exceeds limit {max_frame}")
    _LENGTH.pack_into(out, 0, length)
    return bytes(out)


def encode_call(
    message_id: int, op: str, target: Any, body: Any, max_frame: int = DEFAULT_MAX_FRAME
) -> bytes:
    """One RPC call as a frame: the fixed header, then ``body``.

    An op that is not a string or a message id outside u64 does not fit
    the header: :class:`WireError`.
    """
    if type(op) is not str or type(message_id) is not int or not 0 <= message_id <= _U64_MAX:
        raise WireError(f"no call header holds op {op!r} with message id {message_id!r}")
    out = bytearray(_LENGTH.size)  # the length slot: framing adds no copy
    op_byte = _OP_INDEX.get(op, _CALL_OP_INLINE)
    raw_target = type(target) is AgentId and target[1] <= 64
    out += _CALL_HEAD.pack(_T_CALL, op_byte, message_id, target[1] if raw_target else 0)
    try:
        if op_byte == _CALL_OP_INLINE:
            _write_str(op, out)
        if raw_target:
            out += _U64.pack(target[0])
        else:
            _encode_value(target, out)
        _encode_value(body, out)
    except BinaryCodecError as error:
        raise WireError(str(error)) from error
    except RecursionError:
        raise WireError("value nests deeper than the encoder recurses") from None
    return _sealed(out, max_frame)


def encode_reply(
    message_id: int,
    value: Any,
    error: Optional[str] = None,
    max_frame: int = DEFAULT_MAX_FRAME,
) -> bytes:
    """One RPC reply as a frame: the header, then ``value`` or ``error``.

    A message id outside u64, or an error that is not a string or comes
    with a value, does not fit the header: :class:`WireError`.
    """
    if type(message_id) is not int or not 0 <= message_id <= _U64_MAX:
        raise WireError(f"no reply header holds message id {message_id!r}")
    out = bytearray(_LENGTH.size)
    try:
        if error is None:
            out += _REPLY_HEAD.pack(_T_REPLY, _REPLY_VALUE, message_id)
            _encode_value(value, out)
        elif type(error) is str and value is None:
            out += _REPLY_HEAD.pack(_T_REPLY, _REPLY_ERROR, message_id)
            _write_str(error, out)
        else:
            raise WireError(
                f"no reply header holds error {error!r} beside a {type(value).__name__}"
            )
    except BinaryCodecError as exc:
        raise WireError(str(exc)) from exc
    except RecursionError:
        raise WireError("value nests deeper than the encoder recurses") from None
    return _sealed(out, max_frame)


def encode_frame(
    value: Any, max_frame: int = DEFAULT_MAX_FRAME, codec: str = CODEC_BINARY
) -> bytes:
    """One value as a length-prefixed frame in the given codec.

    In binary, the frame kind is read off the value's own shape, here
    and nowhere else: a ``{"to", "req"}`` envelope is a call and a
    ``Response`` a reply, their simulator fields at the defaults (set,
    they have no wire form: :class:`WireError`); any other value is a
    value frame, and one holding an envelope does not encode.
    """
    if codec != CODEC_BINARY:
        body = json.dumps(
            to_jsonable(value), separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
        if len(body) > max_frame:
            raise WireError(f"frame of {len(body)} bytes exceeds limit {max_frame}")
        return _LENGTH.pack(len(body)) + body
    kind = type(value)
    if kind is dict and len(value) == 2 and tuple(value) == ("to", "req"):
        request = value["req"]
        if type(request) is Request:
            if (request.size, request.sender_node, request.sender_agent) != (
                Request.size, None, None
            ):
                raise WireError(f"{request!r} sets a simulator field: it has no wire form")
            return encode_call(
                request.message_id, request.op, value["to"], request.body, max_frame
            )
    elif kind is Response:
        if value.size != Response.size:
            raise WireError(f"a Response of size {value.size} has no wire form")
        return encode_reply(value.message_id, value.value, value.error, max_frame)
    out = bytearray(_LENGTH.size)
    try:
        _encode_value(value, out)
    except BinaryCodecError as error:
        raise WireError(str(error)) from error
    except RecursionError:
        raise WireError("value nests deeper than the encoder recurses") from None
    return _sealed(out, max_frame)


def encode_binary(value: Any) -> bytes:
    """One frame body in the binary codec, unframed (mostly for tests)."""
    return encode_frame(value, max_frame=_U64_MAX)[_LENGTH.size :]


# ----------------------------------------------------------------------
# Decoding: a frame body to its flat tuple
# ----------------------------------------------------------------------

Frame = Tuple[Any, ...]


def _decode_at(data: bytes, start: int, end: int) -> Frame:
    """The tuple of the binary body at ``data[start:end]``, decoded in
    place: the body is read by offset, never sliced or copied."""
    kind = data[start] if start < end else None
    memo: dict = {}  # one key memo per frame (see binary._KeyMemo)
    try:
        if kind == _T_CALL:
            pos = start + _CALL_HEAD.size
            if pos > end:
                raise WireError("binary call frame truncated inside its header")
            _, op_byte, message_id, width = _CALL_HEAD.unpack_from(data, start)
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
            frame: Frame = (CALL, target, op, body, message_id)
        elif kind == _T_REPLY:
            pos = start + _REPLY_HEAD.size
            if pos > end:
                raise WireError("binary reply frame truncated inside its header")
            _, reply_kind, message_id = _REPLY_HEAD.unpack_from(data, start)
            if reply_kind == _REPLY_VALUE:
                value, pos = _decode_value(data, pos, end, memo)
                frame = (REPLY, message_id, value, None)
            elif reply_kind == _REPLY_ERROR:
                error, pos = _read_str(data, pos, end)
                frame = (REPLY, message_id, None, error)
            else:
                raise WireError(f"unknown binary reply kind {reply_kind:#04x}")
        else:
            value, pos = _decode_value(data, start, end, memo)
            frame = (VALUE, value)
    except BinaryCodecError as error:
        raise WireError(str(error)) from error
    except RecursionError:
        # Outside input: a few KB of nested one-element lists.
        raise WireError("binary frame nests deeper than the decoder recurses") from None
    if pos != end:
        raise WireError(f"binary frame has {end - pos} trailing garbage bytes")
    return frame


def _decode_json_at(data: bytes, start: int, end: int) -> Frame:
    """The tuple of the JSON body at ``data[start:end]``: always a value."""
    try:
        document = json.loads(str(data[start:end], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"frame body is not JSON: {error}") from error
    return (VALUE, from_jsonable(document))


def _envelope(frame: Frame) -> Any:
    """A decoded frame in the one-shot edge's form: a call as the
    ``{"to", "req"}`` envelope, a reply as a ``Response``, a value as
    itself."""
    kind = frame[0]
    if kind == CALL:
        _, target, op, body, message_id = frame
        return {"to": target, "req": Request(op=op, body=body, message_id=message_id)}
    if kind == REPLY:
        return Response(frame[1], frame[2], frame[3])
    return frame[1]


def decode_binary(body: Buffer) -> Any:
    """Invert :func:`encode_binary`; the buffer must hold exactly one
    frame body -- a call, a reply, or a bare value.

    The buffer is normalized to ``bytes`` up front: one bulk copy is
    linear and cheap, and every downstream index/slice on ``bytes``
    beats the per-access overhead of ``memoryview`` -- on dict-heavy
    frames the difference is ~2x end to end.
    """
    data = body if type(body) is bytes else bytes(body)
    return _envelope(_decode_at(data, 0, len(data)))


def decode_frame(
    buffer: Buffer, max_frame: int = DEFAULT_MAX_FRAME, codec: str = CODEC_BINARY
) -> Any:
    """Decode exactly one frame occupying the whole buffer."""
    if len(buffer) < _LENGTH.size:
        raise WireError(f"truncated frame: {len(buffer)} bytes is no header")
    (length,) = _LENGTH.unpack_from(buffer)
    if length > max_frame:
        raise WireError(f"frame length {length} exceeds limit {max_frame}")
    if len(buffer) - _LENGTH.size != length:
        raise WireError(
            f"truncated frame: header says {length} bytes, got {len(buffer) - _LENGTH.size}"
        )
    data = buffer if type(buffer) is bytes else bytes(buffer)
    decode = _decode_at if codec == CODEC_BINARY else _decode_json_at
    return _envelope(decode(data, _LENGTH.size, len(data)))


class FrameDecoder:
    """Incremental decoder for a byte stream of frames.

    Feed arbitrary chunks; complete frames come out, partial frames stay
    buffered. A malformed length prefix or body raises :class:`WireError`
    and poisons the decoder (a stream is unrecoverable once desynced).

    :meth:`decode` is the live path: every frame one chunk completes, as
    flat tuples, in one pass. :meth:`feed` is the one-shot edge's form,
    envelopes rebuilt.
    """

    def __init__(
        self, max_frame: int = DEFAULT_MAX_FRAME, codec: str = CODEC_BINARY
    ) -> None:
        self.max_frame = max_frame
        self.codec = codec
        self._decode_at: Callable[[bytes, int, int], Frame] = (
            _decode_at if codec == CODEC_BINARY else _decode_json_at
        )
        self._buffer = bytearray()
        self._poisoned = False

    def decode(self, data: Buffer, frames: List[Frame]) -> None:
        """Consume ``data``; append the tuple of every frame it
        completes to ``frames``.

        The pending tail and ``data`` become one ``bytes`` and every
        complete frame is decoded from it by offset. A malformed frame
        raises :class:`WireError` after the frames before it were
        appended, so a caller can still serve those.
        """
        if self._poisoned:
            raise WireError("decoder poisoned by an earlier malformed frame")
        buffer = self._buffer
        if buffer:
            buffer += data
            data = bytes(buffer)
            del buffer[:]
        elif type(data) is not bytes:
            data = bytes(data)
        size = len(data)
        header = _LENGTH.size
        decode = self._decode_at
        pos = 0
        try:
            while size - pos >= header:
                (length,) = _LENGTH.unpack_from(data, pos)
                if length > self.max_frame:
                    raise WireError(f"frame length {length} exceeds limit {self.max_frame}")
                end = pos + header + length
                if end > size:
                    break
                frames.append(decode(data, pos + header, end))
                pos = end
        except WireError:
            self._poisoned = True
            raise
        if pos < size:
            buffer += memoryview(data)[pos:]

    def feed(self, data: Buffer) -> List[Any]:
        """Consume ``data``; return every frame completed by it."""
        frames: List[Frame] = []
        self.decode(data, frames)
        return [_envelope(frame) for frame in frames]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buffer)
