"""The wire codec: length-prefixed binary frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of body. Every frame on every socket is in the one ``"binary"``
codec -- a compact ``struct``/varint format: one tag byte per value,
zigzag-varint integers, raw-int ``AgentId`` payloads (eight raw bytes
for a 64-bit id), interned protocol op names, and tuple/dict shapes
without per-value tags. A dict keyed by same-width ``AgentId``s -- the
per-agent tables a split or merge hands over -- travels as columns: one
``struct`` pack for the keys, and for int or ``[node, seq]`` values too.
Tables of one frame with the same key column (a bundle's ``records``
and ``loads``) decode to the same key objects; the bytes do not say so.

A body is one of three *frame kinds*, told apart by its first byte and
only there: a *call* -- the ``{"to", "req"}`` envelope every RPC is sent
in, as one fixed ``struct`` header (op index, message id, target) and
the request body; a *reply* -- a ``Response`` as a header (value or
error, message id) and that one payload; or a bare tagged value. The
encoder reads the kind off the value's shape: an envelope whose
simulator-only fields (``size``, the senders) are unset and whose
message id fits a u64 is a call or a reply, anything else is the tagged
value it always was (``Request`` 0x0B / ``Response`` 0x0C inside it),
and both decode to equal objects.

There is no handshake: a connection speaks binary from its first byte.
The compatibility rule is the format's own -- value tags, column kinds
and ``INTERNED_OPS`` are append-only -- and bytes in any other format
are what any garbage is to the decoder: :class:`WireError`, and that
connection is dropped.

``encode_frame``/``decode_frame`` are the one-shot forms;
:class:`FrameDecoder` consumes a byte stream incrementally (partial
frames simply wait for more bytes) -- the service's transports feed it
from ``data_received``; ``read_frame``/``write_frame`` do the same for
peers built on asyncio streams. Truncated one-shot buffers, oversized
length prefixes and malformed bodies all raise :class:`WireError` -- a
server must never crash on a garbage frame.
Binary decoding normalizes the frame to ``bytes`` once up front and
memoizes short strings (dict keys and enum-ish values repeat thousands
of times in batched tables), which together roughly halve decode time
on dict-heavy frames.

The one-shot and stream functions also take an explicit
``codec=CODEC_JSON``: the body as UTF-8 JSON in the reversible tagging
scheme of :mod:`repro.platform.jsonable` (``AgentId`` as
``{"$aid": ...}``, tuples as ``{"$tuple": ...}`` and so on) -- the form
the durable-state layer persists. No socket of the service carries it;
it is the readable dump of a decoded frame and the comparator the codec
benchmarks time binary against. This module owns the framing and the
binary codec, and re-exports ``to_jsonable``/``from_jsonable`` bound to
:class:`WireError`.
"""

from __future__ import annotations

import json
import struct
from asyncio import IncompleteReadError, StreamReader, StreamWriter
from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.platform import jsonable
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
    "read_frame",
    "to_jsonable",
    "write_frame",
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
_F64 = struct.Struct(">d")
_U64 = struct.Struct(">Q")
_U64_MAX = (1 << 64) - 1

Buffer = Union[bytes, bytearray, memoryview]


class WireError(TaggedCodecError):
    """A frame or value that cannot be (de)coded."""


# ----------------------------------------------------------------------
# Tagged-JSON value codec (shared with repro.storage via jsonable)
# ----------------------------------------------------------------------


def to_jsonable(value: Any) -> Any:
    """Lower a protocol value to plain JSON types, tagging rich ones."""
    return jsonable.to_jsonable(value, error=WireError)


def from_jsonable(value: Any) -> Any:
    """Invert :func:`to_jsonable`."""
    return jsonable.from_jsonable(value, error=WireError)


# ----------------------------------------------------------------------
# Binary value codec
# ----------------------------------------------------------------------

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

# One tag byte per value. bool/None get dedicated tags; containers carry
# a varint count; dicts whose keys are all strings skip per-key tags.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_AID = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT_STR = 0x09
_T_DICT_ANY = 0x0A
_T_REQUEST = 0x0B
_T_RESPONSE = 0x0C
_T_AID_TABLE = 0x0D
_T_AID64 = 0x10  # an AgentId of width exactly 64: eight raw bytes
# Frame kinds: legal as a frame body's first byte only, never inside a
# value (see ``_encode_body`` / ``decode_binary``).
_T_CALL = 0x0E
_T_REPLY = 0x0F

# Value-column kinds of an AgentId table (``_T_AID_TABLE``). Append only.
_COL_ANY = 0x00  # one tagged value per key, as in _T_DICT_ANY
_COL_I64 = 0x01  # ints: big-endian i64 each
_COL_ROWS_LIST = 0x02  # [str, int] rows: string table + u8 slots + i64s
_COL_ROWS_TUPLE = 0x03  # the same rows, as tuples

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
#: A row column indexes its string table with one byte per row.
_MAX_ROW_STRINGS = 256

# Request op field discriminator: interned table index vs inline string.
_OP_INLINE = 0x00
_OP_INTERNED = 0x01

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


def _write_uvarint(n: int, out: bytearray) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _write_svarint(n: int, out: bytearray) -> None:
    _write_uvarint((n << 1) if n >= 0 else (((-n) << 1) - 1), out)


#: Length-prefixed UTF-8 encodings of short strings, keyed by the
#: string -- the encode-side twin of ``_STR_CACHE`` (same repeated dict
#: keys, same cap against unbounded growth).
_STR_ENCODE_CACHE: Dict[str, bytes] = {}


def _write_str(text: str, out: bytearray) -> None:
    cached = _STR_ENCODE_CACHE.get(text)
    if cached is not None:
        out += cached
        return
    data = text.encode("utf-8")
    length = len(data)
    if length <= 0x7F:
        out.append(length)
        out += data
        if (
            length <= _STR_CACHE_MAX_LEN
            and len(_STR_ENCODE_CACHE) < _STR_CACHE_MAX_SIZE
        ):
            _STR_ENCODE_CACHE[text] = bytes([length]) + data
        return
    _write_uvarint(length, out)
    out += data


def _encode_value(value: Any, out: bytearray) -> None:
    kind = type(value)
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif kind is int:
        out.append(_T_INT)
        _write_svarint(value, out)
    elif kind is str:
        out.append(_T_STR)
        _write_str(value, out)
    elif kind is AgentId:
        if value[1] == 64:
            out.append(_T_AID64)
            out += _U64.pack(value[0])
        else:
            out.append(_T_AID)
            _write_uvarint(value[0], out)
            _write_uvarint(value[1], out)
    elif kind is float:
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif kind is dict:
        _encode_dict(value, out)
    elif kind is list:
        out.append(_T_LIST)
        _write_uvarint(len(value), out)
        for item in value:
            _encode_value(item, out)
    elif kind is tuple:
        out.append(_T_TUPLE)
        _write_uvarint(len(value), out)
        for item in value:
            _encode_value(item, out)
    elif kind is Request:
        out.append(_T_REQUEST)
        index = _OP_INDEX.get(value.op)
        if index is None:
            out.append(_OP_INLINE)
            _write_str(value.op, out)
        else:
            out.append(_OP_INTERNED)
            _write_uvarint(index, out)
        _write_svarint(value.message_id, out)
        _write_svarint(value.size, out)
        _encode_value(value.body, out)
        _encode_value(value.sender_node, out)
        _encode_value(value.sender_agent, out)
    elif kind is Response:
        out.append(_T_RESPONSE)
        _write_svarint(value.message_id, out)
        _write_svarint(value.size, out)
        _encode_value(value.value, out)
        _encode_value(value.error, out)
    elif isinstance(value, bool):  # bool subclass, before the int check
        out.append(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        _write_svarint(value, out)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        out.append(_T_STR)
        _write_str(value, out)
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST if isinstance(value, list) else _T_TUPLE)
        _write_uvarint(len(value), out)
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        _encode_dict(value, out)
    else:
        raise WireError(
            f"value of type {type(value).__name__!r} is not wire-encodable"
        )


def _encode_dict(value: Dict, out: bytearray) -> None:
    all_str = True
    for key in value:
        if type(key) is not str:
            all_str = False
            break
    count = len(value)
    if all_str:
        out.append(_T_DICT_STR)
        if count <= 0x7F:
            out.append(count)
        else:
            _write_uvarint(count, out)
        for key, item in value.items():
            _write_str(key, out)
            _encode_value(item, out)
    elif type(key) is AgentId and _encode_aid_table(value, out):
        pass
    else:
        out.append(_T_DICT_ANY)
        if count <= 0x7F:
            out.append(count)
        else:
            _write_uvarint(count, out)
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)


def _encode_aid_table(table: Dict, out: bytearray) -> bool:
    """Append ``table`` in the column form, if its keys allow it.

    The per-agent tables of a hand-off bundle (``records``, ``loads``,
    ``capabilities``) are thousands of same-width ids: the keys travel
    as one ``struct`` pack of u64s, and the values too when they are all
    ints or all ``[str, int]`` rows -- the shape is read off the values,
    nothing is declared by the caller. Keys of mixed type or width, or
    wider than 64 bits, append nothing and return False (the dict then
    travels as ``_T_DICT_ANY``).
    """
    if set(map(type, table)) != {AgentId}:
        return False
    widths = {key.width for key in table}
    if len(widths) != 1 or max(widths) > 64:
        return False
    count = len(table)
    out.append(_T_AID_TABLE)
    _write_uvarint(count, out)
    out.append(widths.pop())
    kind_at = len(out)
    out.append(_COL_ANY)
    out += struct.pack(f">{count}Q", *[key.value for key in table])
    column = list(table.values())
    kinds = set(map(type, column))  # bool is not int here: it stays bool
    if kinds == {int}:
        if _I64_MIN <= min(column) and max(column) <= _I64_MAX:
            out[kind_at] = _COL_I64
            out += struct.pack(f">{count}q", *column)
            return True
    elif kinds == {list} or kinds == {tuple}:
        if _encode_rows(column, out):
            out[kind_at] = _COL_ROWS_LIST if kinds == {list} else _COL_ROWS_TUPLE
            return True
    for item in column:
        _encode_value(item, out)
    return True


def _encode_rows(rows: List, out: bytearray) -> bool:
    """Append ``[str, int]`` rows (location records: node, seq) as a
    string table, one slot byte per row and the ints as i64s. Rows of
    any other shape append nothing and return False."""
    if set(map(len, rows)) != {2}:  # ragged rows, or not two fields each
        return False
    # Not ``zip(*rows)``: that holds a live iterator per row, and a
    # bundle's worth of them is a cyclic collection paid for nothing.
    names = list(map(itemgetter(0), rows))
    numbers = list(map(itemgetter(1), rows))
    if set(map(type, names)) != {str} or set(map(type, numbers)) != {int}:
        return False
    if min(numbers) < _I64_MIN or max(numbers) > _I64_MAX:
        return False
    strings = list(dict.fromkeys(names))
    if len(strings) > _MAX_ROW_STRINGS:
        return False
    out.append(len(strings) - 1)
    for text in strings:
        _write_str(text, out)
    slot_of = {text: slot for slot, text in enumerate(strings)}
    out += bytes(map(slot_of.__getitem__, names))
    out += struct.pack(f">{len(numbers)}q", *numbers)
    return True


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
    _encode_body(value, out)
    return bytes(out)


def _read_uvarint(data: bytes, pos: int, end: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise WireError("binary frame truncated inside a varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _read_svarint(data: bytes, pos: int, end: int) -> Tuple[int, int]:
    raw, pos = _read_uvarint(data, pos, end)
    return ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1)), pos


#: Decoded short strings, keyed by their raw UTF-8 bytes. Protocol
#: payloads repeat the same handful of dict keys and enum-ish values
#: ("agent", "node", "status", ...) thousands of times per frame;
#: memoizing turns each repeat into one dict lookup instead of a UTF-8
#: decode + fresh str object. Capped so garbage traffic cannot grow it
#: without bound.
_STR_CACHE: Dict[bytes, str] = {}
_STR_CACHE_MAX_LEN = 24
_STR_CACHE_MAX_SIZE = 4096


def _read_str(data: bytes, pos: int, end: int) -> Tuple[str, int]:
    # The uvarint loop is inlined: strings (and dict keys through them)
    # are the hottest decode path, and the call overhead shows.
    length = 0
    shift = 0
    while True:
        if pos >= end:
            raise WireError("binary frame truncated inside a varint")
        byte = data[pos]
        pos += 1
        length |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
    stop = pos + length
    if stop > end:
        raise WireError("binary frame truncated inside a string")
    try:
        if length <= _STR_CACHE_MAX_LEN:
            raw = data[pos:stop]
            cached = _STR_CACHE.get(raw)
            if cached is None:
                cached = raw.decode("utf-8")
                if len(_STR_CACHE) < _STR_CACHE_MAX_SIZE:
                    _STR_CACHE[raw] = cached
            return cached, stop
        return data[pos:stop].decode("utf-8"), stop
    except UnicodeDecodeError as error:
        raise WireError(f"binary string is not UTF-8: {error}") from error


#: The key columns one frame has decoded: ``(width, u64 bytes)`` -> the
#: ``AgentId`` keys built from them. A ``decode_binary`` call makes its
#: own and drops it on return, so tables of one frame share key objects
#: and two frames never do.
_KeyMemo = Dict[Tuple[int, bytes], List[Any]]


def _decode_value(data: bytes, pos: int, end: int, memo: _KeyMemo) -> Tuple[Any, int]:
    if pos >= end:
        raise WireError("binary frame truncated at a value tag")
    tag = data[pos]
    pos += 1
    # Tag checks ordered by frequency in protocol payloads: batched
    # tables and discovery replies are walls of string-keyed dicts,
    # strings and ints, so those exit the chain first. Container count
    # varints are inlined for the same reason.
    if tag == _T_STR:
        return _read_str(data, pos, end)
    if tag == _T_DICT_STR:
        count = 0
        shift = 0
        while True:
            if pos >= end:
                raise WireError("binary frame truncated inside a varint")
            byte = data[pos]
            pos += 1
            count |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        table: Dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _read_str(data, pos, end)
            table[key], pos = _decode_value(data, pos, end, memo)
        return table, pos
    if tag == _T_INT:
        raw = 0
        shift = 0
        while True:
            if pos >= end:
                raise WireError("binary frame truncated inside a varint")
            byte = data[pos]
            pos += 1
            raw |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        return ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1)), pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_AID64:
        stop = pos + 8
        if stop > end:
            raise WireError("binary frame truncated inside a 64-bit AgentId")
        # Eight bytes cannot exceed 64 bits: nothing left to validate.
        return tuple.__new__(AgentId, (_U64.unpack_from(data, pos)[0], 64)), stop
    if tag == _T_AID:
        raw, pos = _read_uvarint(data, pos, end)
        width, pos = _read_uvarint(data, pos, end)
        try:
            return AgentId(raw, width), pos
        except ValueError as error:
            raise WireError(f"malformed binary AgentId: {error}") from error
    if tag == _T_LIST:
        count, pos = _read_uvarint(data, pos, end)
        items: List[Any] = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, end, memo)
            items.append(item)
        return items, pos
    if tag == _T_TUPLE:
        count, pos = _read_uvarint(data, pos, end)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, end, memo)
            items.append(item)
        return tuple(items), pos
    if tag == _T_FLOAT:
        if pos + 8 > end:
            raise WireError("binary frame truncated inside a float")
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag == _T_DICT_ANY:
        count, pos = _read_uvarint(data, pos, end)
        table = {}
        for _ in range(count):
            key, pos = _decode_value(data, pos, end, memo)
            try:
                table[key], pos = _decode_value(data, pos, end, memo)
            except TypeError as error:  # a forged list or dict as the key
                raise WireError(f"binary dict key: {error}") from error
        return table, pos
    if tag == _T_REQUEST:
        if pos >= end:
            raise WireError("binary frame truncated inside a request op")
        op_kind = data[pos]
        pos += 1
        if op_kind == _OP_INTERNED:
            index, pos = _read_uvarint(data, pos, end)
            if index >= len(INTERNED_OPS):
                raise WireError(f"unknown interned op index {index}")
            op = INTERNED_OPS[index]
        elif op_kind == _OP_INLINE:
            op, pos = _read_str(data, pos, end)
        else:
            raise WireError(f"malformed request op discriminator {op_kind:#x}")
        message_id, pos = _read_svarint(data, pos, end)
        size, pos = _read_svarint(data, pos, end)
        body, pos = _decode_value(data, pos, end, memo)
        sender_node, pos = _decode_value(data, pos, end, memo)
        sender_agent, pos = _decode_value(data, pos, end, memo)
        request = Request(
            op=op,
            body=body,
            sender_node=sender_node,
            sender_agent=sender_agent,
            size=size,
            message_id=message_id,
        )
        return request, pos
    if tag == _T_RESPONSE:
        message_id, pos = _read_svarint(data, pos, end)
        size, pos = _read_svarint(data, pos, end)
        value, pos = _decode_value(data, pos, end, memo)
        error, pos = _decode_value(data, pos, end, memo)
        return Response(message_id=message_id, value=value, error=error, size=size), pos
    if tag == _T_AID_TABLE:
        return _decode_aid_table(data, pos, end, memo)
    raise WireError(f"unknown binary tag {tag:#04x}")


def _decode_aid_table(
    data: bytes, pos: int, end: int, memo: _KeyMemo
) -> Tuple[Dict, int]:
    """Invert :func:`_encode_aid_table`.

    The keys are built in one C-level pass that skips ``AgentId``'s
    per-instance validation, so its checks are made here on the whole
    column: width, value range, and -- a dict cannot hold one -- a
    repeated key. A column this frame already decoded (a bundle's
    ``records`` and ``loads`` name the same agents) reuses those keys,
    checks and all.
    """
    count, pos = _read_uvarint(data, pos, end)
    keys_at = pos + 2
    keys_end = keys_at + 8 * count
    if count == 0 or keys_end > end:
        raise WireError("binary AgentId table is empty or truncated in its keys")
    width, kind = data[pos], data[pos + 1]
    column_key = (width, data[keys_at:keys_end])
    keys = memo.get(column_key)
    if keys is None:
        keys = memo[column_key] = _decode_keys(data, keys_at, count, width)
    pos = keys_end
    if kind == _COL_I64:
        column: Any = _unpack_i64s(data, pos, end, count)
        pos += 8 * count
    elif kind == _COL_ROWS_LIST or kind == _COL_ROWS_TUPLE:
        column, pos = _decode_rows(data, pos, end, count, kind == _COL_ROWS_TUPLE)
    elif kind == _COL_ANY:
        column = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, end, memo)
            column.append(item)
    else:
        raise WireError(f"unknown AgentId table column kind {kind:#04x}")
    return dict(zip(keys, column)), pos


def _decode_keys(data: bytes, pos: int, count: int, width: int) -> List[Any]:
    if not 1 <= width <= 64:
        raise WireError(f"binary AgentId table has key width {width}")
    raw = struct.unpack_from(f">{count}Q", data, pos)
    if max(raw) >> width:
        raise WireError(f"binary AgentId table key out of range for width {width}")
    if len(set(raw)) != count:
        raise WireError("binary AgentId table repeats a key")
    return list(map(tuple.__new__, repeat(AgentId), zip(raw, repeat(width))))


def _unpack_i64s(data: bytes, pos: int, end: int, count: int) -> Tuple[int, ...]:
    if pos + 8 * count > end:
        raise WireError("binary AgentId table truncated inside an i64 column")
    return struct.unpack_from(f">{count}q", data, pos)


def _decode_rows(
    data: bytes, pos: int, end: int, count: int, as_tuples: bool
) -> Tuple[List, int]:
    if pos >= end:
        raise WireError("binary AgentId table truncated at its row strings")
    strings = []
    string_count = data[pos] + 1
    pos += 1
    for _ in range(string_count):
        text, pos = _read_str(data, pos, end)
        strings.append(text)
    numbers_at = pos + count
    slots = data[pos:numbers_at]
    numbers = _unpack_i64s(data, numbers_at, end, count)
    if max(slots) >= len(strings):
        raise WireError("binary AgentId table row names a string it does not carry")
    rows = zip(map(strings.__getitem__, slots), numbers)
    return (list(rows) if as_tuples else list(map(list, rows))), numbers_at + 8 * count


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


# ----------------------------------------------------------------------
# asyncio stream helpers
# ----------------------------------------------------------------------


async def read_frame(
    reader: StreamReader,
    max_frame: int = DEFAULT_MAX_FRAME,
    codec: str = CODEC_BINARY,
) -> Optional[Any]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except IncompleteReadError as error:
        if not error.partial:
            return None
        raise WireError("connection closed mid-header") from error
    (length,) = _LENGTH.unpack(header)
    if length > max_frame:
        raise WireError(f"frame length {length} exceeds limit {max_frame}")
    try:
        body = await reader.readexactly(length)
    except IncompleteReadError as error:
        raise WireError("connection closed mid-frame") from error
    return _decode_body(body, codec)


async def write_frame(
    writer: StreamWriter,
    value: Any,
    max_frame: int = DEFAULT_MAX_FRAME,
    codec: str = CODEC_BINARY,
) -> None:
    """Encode ``value`` and flush it to the stream."""
    writer.write(encode_frame(value, max_frame=max_frame, codec=codec))
    await writer.drain()
