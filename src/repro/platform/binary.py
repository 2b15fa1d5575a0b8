"""The binary value codec shared by the wire and storage layers.

One tag byte per value, then its payload:

=============  ====  =====================================================
``None``       0x00  --
``True``       0x01  --
``False``      0x02  --
``int``        0x03  zigzag varint (any size)
``float``      0x04  big-endian f64
``str``        0x05  uvarint length, UTF-8
``AgentId``    0x06  uvarint value, uvarint width
``tuple``      0x07  uvarint count, the items
``list``       0x08  uvarint count, the items
str-key dict   0x09  uvarint count, (string, value) pairs: keys untagged
other dict     0x0A  uvarint count, (value, value) pairs
``Request``    0x0B  op (interned index or inline string), message id,
                     size, body, sender node, sender agent
``Response``   0x0C  message id, size, value, error
id table       0x0D  a dict keyed by same-width ``AgentId``s, as columns
``AgentId``    0x10  width exactly 64: eight raw bytes
=============  ====  =====================================================

0x0E and 0x0F are reserved: :mod:`repro.service.wire` uses them as the
first byte of a call / reply frame, so a value never starts with them.
Tags, column kinds and ``INTERNED_OPS`` are append-only -- bytes written
today decode under every later version.

An *id table* (0x0D) is the per-agent table a split hands over or an
IAgent journals (``records``, ``loads``, ``capabilities``): count, key
width, a value-column kind, the keys as one ``struct`` pack of u64s, and
the values -- one pack of i64s for ints, a string table plus one slot
byte and one i64 per row for ``[str, int]`` rows, or one tagged value
each. Tables decoded from one buffer with the same key column share
their key objects; the bytes do not say so.

Two layers frame these values: :mod:`repro.service.wire` as
length-prefixed network frames (around its call / reply headers), and
:mod:`repro.storage` as CRC-checked WAL records and snapshots (format
2). Errors are :class:`BinaryCodecError`; each layer re-raises it under
its own vocabulary (``WireError``, ``StorageError``) at its boundary, so
the per-value code carries no error class around.

Decoding memoizes short strings by their raw bytes and encoding their
length-prefixed form (protocol dict keys repeat thousands of times per
table), both capped against garbage input. :func:`encode_into` and
:func:`decode` are the one-value entry points; the wire builds its frame
headers on this module's internals directly.
"""

from __future__ import annotations

import struct
from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, List, Tuple, Union

from repro.platform.jsonable import TaggedCodecError
from repro.platform.messages import Request, Response
from repro.platform.naming import AgentId

__all__ = [
    "BinaryCodecError",
    "Buffer",
    "INTERNED_OPS",
    "decode",
    "encode_into",
]

Buffer = Union[bytes, bytearray, memoryview]

_F64 = struct.Struct(">d")
_U64 = struct.Struct(">Q")


class BinaryCodecError(TaggedCodecError):
    """A value that cannot be encoded, or bytes that are not one value."""


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
# 0x0E, 0x0F: the wire's call / reply frame kinds, never a value tag.
_T_AID64 = 0x10  # an AgentId of width exactly 64: eight raw bytes

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
        raise BinaryCodecError(
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


def _read_uvarint(data: bytes, pos: int, end: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise BinaryCodecError("binary value truncated inside a varint")
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
#: ("agent", "node", "status", ...) thousands of times per table;
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
            raise BinaryCodecError("binary value truncated inside a varint")
        byte = data[pos]
        pos += 1
        length |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
    stop = pos + length
    if stop > end:
        raise BinaryCodecError("binary value truncated inside a string")
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
        raise BinaryCodecError(f"binary string is not UTF-8: {error}") from error


#: The key columns one buffer has decoded: ``(width, u64 bytes)`` -> the
#: ``AgentId`` keys built from them. Each decode of a whole buffer (one
#: WAL record, one wire frame) makes its own and drops it on return, so
#: tables of one buffer share key objects and two buffers never do.
_KeyMemo = Dict[Tuple[int, bytes], List[Any]]


def _decode_value(data: bytes, pos: int, end: int, memo: _KeyMemo) -> Tuple[Any, int]:
    if pos >= end:
        raise BinaryCodecError("binary value truncated at a value tag")
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
                raise BinaryCodecError("binary value truncated inside a varint")
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
                raise BinaryCodecError("binary value truncated inside a varint")
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
            raise BinaryCodecError("binary value truncated inside a 64-bit AgentId")
        # Eight bytes cannot exceed 64 bits: nothing left to validate.
        return tuple.__new__(AgentId, (_U64.unpack_from(data, pos)[0], 64)), stop
    if tag == _T_AID:
        raw, pos = _read_uvarint(data, pos, end)
        width, pos = _read_uvarint(data, pos, end)
        try:
            return AgentId(raw, width), pos
        except ValueError as error:
            raise BinaryCodecError(f"malformed binary AgentId: {error}") from error
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
            raise BinaryCodecError("binary value truncated inside a float")
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag == _T_DICT_ANY:
        count, pos = _read_uvarint(data, pos, end)
        table = {}
        for _ in range(count):
            key, pos = _decode_value(data, pos, end, memo)
            try:
                table[key], pos = _decode_value(data, pos, end, memo)
            except TypeError as error:  # a forged list or dict as the key
                raise BinaryCodecError(f"binary dict key: {error}") from error
        return table, pos
    if tag == _T_REQUEST:
        if pos >= end:
            raise BinaryCodecError("binary value truncated inside a request op")
        op_kind = data[pos]
        pos += 1
        if op_kind == _OP_INTERNED:
            index, pos = _read_uvarint(data, pos, end)
            if index >= len(INTERNED_OPS):
                raise BinaryCodecError(f"unknown interned op index {index}")
            op = INTERNED_OPS[index]
        elif op_kind == _OP_INLINE:
            op, pos = _read_str(data, pos, end)
        else:
            raise BinaryCodecError(f"malformed request op discriminator {op_kind:#x}")
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
    raise BinaryCodecError(f"unknown binary tag {tag:#04x}")


def _decode_aid_table(
    data: bytes, pos: int, end: int, memo: _KeyMemo
) -> Tuple[Dict, int]:
    """Invert :func:`_encode_aid_table`.

    The keys are built in one C-level pass that skips ``AgentId``'s
    per-instance validation, so its checks are made here on the whole
    column: width, value range, and -- a dict cannot hold one -- a
    repeated key. A column this buffer already decoded (a bundle's
    ``records`` and ``loads`` name the same agents) reuses those keys,
    checks and all.
    """
    count, pos = _read_uvarint(data, pos, end)
    keys_at = pos + 2
    keys_end = keys_at + 8 * count
    if count == 0 or keys_end > end:
        raise BinaryCodecError("binary AgentId table is empty or truncated in its keys")
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
        raise BinaryCodecError(f"unknown AgentId table column kind {kind:#04x}")
    return dict(zip(keys, column)), pos


def _decode_keys(data: bytes, pos: int, count: int, width: int) -> List[Any]:
    if not 1 <= width <= 64:
        raise BinaryCodecError(f"binary AgentId table has key width {width}")
    raw = struct.unpack_from(f">{count}Q", data, pos)
    if max(raw) >> width:
        raise BinaryCodecError(f"binary AgentId table key out of range for width {width}")
    if len(set(raw)) != count:
        raise BinaryCodecError("binary AgentId table repeats a key")
    return list(map(tuple.__new__, repeat(AgentId), zip(raw, repeat(width))))


def _unpack_i64s(data: bytes, pos: int, end: int, count: int) -> Tuple[int, ...]:
    if pos + 8 * count > end:
        raise BinaryCodecError("binary AgentId table truncated inside an i64 column")
    return struct.unpack_from(f">{count}q", data, pos)


def _decode_rows(
    data: bytes, pos: int, end: int, count: int, as_tuples: bool
) -> Tuple[List, int]:
    if pos >= end:
        raise BinaryCodecError("binary AgentId table truncated at its row strings")
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
        raise BinaryCodecError("binary AgentId table row names a string it does not carry")
    rows = zip(map(strings.__getitem__, slots), numbers)
    return (list(rows) if as_tuples else list(map(list, rows))), numbers_at + 8 * count


def encode_into(value: Any, out: bytearray) -> None:
    """Append ``value``'s encoding to ``out``."""
    try:
        _encode_value(value, out)
    except RecursionError:
        raise BinaryCodecError("value nests deeper than the encoder recurses") from None


def decode(buffer: Buffer) -> Any:
    """Invert :func:`encode_into`; the buffer must hold exactly one value."""
    data = buffer if type(buffer) is bytes else bytes(buffer)
    end = len(data)
    try:
        value, pos = _decode_value(data, 0, end, {})
    except RecursionError:
        # Outside input: a few KB of nested one-element lists.
        raise BinaryCodecError("value nests deeper than the decoder recurses") from None
    if pos != end:
        raise BinaryCodecError(f"value is followed by {end - pos} trailing bytes")
    return value
