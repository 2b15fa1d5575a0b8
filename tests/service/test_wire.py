"""Property and adversarial tests for the wire codec.

The round-trip law is the whole contract: for every value the protocol
can put on the wire -- including :class:`AgentId` as *dictionary keys*
(location-record tables), nested tuples (hash-tree specs) and the
``Request``/``Response`` envelopes (in binary, those whose fields a
call / reply header holds: it is an RPC's only wire form) --
``decode(encode(v)) == v``.
Hypothesis generates the values; explicit tests cover the adversarial
side (truncated, oversized and garbage frames must raise
:class:`WireError`, never crash or mis-decode).
"""

import gc
import hashlib
import json
import struct
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.iagent_state import IAgentState
from repro.core.load import LoadStatistics
from repro.platform.messages import Request, Response
from repro.platform.naming import AgentId
from repro.service import wire
from repro.service.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    DEFAULT_MAX_FRAME,
    INTERNED_OPS,
    FrameDecoder,
    WireError,
    decode_binary,
    decode_frame,
    encode_binary,
    encode_call,
    encode_frame,
    encode_reply,
    from_jsonable,
    to_jsonable,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

agent_ids = st.builds(
    AgentId,
    value=st.integers(min_value=0, max_value=2**64 - 1),
    width=st.just(64),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
    agent_ids,
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        # String-keyed dicts, including keys that *look* like wire tags
        # (the $esc escape path must round-trip them).
        st.dictionaries(
            st.one_of(st.text(max_size=10), st.just("$aid"), st.just("$dict")),
            children,
            max_size=4,
        ),
        # AgentId-keyed dicts: the shape of a location-record table.
        st.dictionaries(agent_ids, children, max_size=4),
        # Int-keyed dicts exercise the generic $dict path.
        st.dictionaries(st.integers(), children, max_size=3),
    )


def sized_ids(width):
    return st.builds(
        AgentId,
        value=st.integers(min_value=0, max_value=2**width - 1),
        width=st.just(width),
    )


def record_rows(seqs):
    return st.tuples(st.sampled_from(["n0", "n1", "node-\u00e9"]), seqs)


I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

# Same-width AgentId-keyed dicts in the shapes a hand-off bundle ships
# (loads, record rows, capability sets) and the near misses a column
# encoder must leave alone: bools, ints beyond i64, tuple rows.
aid_tables = st.integers(min_value=1, max_value=64).flatmap(
    lambda width: st.one_of(
        st.dictionaries(sized_ids(width), I64, max_size=6),
        st.dictionaries(sized_ids(width), st.integers(), max_size=4),
        st.dictionaries(sized_ids(width), st.booleans() | I64, max_size=4),
        st.dictionaries(sized_ids(width), record_rows(I64), max_size=6),
        st.dictionaries(sized_ids(width), record_rows(I64).map(list), max_size=6),
        st.dictionaries(
            sized_ids(width), record_rows(st.integers() | st.booleans()), max_size=4
        ),
        st.dictionaries(sized_ids(width), scalars, max_size=4),
    )
)

values = st.recursive(scalars | aid_tables, containers, max_leaves=12)

requests = st.builds(
    Request,
    op=st.sampled_from(["locate", "update", "whois", "get-hash-delta"]),
    body=values,
    sender_node=st.one_of(st.none(), st.text(max_size=10)),
    sender_agent=st.one_of(st.none(), agent_ids),
    size=st.integers(min_value=0, max_value=65536),
)

responses = st.builds(
    Response,
    message_id=st.integers(min_value=0, max_value=2**31),
    value=values,
    error=st.one_of(st.none(), st.text(max_size=30)),
    size=st.integers(min_value=0, max_value=65536),
)

# The RPC envelope and its reply, on both sides of every condition that
# lets one travel as a fixed frame header (see ``header_form``).
targets = st.one_of(
    st.sampled_from([1, 63, 64, 65, 128]).flatmap(sized_ids),
    st.sampled_from(["lhagent", "host", "hagent", ""]),
)
message_ids = st.one_of(
    st.sampled_from([0, 2**64 - 1, 2**64, -1]),
    st.integers(min_value=0, max_value=2**64 - 1),
)
sizes = st.sampled_from([256, 256, 256, 255])
def rarely(strategy):
    """``None`` three draws out of four."""
    return st.one_of(st.none(), st.none(), st.none(), strategy)


envelope_ops = st.sampled_from(["locate", INTERNED_OPS[-1], "never-interned-op", ""])
envelope_requests = st.builds(
    Request,
    op=envelope_ops,
    body=values,
    sender_node=rarely(st.just("node-0")),
    sender_agent=rarely(agent_ids),
    size=sizes,
    message_id=message_ids,
)
envelopes = st.one_of(
    st.builds(lambda to, req: {"to": to, "req": req}, targets, envelope_requests),
    st.builds(lambda to, req: {"req": req, "to": to}, targets, envelope_requests),
    st.builds(lambda to, req: {"to": to, "req": req, "via": 1}, targets, envelope_requests),
    st.builds(lambda to, body: {"to": to, "req": body}, targets, values),
)
envelope_responses = st.one_of(
    st.builds(Response, message_id=message_ids, value=values, size=sizes),
    st.builds(
        Response,
        message_id=message_ids,
        value=rarely(values),
        error=st.one_of(st.text(max_size=30), st.just(7)),
        size=sizes,
    ),
)

wire_values = st.one_of(values, requests, responses, envelopes, envelope_responses)

u64_ids = st.one_of(
    st.sampled_from([0, 1, 2**63, 2**64 - 1]),
    st.integers(min_value=0, max_value=2**64 - 1),
)
# What the binary codec carries: values, and envelopes a header holds.
binary_values = st.one_of(
    values,
    st.builds(
        lambda to, op, body, message_id: {
            "to": to, "req": Request(op=op, body=body, message_id=message_id)
        },
        targets,
        envelope_ops,
        values,
        u64_ids,
    ),
    st.builds(Response, message_id=u64_ids, value=values),
    st.builds(Response, message_id=u64_ids, error=st.text(max_size=30)),
)


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------


def json_round_trip(value):
    return decode_frame(encode_frame(value, codec=CODEC_JSON), codec=CODEC_JSON)


class TestRoundTrip:
    """The tagged-JSON form; test_wire_binary holds the binary twins."""

    @given(wire_values)
    @settings(max_examples=300)
    def test_frame_round_trip_identity(self, value):
        assert json_round_trip(value) == value

    @given(wire_values)
    def test_jsonable_round_trip_identity(self, value):
        assert from_jsonable(to_jsonable(value)) == value

    @given(requests)
    def test_request_preserves_message_id(self, request):
        assert json_round_trip(request).message_id == request.message_id

    @pytest.mark.parametrize("codec", [CODEC_BINARY, CODEC_JSON])
    def test_decoding_a_request_consumes_no_message_id(self, codec):
        # A Request's default id comes from one process-wide counter;
        # decoding an envelope must not draw from it.
        sent = Request(op="locate", body={"agent": AgentId(5)})
        frame = encode_frame({"to": "ia-0", "req": sent}, codec=codec)
        assert codec != CODEC_BINARY or frame[4] == CALL  # the header form too
        assert decode_frame(frame, codec=codec)["req"].message_id == sent.message_id
        assert Request(op="locate").message_id == sent.message_id + 1

    @given(st.dictionaries(agent_ids, st.tuples(st.text(max_size=8), st.integers()), max_size=5))
    def test_record_table_round_trip(self, table):
        # The exact shape IAgents ship during extract/adopt: AgentId
        # keys, (node, seq) tuple values.
        assert json_round_trip(table) == table

    @given(st.lists(wire_values, min_size=1, max_size=5))
    def test_streamed_frames_decode_in_order(self, items):
        stream = b"".join(encode_frame(item, codec=CODEC_JSON) for item in items)
        decoder = FrameDecoder(codec=CODEC_JSON)
        decoded = []
        # Feed one byte at a time: reassembly must be split-agnostic.
        for index in range(0, len(stream), 7):
            decoded.extend(decoder.feed(stream[index : index + 7]))
        assert decoded == items
        assert decoder.pending_bytes == 0


# ----------------------------------------------------------------------
# AgentId tables: the binary codec's column form (tag 0x0D)
# ----------------------------------------------------------------------

TABLE, GENERIC = 0x0D, 0x0A
STR_DICT, CALL, REPLY = 0x09, 0x0E, 0x0F
# The first byte of the generic envelope forms, now retired: a call was
# a string-keyed dict holding a 0x0B Request, a reply a 0x0C Response.
GENERIC_CALL, GENERIC_REPLY = STR_DICT, 0x0C
RETIRED_TAGS = (0x0B, 0x0C)
ID_ANY_WIDTH, ID_64 = 0x06, 0x10
ANY, INTS, LIST_ROWS, TUPLE_ROWS = 0, 1, 2, 3


def column_kind(table):
    """The value-column kind byte of ``table``'s binary encoding."""
    body = encode_binary(table)
    assert body[0] == TABLE
    at = 1
    while body[at] & 0x80:  # the count varint
        at += 1
    return body[at + 2]


def binary_round_trip(value):
    return decode_frame(encode_frame(value, codec=CODEC_BINARY), codec=CODEC_BINARY)


def ids(count, width=64):
    return [AgentId((0x9E3779B97F4A7C15 * n) % 2**width, width) for n in range(1, count + 1)]


class TestAgentIdTables:
    @given(binary_values)
    @settings(max_examples=300)
    def test_binary_round_trip_keeps_every_type(self, value):
        decoded = binary_round_trip(value)
        assert decoded == value
        # == alone lets True pass for 1; the repr also pins key order.
        assert repr(decoded) == repr(value)

    @pytest.mark.parametrize(
        "column, kind",
        [
            ([True, False, True], ANY),  # never an int column
            ([1, True, 2], ANY),
            ([0, -(2**63), 2**63 - 1], INTS),
            ([0, 2**63, 1], ANY),  # beyond i64
            ([0, -(2**63) - 1, 1], ANY),
            ([("n0", 1), ("n1", 2), ("n0", 3)], TUPLE_ROWS),  # tuples stay tuples
            ([["n0", 1], ["n1", 2], ["n0", -(2**63)]], LIST_ROWS),
            ([["n0", 1], ("n1", 2), ["n0", 3]], ANY),  # mixed containers
            ([["n0", 1], ["n1"], ["n0", 3]], ANY),  # ragged
            ([["n0", 1, 2], ["n1", 2, 3], ["n0", 3, 4]], ANY),
            ([[], [], []], ANY),
            ([["n0", 2**63], ["n1", 2], ["n0", 3]], ANY),
            ([["n0", True], ["n1", 2], ["n0", 3]], ANY),
            ([[0, 1], [1, 2], [2, 3]], ANY),  # the "node" is not a string
            ([{"gpu": True}, {"tier": "core"}, {}], ANY),
            ([None, 1.5, "x"], ANY),
        ],
    )
    def test_value_shapes_survive(self, column, kind):
        table = dict(zip(ids(3), column))
        assert column_kind(table) == kind
        assert repr(decode_binary(encode_binary(table))) == repr(table)

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 63, 64])
    def test_every_width_up_to_64_is_a_table(self, width):
        table = {AgentId(0, width): 1, AgentId(2**width - 1, width): 2}
        assert encode_binary(table)[0] == TABLE
        assert binary_round_trip(table) == table
        assert [key.width for key in binary_round_trip(table)] == [width, width]

    @pytest.mark.parametrize(
        "table",
        [
            {AgentId(1, 65): 1, AgentId(2**65 - 1, 65): 2},  # wider than a u64
            {AgentId(1, 64): 1, AgentId(1, 32): 2},  # mixed widths
            {AgentId(1): 1, "one": 2},  # mixed key types
            {AgentId(1): 1, 1: 2},
        ],
    )
    def test_other_keys_fall_back_to_the_generic_dict(self, table):
        assert encode_binary(table)[0] == GENERIC
        assert repr(binary_round_trip(table)) == repr(table)

    def test_empty_dict_stays_a_plain_dict(self):
        assert binary_round_trip({}) == {}
        assert binary_round_trip({"records": {}, "loads": {}}) == {"records": {}, "loads": {}}

    @pytest.mark.parametrize("nodes", [256, 257, 1000])
    def test_many_distinct_nodes(self, nodes):
        # One slot byte per row addresses 256 strings; past that the
        # rows travel one by one, and still come back the same.
        table = {agent: [f"node-{n}", n] for n, agent in enumerate(ids(nodes))}
        assert column_kind(table) == (LIST_ROWS if nodes <= 256 else ANY)
        assert repr(binary_round_trip(table)) == repr(table)

    def test_key_order_is_preserved(self):
        keys = ids(50)
        table = {key: n for n, key in enumerate(reversed(keys))}
        assert list(binary_round_trip(table)) == list(table)

    def test_json_codec_is_untouched(self):
        table = {agent: ["n0", n] for n, agent in enumerate(ids(4))}
        assert json_round_trip(table) == table


def handoff_bundle(count):
    """A split's hand-off: ``records`` and ``loads`` over the same agents
    (one key column twice), and a capability table over two of them."""
    agents = ids(count)
    return {
        "records": {agent: [f"node-{n % 5}", n] for n, agent in enumerate(agents)},
        "loads": {agent: n * 3 for n, agent in enumerate(agents)},
        "capabilities": {agents[0]: {"gpu": True}, agents[3]: {"tier": "core"}},
    }


def handoff_frame():
    """A small ``adopt`` request: every column kind in one frame, and
    ``records`` / ``loads`` sharing a key column -- a corrupted copy of
    it in the second table must still be caught."""
    agents = ids(6)
    bundle = {
        "records": {agent: [f"n{n % 2}", n] for n, agent in enumerate(agents)},
        "loads": {agent: n * 3 for n, agent in enumerate(agents)},
        "capabilities": {agents[0]: {"gpu": True}, agents[3]: {"tier": "core"}},
        "pattern": "1x0",
    }
    request = Request(op="adopt", body=bundle, message_id=3)
    return encode_binary({"to": agents[0], "req": request})


def framed(body):
    return struct.pack(">I", len(body)) + body


class TestAgentIdTableRejection:
    """A table frame off the network raises WireError or decodes --
    nothing else may escape the transport's ``data_received``."""

    def test_every_truncation_is_a_wire_error(self):
        body = handoff_frame()
        for cut in range(len(body)):
            with pytest.raises(WireError):
                FrameDecoder(codec=CODEC_BINARY).feed(framed(body[:cut]))

    def test_single_byte_mutations_raise_only_wire_error(self):
        body = handoff_frame()
        outcomes = {"decoded": 0, "rejected": 0}
        for at in range(len(body)):
            for byte in range(256):
                mutant = body[:at] + bytes([byte]) + body[at + 1 :]
                try:
                    FrameDecoder(codec=CODEC_BINARY).feed(framed(mutant))
                    outcomes["decoded"] += 1
                except WireError:
                    outcomes["rejected"] += 1
        # Both happen: a flipped seq byte is a valid frame, a flipped tag is not.
        assert outcomes["decoded"] > 1000 and outcomes["rejected"] > 1000

    def test_repeated_key_rejected(self):
        table = dict.fromkeys(ids(3), 7)
        body = bytearray(encode_binary(table))
        keys_at = 4  # tag, count, width, column kind
        body[keys_at + 8 : keys_at + 16] = body[keys_at : keys_at + 8]
        with pytest.raises(WireError, match="repeats a key"):
            decode_binary(bytes(body))

    @pytest.mark.parametrize(
        "at, byte, message",
        [(2, 0, "width"), (2, 65, "width"), (3, 9, "column kind"), (1, 0, "empty")],
    )
    def test_forged_header_rejected(self, at, byte, message):
        body = bytearray(encode_binary(dict.fromkeys(ids(3), 7)))
        body[at] = byte  # tag, count, width, column kind
        with pytest.raises(WireError, match=message):
            decode_binary(bytes(body))

    def test_key_beyond_its_width_rejected(self):
        body = bytearray(encode_binary({AgentId(1, 8): 1, AgentId(2, 8): 2}))
        body[4] = 0x01  # top byte of the first u64: far outside 8 bits
        with pytest.raises(WireError, match="out of range"):
            decode_binary(bytes(body))

    def test_row_slot_beyond_the_string_table_rejected(self):
        table = {agent: ["n0", n] for n, agent in enumerate(ids(2))}
        body = bytearray(encode_binary(table))
        slots_at = 4 + 16 + 1 + 3  # header, keys, string count, "n0"
        assert body[slots_at : slots_at + 2] == b"\x00\x00"
        body[slots_at] = 1
        with pytest.raises(WireError, match="string it does not carry"):
            decode_binary(bytes(body))

    def test_unhashable_key_in_a_generic_dict_rejected(self):
        # Found by the mutation sweep's neighbourhood: {[]: None}.
        with pytest.raises(WireError, match="unhashable"):
            decode_binary(bytes([GENERIC, 1, 0x08, 0, 0x00]))

    def test_absurd_id_width_allocates_nothing(self):
        # AgentId(0, 2**56): the range check used to compute 1 << width.
        body = bytes([0x06, 0]) + b"\x80" * 8 + b"\x01"
        assert decode_binary(body).width == 2**56

    @pytest.mark.parametrize(
        "body",
        [
            bytes([0x06, 5, 0]),  # AgentId(5, 0)
            bytes([0x06, 0x80, 0x02, 8]),  # AgentId(256, 8)
        ],
    )
    def test_forged_single_id_rejected(self, body):
        with pytest.raises(WireError, match="malformed binary AgentId"):
            decode_binary(body)

    def test_huge_count_is_rejected_before_any_allocation(self):
        body = bytes([TABLE]) + b"\xff" * 9 + b"\x01" + bytes([64, 1]) + b"\x00" * 64
        with pytest.raises(WireError):
            decode_binary(body)


# ----------------------------------------------------------------------
# One frame, one key object per agent
# ----------------------------------------------------------------------


def shared_columns(width=8):
    """``{"records", "loads"}`` over three ``width``-bit ids, encoded,
    and the offset of the ``loads`` table's header (tag, count, width,
    column kind, keys)."""
    agents = [AgentId(value, width) for value in (3, 200, 17)]
    body = encode_binary(
        {
            "records": {agent: ["n0", n] for n, agent in enumerate(agents)},
            "loads": dict.fromkeys(agents, 1),
        }
    )
    loads_at = body.index(b"\x05loads") + 6
    assert body[loads_at] == TABLE
    return bytearray(body), loads_at


class TestSharedKeyColumns:
    """Tables of one frame with one key column decode to one set of
    ``AgentId`` objects; the column is checked the first time only, and
    any other column -- a corrupted copy included -- is checked again."""

    def test_records_and_loads_share_keys(self):
        bundle = decode_binary(encode_binary(handoff_bundle(20)))
        assert all(a is b for a, b in zip(bundle["records"], bundle["loads"]))
        assert bundle == handoff_bundle(20)

    def test_two_frames_share_no_key(self):
        frame = encode_binary(handoff_bundle(20))
        first, second = decode_binary(frame), decode_binary(frame)
        held = {id(key) for table in first.values() for key in table}
        assert not held & {id(key) for table in second.values() for key in table}

    def test_a_repeated_key_in_the_second_column_is_rejected(self):
        body, loads_at = shared_columns()
        keys_at = loads_at + 4
        body[keys_at + 8 : keys_at + 16] = body[keys_at : keys_at + 8]
        with pytest.raises(WireError, match="repeats a key"):
            decode_binary(bytes(body))

    def test_a_narrower_width_on_the_second_column_is_range_checked(self):
        body, loads_at = shared_columns()
        body[loads_at + 2] = 7  # the id 200 does not fit 7 bits
        with pytest.raises(WireError, match="out of range"):
            decode_binary(bytes(body))

    def test_a_wider_width_on_the_second_column_gets_its_own_keys(self):
        body, loads_at = shared_columns()
        body[loads_at + 2] = 16
        decoded = decode_binary(bytes(body))
        assert [key.width for key in decoded["records"]] == [8, 8, 8]
        assert [key.width for key in decoded["loads"]] == [16, 16, 16]


@contextmanager
def collector_paused():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def tracked_per_record(action, records):
    """How far ``action()`` raises the young generation's count, per
    record: the container objects it allocates and leaves alive."""
    gc.collect()
    with collector_paused():
        before = gc.get_count()[0]
        result = action()
        return result, (gc.get_count()[0] - before) / records


class TestHandOffAllocations:
    """A split's hand-off allocates about one container per moved record
    per hop -- the row -- and no cyclic collection is paid for it."""

    RECORDS = 2000

    def adopt_frame(self):
        bundle = handoff_bundle(self.RECORDS)
        del bundle["capabilities"]
        request = Request(op="adopt", body=bundle, message_id=1)
        return encode_binary({"to": ids(1)[0], "req": request})

    def test_decode_then_adopt_budget(self):
        frame = self.adopt_frame()
        call, decoded = tracked_per_record(lambda: decode_binary(frame), self.RECORDS)
        assert decoded <= 2.05  # an id and a [node, seq] row per record
        state = IAgentState("", LoadStatistics(window=1.0))
        _, adopted = tracked_per_record(lambda: state.adopt(call["req"].body), self.RECORDS)
        assert adopted <= 0.05
        assert state.table["records"] == handoff_bundle(self.RECORDS)["records"]

    def test_encoding_a_bundle_runs_no_collection(self):
        request = Request(op="adopt", body=handoff_bundle(self.RECORDS), message_id=1)
        value = {"to": ids(1)[0], "req": request}
        runs = []

        def count(phase, info):
            if phase == "start":
                runs.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            encode_binary(value)
        finally:
            gc.callbacks.remove(count)
        assert runs == []


# ----------------------------------------------------------------------
# Frame kinds: the RPC envelope and its reply as fixed headers (0x0E, 0x0F)
# ----------------------------------------------------------------------


def in_u64(number):
    return type(number) is int and 0 <= number < 2**64


def header_form(value):
    """The frame kind ``value``'s own shape gives it -- the conditions of
    PROTOCOLS.md section 11, written out apart from the encoder."""
    if type(value) is dict and list(value) == ["to", "req"]:
        request = value["req"]
        if (
            type(request) is Request
            and request.size == 256
            and request.sender_node is None
            and request.sender_agent is None
            and type(request.op) is str
            and in_u64(request.message_id)
        ):
            return CALL
    if type(value) is Response and value.size == 256 and in_u64(value.message_id):
        if value.error is None or (type(value.error) is str and value.value is None):
            return REPLY
    return None


LOCATE_CALL = {
    "to": AgentId(0xC << 60),
    "req": Request(op="locate", body={"agent": AgentId(0x9E3779B97F4A7C15)}, message_id=7),
}
INLINE_OP_CALL = {
    "to": "lhagent",
    "req": Request(op="op-of-the-future", body={"agent": AgentId(5, 12)}, message_id=2**64 - 1),
}
LOCATE_REPLY = Response(message_id=7, value={"status": "ok", "node": "node-3", "seq": 41})
ERROR_REPLY = Response(message_id=8, error="unknown-op: 'nope'")
HEADER_FRAMES = [LOCATE_CALL, INLINE_OP_CALL, LOCATE_REPLY, ERROR_REPLY]


def holds_an_envelope(value):
    return type(value) is Response or (
        type(value) is dict and any(type(item) in (Request, Response) for item in value.values())
    )


class TestFrameKinds:
    @given(st.one_of(envelopes, envelope_responses))
    @settings(max_examples=500)
    def test_header_form_exactly_when_the_shape_allows(self, value):
        kind = header_form(value)
        if kind is None and holds_an_envelope(value):
            with pytest.raises(WireError):  # no header holds it: no form at all
                encode_frame(value)
            return
        body = encode_binary(value)
        assert body[0] == (kind or STR_DICT)  # else an envelope-shaped plain dict
        assert encode_frame(value)[4:] == body  # one choice, both entry points
        decoded = decode_binary(body)
        assert decoded == value
        assert repr(decoded) == repr(value)
        assert types_of(decoded) == types_of(value)

    @pytest.mark.parametrize(
        "value, kind",
        [
            (LOCATE_CALL, CALL),
            (INLINE_OP_CALL, CALL),
            ({"to": AgentId(1, 65), "req": Request(op="locate", message_id=1)}, CALL),
            ({"to": "ia-0", "req": Request(op="locate", message_id=2**64)}, GENERIC_CALL),
            ({"to": "ia-0", "req": Request(op="locate", message_id=True)}, GENERIC_CALL),
            ({"to": "ia-0", "req": Request(op="locate", sender_node="node-0")}, GENERIC_CALL),
            ({"to": "ia-0", "req": Request(op="locate", sender_agent=AgentId(1))}, GENERIC_CALL),
            ({"to": "ia-0", "req": Request(op="locate", size=255)}, GENERIC_CALL),
            ({"req": Request(op="locate"), "to": "ia-0"}, GENERIC_CALL),
            (LOCATE_REPLY, REPLY),
            (ERROR_REPLY, REPLY),
            (Response(message_id=0, value=None), REPLY),
            (Response(message_id=-1, error="unknown-op: 'nope'"), GENERIC_REPLY),
            (Response(message_id=1, value={"partial": 1}, error="and an error"), GENERIC_REPLY),
            (Response(message_id=1, error=7), GENERIC_REPLY),
            (Response(message_id=1, value=1, size=255), GENERIC_REPLY),
        ],
    )
    def test_each_shape_condition(self, value, kind):
        assert header_form(value) == (kind if kind in (CALL, REPLY) else None)
        if kind in (GENERIC_CALL, GENERIC_REPLY):  # the retired forms: none left
            with pytest.raises(WireError):
                encode_frame(value)
            return
        body = encode_binary(value)
        assert body[0] == kind
        assert decode_binary(body) == value

    def test_a_nested_envelope_has_no_wire_form(self):
        request, reply = LOCATE_CALL["req"], LOCATE_REPLY
        for value in ([LOCATE_CALL], {"batch": LOCATE_CALL}, [reply], request, (request, reply)):
            with pytest.raises(WireError, match="not wire-encodable"):
                encode_frame(value)

    @pytest.mark.parametrize("width", [1, 12, 63, 64, 65, 128])
    def test_an_id_decodes_equal_to_a_constructed_one(self, width):
        agent = AgentId(2**width - 1, width)
        body = encode_binary(agent)
        assert body[0] == (ID_64 if width == 64 else ID_ANY_WIDTH)
        as_target = encode_binary({"to": agent, "req": Request(op="ping")})
        for decoded in (decode_binary(body), decode_binary(as_target)["to"]):
            assert type(decoded) is AgentId
            assert decoded == AgentId(2**width - 1, width) and hash(decoded) == hash(agent)
            assert (decoded.value, decoded.width, decoded.bits) == (agent.value, width, agent.bits)

    def test_a_64_bit_id_in_the_older_tag_still_decodes(self):
        # What an encoder from before 0x10 sends for AgentId(5).
        old = decode_binary(bytes([ID_ANY_WIDTH, 5, 64]))
        new = decode_binary(bytes([ID_64]) + (5).to_bytes(8, "big"))
        assert old == new == AgentId(5) and hash(old) == hash(new) == hash(AgentId(5))
        assert type(old) is type(new) is AgentId
        assert {old: "one key"} == {new: "one key"}


class TestFrameKindRejection:
    """A call or reply frame off the network decodes or raises
    ``WireError`` -- nothing else reaches ``data_received``."""

    @pytest.mark.parametrize("value", HEADER_FRAMES)
    def test_every_truncation_is_a_wire_error(self, value):
        body = encode_binary(value)
        for cut in range(len(body)):
            with pytest.raises(WireError):
                FrameDecoder().feed(framed(body[:cut]))
        assert FrameDecoder().feed(framed(body)) == [value]

    @pytest.mark.parametrize("value", HEADER_FRAMES)
    def test_single_byte_mutations_raise_only_wire_error(self, value):
        body = encode_binary(value)
        outcomes = {"decoded": 0, "rejected": 0}
        for at in range(len(body)):
            for byte in range(256):
                mutant = body[:at] + bytes([byte]) + body[at + 1 :]
                try:
                    FrameDecoder().feed(framed(mutant))
                    outcomes["decoded"] += 1
                except WireError:
                    outcomes["rejected"] += 1
        # A flipped message-id byte is a valid frame, a flipped tag is not.
        assert outcomes["decoded"] > 1000 and outcomes["rejected"] > 1000

    @pytest.mark.parametrize("kind", [2, 3, 0x7F, 0xFF])
    def test_unknown_reply_kind_rejected(self, kind):
        body = bytearray(encode_binary(LOCATE_REPLY))
        body[1] = kind  # tag, kind, u64 message id
        with pytest.raises(WireError, match="reply kind"):
            decode_binary(bytes(body))

    @pytest.mark.parametrize("index", [len(INTERNED_OPS), len(INTERNED_OPS) + 1, 0xFE])
    def test_op_index_beyond_the_table_rejected(self, index):
        body = bytearray(encode_binary(LOCATE_CALL))
        body[1] = index  # tag, op, u64 message id, target width
        with pytest.raises(WireError, match="interned op"):
            decode_binary(bytes(body))

    def test_every_interned_op_fits_the_header_byte(self):
        assert len(INTERNED_OPS) < 0xFF
        for op in INTERNED_OPS:
            body = encode_binary({"to": "host", "req": Request(op=op, message_id=1)})
            assert body[1] == INTERNED_OPS.index(op)
            assert decode_binary(body)["req"].op == op

    @pytest.mark.parametrize("width", [65, 66, 128, 255])
    def test_target_width_beyond_64_rejected(self, width):
        body = bytearray(encode_binary(LOCATE_CALL))
        body[10] = width
        with pytest.raises(WireError, match="target width"):
            decode_binary(bytes(body))

    def test_target_beyond_its_width_rejected(self):
        body = bytearray(encode_binary(LOCATE_CALL))
        body[10] = 8  # the target's top byte is 0xC0: far outside 8 bits
        with pytest.raises(WireError, match="out of range"):
            decode_binary(bytes(body))

    @pytest.mark.parametrize("value", HEADER_FRAMES)
    def test_trailing_bytes_rejected(self, value):
        with pytest.raises(WireError, match="trailing garbage"):
            decode_binary(encode_binary(value) + b"\x00")

    @pytest.mark.parametrize("value", [LOCATE_CALL, LOCATE_REPLY])
    def test_a_header_inside_a_value_is_an_unknown_tag(self, value):
        header = encode_binary(value)
        in_a_list = b"\x08\x01" + header
        in_a_dict = b"\x09\x01\x01k" + header
        ping = {"to": "host", "req": Request(op="ping", message_id=1)}
        as_a_call_body = encode_binary(ping)[:-1] + header  # in place of None
        as_a_reply_value = encode_binary(Response(message_id=1))[:-1] + header
        for body in (in_a_list, in_a_dict, as_a_call_body, as_a_reply_value):
            with pytest.raises(WireError, match="unknown binary tag"):
                decode_binary(body)

    def test_truncated_64_bit_id_rejected(self):
        body = encode_binary(AgentId(2**64 - 1))
        for cut in range(1, len(body)):
            with pytest.raises(WireError, match="truncated"):
                decode_binary(body[:cut])
            with pytest.raises(WireError, match="truncated"):
                decode_binary(b"\x08\x01" + body[:cut])


#: The bytes an older encoder wrote for ``Request(op="ping", message_id=1)``
#: under the retired tag: interned op 7, id 1, size 256, three Nones.
OLD_PING = b"\x0b\x01\x07\x02\x80\x04\x00\x00\x00"


def retired_tag_bodies(tag, tail):
    """A frame body holding ``tag`` (then ``tail``) at top level, in a
    list, in a dict, as a call's body and as a reply's value."""
    value = bytes([tag]) + tail
    ping = encode_binary({"to": "host", "req": Request(op="ping", message_id=1)})
    pong = encode_binary(Response(message_id=1))
    return [
        value,
        b"\x08\x01" + value,
        b"\x09\x01\x01k" + value,
        ping[:-1] + value,  # in place of the None body
        pong[:-1] + value,
    ]


class TestRetiredTags:
    """0x0B / 0x0C carried the simulator's envelopes. No decoder accepts
    them anywhere, whatever follows: a frame holding one is garbage."""

    @given(st.sampled_from(RETIRED_TAGS), st.binary(max_size=16))
    @example(RETIRED_TAGS[0], OLD_PING[1:])
    @example(RETIRED_TAGS[1], b"\x02\x80\x04\x00\x00")  # Response(1)
    def test_a_retired_tag_is_refused_everywhere(self, tag, tail):
        for body in retired_tag_bodies(tag, tail):
            with pytest.raises(WireError):
                decode_frame(framed(body))
            decoder, frames = FrameDecoder(), []
            with pytest.raises(WireError):
                decoder.decode(framed(body), frames)
            assert frames == []
            with pytest.raises(WireError, match="poisoned"):
                decoder.decode(encode_frame(1), frames)

    def test_no_encoder_writes_one(self):
        for value in (Request(op="ping", message_id=1), Response(message_id=1, size=1)):
            with pytest.raises(WireError):
                encode_frame(value)
            with pytest.raises(WireError):
                encode_frame([value])


# ----------------------------------------------------------------------
# An id is built on a (value, width) tuple; no codec may confuse the two
# ----------------------------------------------------------------------


def journal_round_trip(value):
    """Through the WAL's form: jsonable, then JSON text."""
    return from_jsonable(json.loads(json.dumps(to_jsonable(value))))


def types_of(value):
    """``value`` with each leaf replaced by its exact type; dicts become
    ``[(key type, value types), ...]`` so key types and order show."""
    if type(value) in (list, tuple):
        return type(value), [types_of(item) for item in value]
    if type(value) is dict:
        return dict, [(types_of(key), types_of(item)) for key, item in value.items()]
    return type(value)


AID, PAIR = AgentId(5, 64), (5, 64)
# In binary a 64-bit id has a tag of its own (0x10); any other width 0x06.
NARROW, NARROW_PAIR = AgentId(5, 12), (5, 12)


@pytest.mark.parametrize(
    "round_trip", [binary_round_trip, json_round_trip, journal_round_trip]
)
class TestIdsAndBarePairsStayDistinct:
    def check(self, round_trip, value):
        decoded = round_trip(value)
        assert decoded == value
        assert types_of(decoded) == types_of(value)

    def test_as_values_and_inside_a_list(self, round_trip):
        assert type(round_trip(AID)) is type(round_trip(NARROW)) is AgentId
        assert type(round_trip(PAIR)) is type(round_trip(NARROW_PAIR)) is tuple
        self.check(round_trip, [AID, PAIR, [PAIR, AID], (AID, PAIR), NARROW, NARROW_PAIR])

    def test_as_dict_keys(self, round_trip):
        self.check(round_trip, {PAIR: "pair"})
        self.check(round_trip, {AID: "id", "name": 1})
        self.check(round_trip, {NARROW: "id", "pair": NARROW_PAIR, "wide": AID})
        assert encode_binary({PAIR: "pair"})[0] == GENERIC

    def test_a_dict_mixing_id_keys_and_pair_keys(self, round_trip):
        # Keys of different values: an id and the *equal* pair are one
        # dict key, the one visible consequence of the tuple base.
        table = {AgentId(5, 64): "id", (6, 64): "pair", AgentId(7, 64): "id"}
        assert encode_binary(table)[0] == GENERIC
        self.check(round_trip, table)
        assert len({AID: 1, PAIR: 2}) == 1

    @pytest.mark.parametrize(
        "column, kind",
        [
            ([None, 1.5, PAIR], ANY),
            ([7, 8, 9], INTS),
            ([["n0", 1], ["n1", 2], ["n0", 3]], LIST_ROWS),
            ([("n0", 1), ("n1", 2), ("n0", 3)], TUPLE_ROWS),
        ],
    )
    def test_ids_through_the_column_form(self, round_trip, column, kind):
        table = dict(zip(ids(3), column))
        assert column_kind(table) == kind
        self.check(round_trip, table)
        self.check(round_trip, {"records": table, "to": AID, "span": PAIR})


# ----------------------------------------------------------------------
# The bytes on the wire, spelled out
# ----------------------------------------------------------------------


class TestFramesArePinned:
    """Recorded frames: a byte that moves here is a wire format change.

    The steady locate pair is pinned in the header forms (request 53 ->
    40 bytes, reply 41 -> 46: a fixed u64 id costs a reply what the
    request saves several times over), and so is the update request (a
    call header is its only form: the generic envelope it once rode
    when a simulator field was set is refused both ways).
    """

    AGENT = AgentId(0x9E3779B97F4A7C15)
    IAGENT = AgentId(0xC << 60)

    def test_locate_request(self):
        request = Request(op="locate", body={"agent": self.AGENT}, message_id=7)
        frame = (
            b"\x00\x00\x00$\x0e\x03\x00\x00\x00\x00\x00\x00\x00\x07@"
            b"\xc0\x00\x00\x00\x00\x00\x00\x00"
            b"\t\x01\x05agent\x10\x9e7y\xb9\x7fJ|\x15"
        )
        assert encode_frame({"to": self.IAGENT, "req": request}) == frame
        assert encode_call(7, "locate", self.IAGENT, {"agent": self.AGENT}) == frame
        assert len(frame) == 40
        decoded = decode_frame(frame)
        assert type(decoded["to"]) is type(decoded["req"].body["agent"]) is AgentId
        reply = Response(message_id=7, value={"status": "ok", "node": "node-3", "seq": 41})
        frame = (
            b"\x00\x00\x00*\x0f\x00\x00\x00\x00\x00\x00\x00\x00\x07"
            b"\t\x03\x06status\x05\x02ok\x04node\x05\x06node-3\x03seq\x03R"
        )
        assert encode_frame(reply) == frame
        assert encode_reply(7, reply.value) == frame
        assert len(frame) == 46

    def test_update_request(self):
        body = {"agent": self.AGENT, "node": "node-2", "seq": 41}
        frame = (
            b"\x00\x00\x005\x0e\x01\x00\x00\x00\x00\x00\x00\x00\x08\x00\x05\x04ia-3"
            b"\t\x03\x05agent\x10\x9e7y\xb9\x7fJ|\x15\x04node\x05\x06node-2\x03seq\x03R"
        )
        assert encode_call(8, "update", "ia-3", body) == frame
        call = {"to": "ia-3", "req": Request(op="update", body=body, message_id=8)}
        assert encode_frame(call) == frame and decode_frame(frame) == call
        assert len(frame) == 57
        # With a simulator field set it has no wire form; and the bytes
        # an older encoder wrote for it then are garbage now.
        request = Request(op="update", body=body, sender_node="node-0", message_id=8)
        with pytest.raises(WireError, match="simulator field"):
            encode_frame({"to": "ia-3", "req": request})
        with pytest.raises(WireError, match="unknown binary tag 0x0b"):
            decode_frame(
                b"\x00\x00\x00B\t\x02\x02to\x05\x04ia-3\x03req\x0b\x01\x01\x10\x80\x04"
                b"\t\x03\x05agent\x10\x9e7y\xb9\x7fJ|\x15"
                b"\x04node\x05\x06node-2\x03seq\x03R\x05\x06node-0\x00"
            )

    def test_extract_reply_of_1000_records(self):
        reply = Response(message_id=9, value={"status": "ok", **handoff_bundle(1000)})
        frame = encode_frame(reply)
        # 33 140 bytes (33 135 before the 10-byte reply header): the
        # head spelled out, the whole by its digest.
        assert frame[:64] == (
            b"\x00\x00\x81p\x0f\x00\x00\x00\x00\x00\x00\x00\x00\t"
            b"\t\x04\x06status\x05\x02ok\x07records"
            b"\r\xe8\x07@\x02\x9e7y\xb9\x7fJ|\x15<n\xf3r\xfe\x94\xf8*"
            b"\xda\xa6m,}\xdft?"
        )
        assert len(frame) == 33140
        assert hashlib.sha256(frame).hexdigest() == (
            "029c5af33c555cb8b7f1e8161697dc00de03adf9bf6fd52bd59588373ab45ccb"
        )
        assert encode_reply(9, reply.value) == frame
        # Behind the retired Response tag (id, size, value, a None
        # error), the frame an older encoder wrote, they are refused.
        with pytest.raises(WireError, match="unknown binary tag 0x0c"):
            decode_frame(framed(b"\x0c\x12\x80\x04" + frame[14:] + b"\x00"))
        decoded = decode_frame(frame)
        assert decoded.value == reply.value
        assert {type(key) for key in decoded.value["records"]} == {AgentId}

    def test_adopt_request_of_1000_records(self):
        # The other hop of a split: coordinator -> new IAgent.
        body = {**handoff_bundle(1000), "pattern": "1x0"}
        request = Request(op="adopt", body=body, message_id=10)
        frame = encode_frame({"to": self.IAGENT, "req": request})
        assert len(frame) == 33151
        assert hashlib.sha256(frame).hexdigest() == (
            "a9a44de9bcddae90ebe62a40c5eb84c21c8079f6653ced77c349a4b50d218154"
        )
        assert encode_call(10, "adopt", self.IAGENT, body) == frame
        assert decode_frame(frame)["req"].body == body


# ----------------------------------------------------------------------
# The live forms: header fields in, flat tuples out
# ----------------------------------------------------------------------

call_ops = st.one_of(
    st.sampled_from(INTERNED_OPS),  # one header byte
    st.sampled_from(["op-of-the-future", "", "\u00e9t\u00e9"]),  # inline strings
    st.text(max_size=12),
)
call_targets = st.one_of(
    st.integers(min_value=1, max_value=64).flatmap(sized_ids),  # a raw u64
    st.sampled_from([65, 100, 128]).flatmap(sized_ids),  # wider: a tagged value
    st.sampled_from(["lhagent", "host", "hagent", ""]),
    st.text(max_size=10),
)
reply_errors = st.one_of(st.text(max_size=30), st.just("unknown-op: 'nope'"))
frame_fields = st.one_of(
    st.tuples(st.just(wire.CALL), call_targets, call_ops, values, u64_ids),
    st.tuples(st.just(wire.REPLY), u64_ids, values, st.none()),
    st.tuples(st.just(wire.REPLY), u64_ids, st.none(), reply_errors),
    st.tuples(st.just(wire.VALUE), values),
)


def encoded(fields):
    """The frame the transport (or, for a value, encode_frame) writes."""
    kind = fields[0]
    if kind == wire.CALL:
        _, target, op, body, message_id = fields
        return encode_call(message_id, op, target, body)
    if kind == wire.REPLY:
        return encode_reply(*fields[1:])
    return encode_frame(fields[1])


def decoded(stream, cuts=()):
    """``stream`` through one decoder, cut at each offset in ``cuts``:
    the tuples and the bytes left pending."""
    decoder, frames, at = FrameDecoder(), [], 0
    for cut in [*cuts, len(stream)]:
        decoder.decode(memoryview(stream)[at:cut], frames)
        at = cut
    return frames, decoder.pending_bytes


class TestHeaderFields:
    """``encode_call`` / ``encode_reply`` write exactly what
    ``encode_frame`` writes for the envelope with those fields, and the
    decoder hands the same fields back; fields no header holds are
    refused by both."""

    @given(call_targets, call_ops, values, st.one_of(u64_ids, st.just(2**64), st.just(2**80)))
    @settings(max_examples=400)
    def test_a_call_is_its_envelope_s_bytes_and_decodes_to_its_fields(
        self, target, op, body, message_id
    ):
        request = Request(op=op, body=body, message_id=message_id)
        if message_id > 2**64 - 1:  # no u64 header for this id, and no other form
            with pytest.raises(WireError, match="no call header"):
                encode_call(message_id, op, target, body)
            with pytest.raises(WireError, match="no call header"):
                encode_frame({"to": target, "req": request})
            return
        frame = encode_call(message_id, op, target, body)
        assert frame == encode_frame({"to": target, "req": request})
        (got,) = decoded(frame)[0]
        assert got == (wire.CALL, target, op, body, message_id)
        assert repr(got) == repr((wire.CALL, target, op, body, message_id))
        assert decode_frame(frame) == {"to": target, "req": request}

    @given(
        st.one_of(u64_ids, st.just(-1), st.just(2**64)),
        st.one_of(values, st.none()),
        st.one_of(st.none(), reply_errors, st.just(7)),
    )
    @settings(max_examples=400)
    def test_a_reply_is_its_response_s_bytes_and_decodes_to_its_fields(
        self, message_id, value, error
    ):
        response = Response(message_id, value, error)
        if header_form(response) != REPLY:  # no reply header holds it
            with pytest.raises(WireError, match="no reply header"):
                encode_reply(message_id, value, error)
            with pytest.raises(WireError, match="no reply header"):
                encode_frame(response)
            return
        frame = encode_reply(message_id, value, error)
        assert frame == encode_frame(response)
        (got,) = decoded(frame)[0]
        assert got == (wire.REPLY, message_id, value, error)
        assert decode_frame(frame) == response

    @pytest.mark.parametrize(
        "fields",
        [
            (1, 7, "host", None),  # an op that is not a string
            (True, "ping", "host", None),  # a bool is no message id
            (-1, "ping", "host", None),
            (2**64, "ping", "host", None),
        ],
    )
    def test_a_call_no_header_holds_is_refused(self, fields):
        with pytest.raises(WireError, match="no call header"):
            encode_call(*fields)

    @pytest.mark.parametrize(
        "fields",
        [
            (-1, None, "unknown-op: 'nope'"),  # an id outside u64
            (True, 1, None),
            (1, None, 7),  # an error that is not a string
            (1, {"partial": 1}, "and an error"),  # a value and an error
        ],
    )
    def test_a_reply_no_header_holds_is_refused(self, fields):
        with pytest.raises(WireError, match="no reply header"):
            encode_reply(*fields)

    def test_a_call_too_big_for_the_limit_is_refused(self):
        with pytest.raises(WireError, match="exceeds limit"):
            encode_call(1, "locate", "host", "x" * 100, max_frame=50)
        with pytest.raises(WireError, match="exceeds limit"):
            encode_reply(1, "x" * 100, max_frame=50)

    def test_an_unencodable_body_is_a_wire_error(self):
        with pytest.raises(WireError):
            encode_call(1, "locate", "host", object())
        with pytest.raises(WireError):
            encode_reply(1, {"value": object()})


class TestSegments:
    """The live read path: each received segment decoded in one pass."""

    @given(st.lists(frame_fields, min_size=1, max_size=6), st.data())
    @settings(max_examples=150)
    def test_streamed_frames_decode_in_order_as_tuples(self, items, data):
        frames = [encoded(fields) for fields in items]
        *whole, last = frames
        # A stream of whole frames and the head of one more: the tail
        # stays pending however the stream is cut.
        tail = last[: data.draw(st.integers(min_value=0, max_value=len(last) - 1))]
        stream = b"".join(whole) + tail
        expected = [tuple(fields) for fields in items[:-1]]
        assert decoded(stream) == (expected, len(tail))  # one-shot
        for cut in range(len(stream) + 1):
            assert decoded(stream, [cut]) == (expected, len(tail))
        sizes = data.draw(st.lists(st.integers(min_value=1, max_value=40), max_size=30))
        cuts, at = [], 0
        for size in sizes:
            at = min(at + size, len(stream))
            cuts.append(at)
        assert decoded(stream, cuts) == (expected, len(tail))

    def test_many_frames_in_one_segment_compact_once(self):
        # ~1000 pipelined frames behind a buffered partial frame: the
        # read offset walks them; the buffer is cut once at the end.
        frames = [{"n": n} for n in range(1000)]
        stream = b"".join(encode_frame(frame) for frame in frames)
        decoder = FrameDecoder()
        assert decoder.feed(stream[:3]) == []
        assert decoder.feed(stream[3:] + stream[:9]) == frames
        assert decoder.pending_bytes == 9

    def test_a_segment_is_decoded_to_the_bad_frame_and_then_refused(self):
        good = encode_call(1, "whois", "lhagent", {"agent": AgentId(5)})
        decoder, frames = FrameDecoder(), []
        with pytest.raises(WireError):
            decoder.decode(good + good + b"\xff\xff\xff\xff junk", frames)
        assert [frame[4] for frame in frames] == [1, 1]
        with pytest.raises(WireError, match="poisoned"):
            decoder.decode(good, frames)


# ----------------------------------------------------------------------
# Adversarial frames
# ----------------------------------------------------------------------


class TestRejection:
    def test_truncated_header_rejected(self):
        with pytest.raises(WireError):
            decode_frame(b"\x00\x00")

    def test_truncated_body_rejected(self):
        frame = encode_frame({"a": 1})
        with pytest.raises(WireError):
            decode_frame(frame[:-2])

    def test_trailing_garbage_rejected(self):
        frame = encode_frame({"a": 1})
        with pytest.raises(WireError):
            decode_frame(frame + b"xx")

    def test_oversized_length_prefix_rejected(self):
        header = struct.pack(">I", DEFAULT_MAX_FRAME + 1)
        with pytest.raises(WireError):
            decode_frame(header + b"{}")

    def test_non_json_body_rejected(self):
        body = b"\xff\xfe not json"
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(WireError):
            decode_frame(frame, codec=CODEC_JSON)

    def test_unknown_tag_rejected(self):
        import json

        body = json.dumps({"$future": 1}).encode()
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(WireError, match="unknown wire tag"):
            decode_frame(frame, codec=CODEC_JSON)

    def test_malformed_aid_payload_rejected(self):
        import json

        body = json.dumps({"$aid": ["not-a-number"]}).encode()
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(WireError):
            decode_frame(frame, codec=CODEC_JSON)

    def test_unencodable_value_rejected(self):
        with pytest.raises(WireError):
            encode_frame(object(), codec=CODEC_JSON)

    def test_frame_over_limit_rejected_on_encode(self):
        with pytest.raises(WireError):
            encode_frame("x" * 100, max_frame=50, codec=CODEC_JSON)


class TestDecoderPoisoning:
    def test_garbage_length_poisons_decoder(self):
        decoder = FrameDecoder(max_frame=1024)
        with pytest.raises(WireError):
            decoder.feed(struct.pack(">I", 2**31) + b"attack")
        # Once desynced, the stream is unrecoverable by design.
        with pytest.raises(WireError, match="poisoned"):
            decoder.feed(encode_frame({"a": 1}))

    def test_malformed_body_poisons_decoder(self):
        decoder = FrameDecoder(codec=CODEC_JSON)
        bad = struct.pack(">I", 4) + b"}{~!"
        with pytest.raises(WireError):
            decoder.feed(bad)
        with pytest.raises(WireError, match="poisoned"):
            decoder.feed(b"")

    def test_partial_frame_is_not_an_error(self):
        decoder = FrameDecoder()
        frame = encode_frame([1, 2, 3])
        assert decoder.feed(frame[:5]) == []
        assert decoder.pending_bytes == 5
        assert decoder.feed(frame[5:]) == [[1, 2, 3]]
