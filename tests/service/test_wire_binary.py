"""The binary wire codec: equivalence and adversarial frames.

The contract extends test_wire's round-trip law across codecs: for
every value the protocol can ship, the binary codec and the tagged-JSON
form must decode back to the *identical* value -- AgentId dictionary
keys, nested tuples and the Request/Response envelopes included. A
binary decoder given the JSON form's bytes must reject them as it does
any garbage; the live half of that is in test_transport.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.messages import Request, Response
from repro.platform.naming import AgentId
from repro.service.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    INTERNED_OPS,
    FrameDecoder,
    WireError,
    decode_binary,
    decode_frame,
    encode_binary,
    encode_frame,
)

# ----------------------------------------------------------------------
# Strategies (same shapes as test_wire, plus binary-only extremes)
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
        st.dictionaries(
            st.one_of(st.text(max_size=10), st.just("$aid"), st.just("$dict")),
            children,
            max_size=4,
        ),
        st.dictionaries(agent_ids, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
    )


values = st.recursive(scalars, containers, max_leaves=12)

requests = st.builds(
    Request,
    op=st.sampled_from(["locate", "update", "whois", "custom-future-op"]),
    body=values,
    sender_node=st.one_of(st.none(), st.text(max_size=10)),
    sender_agent=st.one_of(st.none(), agent_ids),
    size=st.integers(min_value=0, max_value=65536),
)

responses = st.builds(
    Response,
    message_id=st.integers(min_value=-1, max_value=2**31),
    value=values,
    error=st.one_of(st.none(), st.text(max_size=30)),
    size=st.integers(min_value=0, max_value=65536),
)

wire_values = st.one_of(values, requests, responses)


# ----------------------------------------------------------------------
# Cross-codec equivalence
# ----------------------------------------------------------------------


class TestCodecEquivalence:
    @given(wire_values)
    @settings(max_examples=300)
    def test_binary_frame_round_trip_identity(self, value):
        frame = encode_frame(value, codec=CODEC_BINARY)
        assert decode_frame(frame, codec=CODEC_BINARY) == value

    @given(wire_values)
    @settings(max_examples=200)
    def test_binary_and_json_decode_identically(self, value):
        via_binary = decode_frame(
            encode_frame(value, codec=CODEC_BINARY), codec=CODEC_BINARY
        )
        via_json = decode_frame(
            encode_frame(value, codec=CODEC_JSON), codec=CODEC_JSON
        )
        assert via_binary == via_json == value

    @given(requests)
    def test_request_envelope_fields_survive_both_codecs(self, request):
        for codec in (CODEC_BINARY, CODEC_JSON):
            decoded = decode_frame(encode_frame(request, codec=codec), codec=codec)
            assert decoded.op == request.op
            assert decoded.message_id == request.message_id
            assert decoded.body == request.body
            assert decoded.sender_node == request.sender_node
            assert decoded.sender_agent == request.sender_agent
            assert decoded.size == request.size

    @given(st.dictionaries(agent_ids, st.tuples(st.text(max_size=8), st.integers()), max_size=5))
    def test_record_table_round_trip_binary(self, table):
        frame = encode_frame(table, codec=CODEC_BINARY)
        assert decode_frame(frame, codec=CODEC_BINARY) == table

    @given(st.integers())
    def test_unbounded_ints_round_trip(self, number):
        # The zigzag varint is arbitrary-precision, like JSON ints.
        assert decode_binary(encode_binary(number)) == number

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float64_exact_in_binary(self, number):
        # Binary carries the full IEEE double, no text round-trip.
        assert decode_binary(encode_binary(number)) == number

    def test_interned_and_inline_ops_round_trip(self):
        for op in [INTERNED_OPS[0], INTERNED_OPS[-1], "never-interned-op"]:
            request = Request(op=op, body=None)
            frame = encode_frame(request, codec=CODEC_BINARY)
            assert decode_frame(frame, codec=CODEC_BINARY).op == op

    def test_binary_is_smaller_on_protocol_traffic(self):
        table = {
            AgentId(value=(0x9E3779B97F4A7C15 * i) & (2**64 - 1)): ("node-3", i)
            for i in range(1, 200)
        }
        request = Request(op="locate", body={"agent": next(iter(table))})
        for value in (table, request):
            binary = encode_frame(value, codec=CODEC_BINARY)
            json_ = encode_frame(value, codec=CODEC_JSON)
            assert len(binary) < len(json_)


# ----------------------------------------------------------------------
# Streaming
# ----------------------------------------------------------------------


class TestBinaryStreaming:
    @given(st.lists(wire_values, min_size=1, max_size=5))
    def test_streamed_binary_frames_decode_in_order(self, items):
        stream = b"".join(encode_frame(item, codec=CODEC_BINARY) for item in items)
        decoder = FrameDecoder(codec=CODEC_BINARY)
        decoded = []
        for index in range(0, len(stream), 7):
            decoded.extend(decoder.feed(stream[index : index + 7]))
        assert decoded == items
        assert decoder.pending_bytes == 0

    def test_decoder_is_not_iterable(self):
        # FrameDecoder once had an __iter__ that always yielded nothing
        # (feed() drains every complete frame eagerly, so nothing can be
        # buffered for iteration); it is gone rather than misleading.
        assert not hasattr(FrameDecoder, "__iter__")
        with pytest.raises(TypeError):
            iter(FrameDecoder())

    def test_memoryview_input_decodes(self):
        frame = encode_frame({"a": [1, 2]}, codec=CODEC_BINARY)
        assert decode_frame(memoryview(frame), codec=CODEC_BINARY) == {"a": [1, 2]}
        assert decode_frame(memoryview(bytearray(frame)), codec=CODEC_BINARY) == {
            "a": [1, 2]
        }


# ----------------------------------------------------------------------
# Adversarial binary frames
# ----------------------------------------------------------------------


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


class TestBinaryRejection:
    def test_unknown_tag_rejected(self):
        with pytest.raises(WireError, match="unknown binary tag"):
            decode_frame(_frame(b"\xee"), codec=CODEC_BINARY)

    def test_truncated_varint_rejected(self):
        # INT tag followed by a continuation byte and nothing after it.
        with pytest.raises(WireError, match="truncated"):
            decode_frame(_frame(b"\x03\x80"), codec=CODEC_BINARY)

    def test_truncated_string_rejected(self):
        # STR tag claiming 100 bytes with 2 present.
        with pytest.raises(WireError, match="truncated"):
            decode_frame(_frame(b"\x05\x64ab"), codec=CODEC_BINARY)

    def test_truncated_float_rejected(self):
        with pytest.raises(WireError, match="truncated"):
            decode_frame(_frame(b"\x04\x00\x00"), codec=CODEC_BINARY)

    def test_non_utf8_string_rejected(self):
        with pytest.raises(WireError, match="UTF-8"):
            decode_frame(_frame(b"\x05\x02\xff\xfe"), codec=CODEC_BINARY)

    def test_trailing_garbage_rejected(self):
        body = encode_binary(42) + b"\x00"
        with pytest.raises(WireError, match="trailing garbage"):
            decode_frame(_frame(body), codec=CODEC_BINARY)

    def test_unknown_interned_op_rejected(self):
        # REQUEST tag, interned marker, index far beyond the table.
        body = b"\x0b\x01\xff\x7f"
        with pytest.raises(WireError, match="interned op"):
            decode_frame(_frame(body), codec=CODEC_BINARY)

    def test_empty_body_rejected(self):
        with pytest.raises(WireError, match="truncated"):
            decode_frame(_frame(b""), codec=CODEC_BINARY)

    def test_unencodable_value_rejected(self):
        with pytest.raises(WireError, match="not wire-encodable"):
            encode_frame(object(), codec=CODEC_BINARY)

    def test_frame_over_limit_rejected_on_encode(self):
        with pytest.raises(WireError):
            encode_frame("x" * 100, max_frame=50, codec=CODEC_BINARY)

    def test_malformed_binary_poisons_decoder(self):
        decoder = FrameDecoder(codec=CODEC_BINARY)
        with pytest.raises(WireError):
            decoder.feed(_frame(b"\xee"))
        with pytest.raises(WireError, match="poisoned"):
            decoder.feed(encode_frame(1, codec=CODEC_BINARY))

    def test_nesting_past_the_recursion_limit_rejected_both_ways(self):
        # 10 KB on the wire: 5000 one-element lists, innermost holds None.
        decoder = FrameDecoder()
        with pytest.raises(WireError, match="nests deeper"):
            decoder.feed(_frame(b"\x08\x01" * 5000 + b"\x00"))
        with pytest.raises(WireError, match="poisoned"):
            decoder.feed(encode_frame(1))
        deep = None
        for _ in range(5000):
            deep = [deep]
        with pytest.raises(WireError, match="nests deeper"):
            encode_frame(deep)

    @given(wire_values)
    @settings(max_examples=200)
    def test_json_form_bytes_are_garbage_to_a_binary_decoder(self, value):
        # What a peer still speaking tagged JSON would put on a socket:
        # nothing but WireError may come out, and the stream is dead.
        decoder = FrameDecoder()
        with pytest.raises(WireError):
            decoder.feed(encode_frame(value, codec=CODEC_JSON))
        with pytest.raises(WireError, match="poisoned"):
            decoder.feed(encode_frame(value))
