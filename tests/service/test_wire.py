"""Property and adversarial tests for the wire codec.

The round-trip law is the whole contract: for every value the protocol
can put on the wire -- including :class:`AgentId` as *dictionary keys*
(location-record tables), nested tuples (hash-tree specs) and the
``Request``/``Response`` envelopes -- ``decode(encode(v)) == v``.
Hypothesis generates the values; explicit tests cover the adversarial
side (truncated, oversized and garbage frames must raise
:class:`WireError`, never crash or mis-decode).
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.messages import Request, Response
from repro.platform.naming import AgentId
from repro.service.wire import (
    CODEC_BINARY,
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    WireError,
    decode_frame,
    encode_frame,
    encode_hello_ack,
    from_jsonable,
    hello_ack_codec,
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


values = st.recursive(scalars, containers, max_leaves=12)

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

wire_values = st.one_of(values, requests, responses)


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------


class TestRoundTrip:
    @given(wire_values)
    @settings(max_examples=300)
    def test_frame_round_trip_identity(self, value):
        assert decode_frame(encode_frame(value)) == value

    @given(wire_values)
    def test_jsonable_round_trip_identity(self, value):
        assert from_jsonable(to_jsonable(value)) == value

    @given(requests)
    def test_request_preserves_message_id(self, request):
        decoded = decode_frame(encode_frame(request))
        assert decoded.message_id == request.message_id

    @given(st.dictionaries(agent_ids, st.tuples(st.text(max_size=8), st.integers()), max_size=5))
    def test_record_table_round_trip(self, table):
        # The exact shape IAgents ship during extract/adopt: AgentId
        # keys, (node, seq) tuple values.
        assert decode_frame(encode_frame(table)) == table

    @given(st.lists(wire_values, min_size=1, max_size=5))
    def test_streamed_frames_decode_in_order(self, items):
        stream = b"".join(encode_frame(item) for item in items)
        decoder = FrameDecoder()
        decoded = []
        # Feed one byte at a time: reassembly must be split-agnostic.
        for index in range(0, len(stream), 7):
            decoded.extend(decoder.feed(stream[index : index + 7]))
        assert decoded == items
        assert decoder.pending_bytes == 0


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
            decode_frame(frame)

    def test_unknown_tag_rejected(self):
        import json

        body = json.dumps({"$future": 1}).encode()
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(WireError, match="unknown wire tag"):
            decode_frame(frame)

    def test_malformed_aid_payload_rejected(self):
        import json

        body = json.dumps({"$aid": ["not-a-number"]}).encode()
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(WireError):
            decode_frame(frame)

    def test_unencodable_value_rejected(self):
        with pytest.raises(WireError):
            encode_frame(object())

    def test_frame_over_limit_rejected_on_encode(self):
        with pytest.raises(WireError):
            encode_frame("x" * 100, max_frame=50)


class TestDecoderPoisoning:
    def test_garbage_length_poisons_decoder(self):
        decoder = FrameDecoder(max_frame=1024)
        with pytest.raises(WireError):
            decoder.feed(struct.pack(">I", 2**31) + b"attack")
        # Once desynced, the stream is unrecoverable by design.
        with pytest.raises(WireError, match="poisoned"):
            decoder.feed(encode_frame({"a": 1}))

    def test_malformed_body_poisons_decoder(self):
        decoder = FrameDecoder()
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


class TestLazyFrames:
    """``frames`` decodes one frame per step, off a read offset."""

    def test_codec_switch_lands_on_the_frame_boundary_within_one_segment(self):
        # The hello-ack and the first binary frame share a TCP segment:
        # the ack's handler flips the codec before the next body is
        # decoded, so the binary frame is not mis-read as JSON.
        reply = Response(message_id=7, value={"node": "node-1"})
        segment = encode_hello_ack(CODEC_BINARY) + encode_frame(
            reply, codec=CODEC_BINARY
        )
        decoder = FrameDecoder()
        seen = []
        for frame in decoder.frames(segment):
            seen.append(frame)
            if hello_ack_codec(frame) == CODEC_BINARY:
                decoder.codec = CODEC_BINARY
        assert seen == [{"hello-ack": {"codec": CODEC_BINARY}}, reply]
        assert decoder.pending_bytes == 0
        # The eager form keeps the codec it started with for the whole
        # chunk -- which is why the transports iterate ``frames``.
        with pytest.raises(WireError):
            FrameDecoder().feed(segment)

    def test_unpulled_frames_stay_buffered(self):
        stream = b"".join(encode_frame(n) for n in range(5))
        decoder = FrameDecoder()
        pulled = decoder.frames(stream + b"\x00\x00")
        assert [next(pulled), next(pulled)] == [0, 1]
        pulled.close()
        # Nothing is lost or replayed: the rest comes out of the next
        # feed, and the trailing partial header is still pending.
        assert decoder.feed(b"") == [2, 3, 4]
        assert decoder.pending_bytes == 2

    def test_many_frames_in_one_segment_compact_once(self):
        # ~1000 pipelined frames behind a buffered partial frame: the
        # read offset walks them; the buffer is cut once at the end.
        frames = [{"n": n} for n in range(1000)]
        stream = b"".join(encode_frame(frame) for frame in frames)
        decoder = FrameDecoder()
        assert decoder.feed(stream[:3]) == []
        assert decoder.feed(stream[3:] + stream[:9]) == frames
        assert decoder.pending_bytes == 9
