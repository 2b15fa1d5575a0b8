"""Micro-benchmarks of the wire codecs on large protocol frames.

Not a paper figure -- these track the raw encode/decode cost both
codecs pay per frame on representative protocol payloads (a secondary
copy's record table, a batched locate request, a split's hand-off
bundle, the frames of a 64-row register and locate batch), on the two
small frames of a steady one-hop locate (the RPC envelope as the binary
codec's call and reply frame headers), plus the
streaming ``FrameDecoder`` feed path. The live arms time what the
transport itself does per RPC -- ``encode_call`` / ``encode_reply`` and
the decoder's one-pass ``decode`` into flat tuples, no envelope built --
for a steady locate and update, and for one received segment of 16
pipelined frames. Regressions here translate directly into slower clusters: every
RPC pays these costs twice, and a split pays the hand-off arm four
times per moved record (extract reply and adopt request, each encoded
and decoded).
"""

import pytest

from repro.platform.messages import Request, Response
from repro.platform.naming import AgentId
from repro.service.wire import (
    CALL,
    CODEC_BINARY,
    CODEC_JSON,
    REPLY,
    FrameDecoder,
    decode_frame,
    encode_call,
    encode_frame,
    encode_reply,
)


def _record_table(records: int) -> dict:
    """A secondary-copy payload: AgentId -> (node, seq), like op_fetch."""
    return {
        AgentId((0x9E3779B97F4A7C15 * index) & (2**64 - 1)): (
            f"node-{index % 16}",
            index,
        )
        for index in range(1, records + 1)
    }


#: Ids in the hand-off arm: round 1 of the repo benchmark's
#: ``rehash-storm`` moves this many out of a 20 000-record leaf.
HANDOFF_IDS = 10_000


def _handoff_bundle(ids: int) -> dict:
    """An ``extract`` reply as ``IAgentState._handoff`` builds it: list
    rows (the record table arm above ships tuples), non-zero loads and a
    capability set on every tenth id."""
    agents = [
        AgentId((0x9E3779B97F4A7C15 * index) & (2**64 - 1))
        for index in range(1, ids + 1)
    ]
    return {
        "status": "ok",
        "records": {
            agent: [f"node-{index % 3}", index] for index, agent in enumerate(agents)
        },
        "loads": {agent: 1 + index % 11 for index, agent in enumerate(agents)},
        "capabilities": {
            agent: {"gpu": index % 20 == 0, "tier": "core"}
            for index, agent in enumerate(agents)
            if index % 10 == 0
        },
    }


def _per_record(benchmark, size: int, records: int) -> None:
    """Record the arm's per-record numbers (``size`` bytes of frames)
    beside its median (``run_bench.py`` copies ``extra_info`` into
    BENCH_core.json)."""
    benchmark.extra_info["bytes_per_record"] = size / records
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_record"] = (
            benchmark.stats.stats.median / records * 1e6
        )


def _locate_batch_request(agents: int) -> dict:
    request = Request(
        op="locate-batch",
        body={"agents": [AgentId(index) for index in range(agents)]},
    )
    return {"to": "iagent:0", "req": request}


#: Rows per batch in these arms: 64, the client's chunk when the arms were
#: added (``repro.service.client.BATCH_ROWS`` is 512 since), kept so the
#: per-row costs stay comparable across commits.
BATCH_ROWS = 64


def _batch_frames() -> dict:
    """The frames of one 64-row ``register-batch`` (request and reply)
    and one ``locate-batch`` reply, in the shapes a live bulk
    registration and sweep put on the wire: the rows as ``agent ->
    [node, seq]`` id tables, every row stored."""
    agents = [
        AgentId((0x9E3779B97F4A7C15 * index) & (2**64 - 1))
        for index in range(1, BATCH_ROWS + 1)
    ]
    records = {agent: [f"node-{index % 3}", index] for index, agent in enumerate(agents)}
    iagent = AgentId(0xC << 60)
    return {
        "register": [
            {"to": iagent, "req": Request(op="register-batch", body={"records": records})},
            Response(7, {"status": "ok", "bounced": []}),
        ],
        "locate": [Response(8, {"status": "ok", "records": records})],
    }


def _steady_locate() -> dict:
    """The two frames of a steady locate, in the shapes a live
    ``locate-pipelined`` run puts on its sockets: the request addressed
    to a 64-bit IAgent id with every simulator field of the envelope at
    its default, a six-digit message id, and the ``ok`` reply."""
    agent = AgentId(0x9E3779B97F4A7C15)
    request = Request(op="locate", body={"agent": agent}, message_id=123_456)
    return {
        "request": {"to": AgentId(0xC << 60), "req": request},
        "reply": Response(123_456, {"status": "ok", "node": "node-3", "seq": 41}),
    }


@pytest.fixture(params=[CODEC_JSON, CODEC_BINARY], ids=["json", "binary"])
def codec(request):
    return request.param


def test_encode_record_table(benchmark, codec):
    table = _record_table(2000)
    frame = benchmark(lambda: encode_frame(table, codec=codec))
    assert len(frame) > 4


def test_decode_record_table(benchmark, codec):
    table = _record_table(2000)
    frame = encode_frame(table, codec=codec)
    assert benchmark(lambda: decode_frame(frame, codec=codec)) == table


def test_encode_handoff_bundle(benchmark, codec):
    bundle = _handoff_bundle(HANDOFF_IDS)
    frame = benchmark(lambda: encode_frame(bundle, codec=codec))
    _per_record(benchmark, len(frame), HANDOFF_IDS)


def test_decode_handoff_bundle(benchmark, codec):
    bundle = _handoff_bundle(HANDOFF_IDS)
    frame = encode_frame(bundle, codec=codec)
    assert benchmark(lambda: decode_frame(frame, codec=codec)) == bundle
    _per_record(benchmark, len(frame), HANDOFF_IDS)


def test_encode_locate_batch(benchmark, codec):
    envelope = _locate_batch_request(256)
    frame = benchmark(lambda: encode_frame(envelope, codec=codec))
    assert len(frame) > 4


@pytest.mark.parametrize("op", ["register", "locate"])
def test_batch_round_trip(benchmark, op):
    """Encode and decode every frame of one batched RPC: the register
    arm's request and reply, the locate arm's reply (its request is
    ``test_encode_locate_batch``'s id list). ``us_per_record`` is the
    codec cost per batched row."""
    frames = _batch_frames()[op]

    def round_trip():
        return [
            decode_frame(encode_frame(value, codec=CODEC_BINARY), codec=CODEC_BINARY)
            for value in frames
        ]

    assert benchmark(round_trip) == frames
    size = sum(len(encode_frame(value, codec=CODEC_BINARY)) for value in frames)
    _per_record(benchmark, size, BATCH_ROWS)


@pytest.mark.parametrize("kind", ["request", "reply"])
def test_encode_steady_locate(benchmark, codec, kind):
    value = _steady_locate()[kind]
    frame = benchmark(lambda: encode_frame(value, codec=codec))
    benchmark.extra_info["bytes"] = len(frame)


@pytest.mark.parametrize("kind", ["request", "reply"])
def test_decode_steady_locate(benchmark, codec, kind):
    value = _steady_locate()[kind]
    frame = encode_frame(value, codec=codec)
    assert benchmark(lambda: decode_frame(frame, codec=codec)) == value


def test_decoder_feed_large_frames(benchmark, codec):
    """The server's read path: reassemble + decode from one buffer."""
    frames = b"".join(
        encode_frame(_record_table(200), codec=codec) for _ in range(10)
    )

    def feed():
        decoder = FrameDecoder(codec=codec)
        decoded = decoder.feed(frames)
        assert len(decoded) == 10 and decoder.pending_bytes == 0
        return decoded

    benchmark(feed)


def _per_op(benchmark, ops: int) -> None:
    """Record the arm's µs per op beside its median."""
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_op"] = benchmark.stats.stats.median / ops * 1e6


#: The header fields and reply value of a steady live RPC: the call a
#: ``locate-pipelined`` / ``move-durable`` client sends to a 64-bit
#: IAgent id, and the IAgent's ``ok``.
LIVE_RPCS = {
    "locate": (
        "locate",
        {"agent": AgentId(0x9E3779B97F4A7C15)},
        {"status": "ok", "node": "node-3", "seq": 41},
    ),
    "update": (
        "update",
        {"agent": AgentId(0x9E3779B97F4A7C15), "node": "node-2", "seq": 41},
        {"status": "ok"},
    ),
}


@pytest.mark.parametrize("rpc", sorted(LIVE_RPCS))
def test_live_rpc_round_trip(benchmark, rpc):
    """One RPC's codec work on both ends, as the transport does it: the
    client encodes the call, the server decodes it and encodes the
    reply, the client decodes that -- header fields and tuples only.
    ``us_per_op`` is the whole round trip."""
    op, body, reply = LIVE_RPCS[rpc]
    target = AgentId(0xC << 60)
    server, client = FrameDecoder(), FrameDecoder()

    def round_trip():
        calls, replies = [], []
        server.decode(encode_call(123_456, op, target, body), calls)
        (_, _, _, _, message_id) = calls[0]
        client.decode(encode_reply(message_id, reply), replies)
        return calls[0], replies[0]

    assert benchmark(round_trip) == (
        (CALL, target, op, body, 123_456),
        (REPLY, 123_456, reply, None),
    )
    _per_op(benchmark, 1)


#: Frames in one received segment of the segment arm: a pipelining
#: client's calls coalesced into one socket read.
SEGMENT_FRAMES = 16


def test_decode_segment_in_one_pass(benchmark):
    """A server's read of 16 pipelined locate calls: one ``bytes`` copy
    and every frame decoded from it by offset. ``us_per_op`` is per
    frame."""
    op, body, _ = LIVE_RPCS["locate"]
    target = AgentId(0xC << 60)
    segment = memoryview(
        b"".join(encode_call(n, op, target, body) for n in range(1, SEGMENT_FRAMES + 1))
    )
    decoder = FrameDecoder()

    def read():
        frames = []
        decoder.decode(segment, frames)
        return frames

    frames = benchmark(read)
    assert [frame[4] for frame in frames] == list(range(1, SEGMENT_FRAMES + 1))
    assert decoder.pending_bytes == 0
    _per_op(benchmark, SEGMENT_FRAMES)
