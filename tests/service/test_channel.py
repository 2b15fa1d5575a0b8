"""The pipelined RpcChannel: correlation, one connection, first frame, backoff.

Covers the transport behaviours the cluster suites only exercise
implicitly: out-of-order reply correlation by ``message_id``, timeout
isolation (one abandoned call must not kill the connection), one
connection per peer however many calls are in flight, reads into one
preallocated buffer, a closed channel that dials nothing, a new
connection whose first frame is already the request, deterministic
retry backoff from an injected RNG, a ``ServiceClient`` whose LHAgent
answers a pull of the copy with an error envelope, and how many frames
a warm client sends.
"""

import asyncio
import random
import struct
import time
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.core.hash_function import HashFunction
from repro.core.hash_tree import HashTree
from repro.platform.messages import Response
from repro.platform.naming import AgentId, AgentNamer
from repro.service import wire
from repro.service.client import (
    RemoteOpError,
    RpcChannel,
    ServiceClient,
    ServiceRpcError,
    ServiceTimeout,
)
from repro.service.coordinator import HAgentServer
from repro.service.server import HostEndpoint, NodeServer

from tests.conftest import copy_reply, patch_backoff, snapshot_reply
from tests.service.frames import read_frame, write_frame


def run(coro):
    return asyncio.run(coro)


class _ToyServer:
    """A scriptable framed peer; ``mode`` picks the reply behaviour."""

    def __init__(self, mode: str, answer=None) -> None:
        self.mode = mode
        #: ``selective`` mode: ``answer(frame) -> (value, error)``;
        #: the default echoes the request body.
        self.answer = answer or (lambda frame: (frame["req"].body, None))
        self.server = None
        self.addr = None
        self.frames = []
        #: Connections accepted, and those still open.
        self.accepted = 0
        self.open = 0

    async def start(self):
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        sockname = self.server.sockets[0].getsockname()
        self.addr = (sockname[0], sockname[1])
        return self.addr

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()

    async def _serve(self, reader, writer):
        self.accepted += 1
        self.open += 1
        try:
            if self.mode == "reversed":
                await self._serve_reversed(reader, writer)
            elif self.mode == "garbled" and self.accepted == 1:
                await self._serve_garbled(reader, writer)
            elif self.mode in ("selective", "garbled"):
                await self._serve_selective(reader, writer)
        except (ConnectionError, OSError, wire.WireError, asyncio.IncompleteReadError):
            pass
        finally:
            self.open -= 1
            writer.close()

    async def _serve_reversed(self, reader, writer):
        # Collect two requests, answer them in reverse order, echoing
        # each request's body back as the value.
        while True:
            pair = []
            for _ in range(2):
                frame = await read_frame(reader)
                if frame is None:
                    return
                pair.append(frame["req"])
            for request in reversed(pair):
                await write_frame(
                    writer,
                    Response(message_id=request.message_id, value=request.body),
                )

    async def _serve_garbled(self, reader, writer):
        # Collect two requests, then answer with a frame no decoder
        # takes (an unknown tag) and keep the connection open.
        for _ in range(2):
            self.frames.append(await read_frame(reader))
        writer.write(struct.pack(">I", 1) + b"\xff")
        await writer.drain()
        await reader.read()

    async def _serve_selective(self, reader, writer):
        # Answers every op except "slow", which is swallowed forever.
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return
            self.frames.append(frame)
            request = frame["req"]
            if request.op == "slow":
                continue
            value, error = self.answer(frame)
            await write_frame(
                writer, Response(message_id=request.message_id, value=value, error=error)
            )


class TestPipelining:
    def test_out_of_order_replies_correlate_by_message_id(self):
        async def scenario():
            peer = _ToyServer("reversed")
            await peer.start()
            channel = RpcChannel()
            try:
                first, second = await asyncio.gather(
                    channel.call(peer.addr, "t", "echo", {"n": 1}),
                    channel.call(peer.addr, "t", "echo", {"n": 2}),
                )
                assert first == {"n": 1}
                assert second == {"n": 2}
            finally:
                await channel.close()
                await peer.stop()

        run(scenario())

    def test_timeout_abandons_one_call_not_the_connection(self):
        async def scenario():
            peer = _ToyServer("selective")
            await peer.start()
            channel = RpcChannel(rpc_timeout=5.0)
            try:
                slow = asyncio.ensure_future(
                    channel.call(peer.addr, "t", "slow", {"n": 0}, timeout=0.2)
                )
                fast = await channel.call(peer.addr, "t", "echo", {"n": 1})
                assert fast == {"n": 1}
                with pytest.raises(ServiceTimeout):
                    await slow
                # The connection survived the abandoned call.
                assert await channel.call(peer.addr, "t", "echo", {"n": 2}) == {
                    "n": 2
                }
                conn = channel._conns[peer.addr]
                assert not conn.closed and conn.pending == {}
                assert peer.accepted == 1
            finally:
                await channel.close()
                await peer.stop()

        run(scenario())

    def test_concurrent_calls_ride_one_connection(self):
        async def scenario():
            hagent = HAgentServer()
            await hagent.start()
            channel = RpcChannel()
            try:
                await channel.call(hagent.addr, "hagent", "ping")
                replies = await asyncio.gather(
                    *(channel.call(hagent.addr, "hagent", "ping") for _ in range(100))
                )
                assert all(reply["status"] == "ok" for reply in replies)
                # However many are in flight, calls pipeline on the one
                # regular connection; nothing dialed the hedge connection.
                assert len(hagent._connections) == 1
                assert list(channel._conns) == [hagent.addr]
                assert not channel._hedge_conns
            finally:
                await channel.close()
                await hagent.stop()

        run(scenario())

    @pytest.mark.parametrize("passes", [0, 1, 2, 3])
    def test_a_closed_channel_keeps_no_connection(self, passes):
        """``close()`` with the call's dial ``passes`` loop passes along:
        not begun, or in flight. The channel either dials nothing or
        closes what its dial brings back, and the call fails."""

        async def scenario():
            peer = _ToyServer("selective")
            await peer.start()
            channel = RpcChannel()
            try:
                call = channel.call(peer.addr, "t", "echo", {"n": 1})
                for _ in range(passes):
                    await asyncio.sleep(0)
                await channel.close()
                with pytest.raises(ServiceRpcError, match="channel closed"):
                    await call
                # A hedge dial is refused the same way.
                with pytest.raises(ServiceRpcError, match="channel closed"):
                    await channel._open(channel._hedge_conns, peer.addr, "echo")
                for _ in range(10):
                    await asyncio.sleep(0.01)
                    if not peer.open:
                        break
                assert peer.open == 0 and peer.frames == []
                assert not channel._conns and not channel._hedge_conns
                if not passes:  # closed before the call's dial began
                    assert peer.accepted == 0
            finally:
                await channel.close()
                await peer.stop()

        run(scenario())

    def test_a_socket_read_allocates_no_receive_buffer(self):
        """Reads land in the channel's and the server's one preallocated
        buffer: a plain ``asyncio.Protocol`` is handed a fresh 256 KiB
        ``bytes`` per read, whose cost depends on where the allocator
        happens to serve it from."""

        async def scenario():
            hagent = HAgentServer()
            await hagent.start()
            channel = RpcChannel()
            try:
                await channel.call(hagent.addr, "hagent", "ping")
                tracemalloc.start()
                try:
                    before, _ = tracemalloc.get_traced_memory()
                    for _ in range(20):
                        await channel.call(hagent.addr, "hagent", "ping")
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak - before < 64 * 1024
            finally:
                await channel.close()
                await hagent.stop()

        run(scenario())

    def test_frames_larger_than_a_read_cross_the_shared_buffer(self):
        """Frames several reads long, to two peers at once, come out
        whole: each read is decoded before the next overwrites it."""

        async def scenario():
            hagent = HAgentServer()
            await hagent.start()
            peers = [_ToyServer("selective"), _ToyServer("selective")]
            for peer in peers:
                await peer.start()
            channel = RpcChannel()
            size = 3 * wire.RECV_BUFFER_SIZE + 17
            try:
                bodies = [{"n": n, "pad": chr(97 + n) * size} for n in range(4)]
                replies = await asyncio.gather(
                    *(
                        channel.call(peers[n % 2].addr, "t", "echo", body)
                        for n, body in enumerate(bodies)
                    ),
                    channel.call(hagent.addr, "hagent", "ping", bodies[0]),
                )
                assert replies[:4] == bodies
                assert replies[4]["status"] == "ok"
                assert len(channel.recv_buffer) == wire.RECV_BUFFER_SIZE
            finally:
                await channel.close()
                await hagent.stop()
                for peer in peers:
                    await peer.stop()

        run(scenario())

    def test_a_malformed_reply_fails_that_connections_calls_at_once(self):
        """A peer answering with a frame the decoder refuses: every call
        pending on that connection fails with a transport error when the
        frame arrives, not at its timeout; the channel's connection to
        another peer stays up; the next call dials a fresh connection."""

        async def scenario():
            garbled, other = _ToyServer("garbled"), _ToyServer("selective")
            await garbled.start()
            await other.start()
            channel = RpcChannel(rpc_timeout=5.0)
            try:
                assert await channel.call(other.addr, "t", "echo", {"n": 0}) == {"n": 0}
                kept = channel._conns[other.addr]
                started = time.monotonic()
                calls = [channel.call(garbled.addr, "t", "echo", {"n": n}) for n in (1, 2)]
                for outcome in await asyncio.gather(*calls, return_exceptions=True):
                    assert isinstance(outcome, ServiceRpcError)
                    assert not isinstance(outcome, ServiceTimeout)
                assert time.monotonic() - started < 2.0
                dropped = channel._conns[garbled.addr]
                assert dropped.closed and dropped.pending == {}
                assert channel._conns[other.addr] is kept and not kept.closed
                assert await channel.call(other.addr, "t", "echo", {"n": 3}) == {"n": 3}
                assert await channel.call(garbled.addr, "t", "echo", {"n": 4}) == {"n": 4}
                assert channel._conns[garbled.addr] is not dropped
                assert (garbled.accepted, other.accepted) == (2, 1)
            finally:
                await channel.close()
                await garbled.stop()
                await other.stop()

        run(scenario())

    def test_first_frame_on_a_new_connection_is_the_request(self):
        async def scenario():
            peer = _ToyServer("selective")
            await peer.start()
            channel = RpcChannel()
            try:
                reply = await channel.call(peer.addr, "t", "echo", {"n": 1})
                assert reply == {"n": 1}
                # Answered after one frame in, one frame out: nothing
                # preceded the envelope, so a new connection costs no
                # round trip of its own.
                (frame,) = peer.frames
                assert frame["to"] == "t"
                assert (frame["req"].op, frame["req"].body) == ("echo", {"n": 1})
            finally:
                await channel.close()
                await peer.stop()

        run(scenario())


class TestBatchedOps:
    def test_register_and_locate_batch_round_trip(self):
        async def scenario():
            hagent = HAgentServer()
            await hagent.start()
            node = NodeServer("node-0", hagent.addr)
            await node.start()
            client = ServiceClient("driver", node.addr)
            try:
                await client.channel.call(hagent.addr, "hagent", "bootstrap")
                namer = AgentNamer(seed=11)
                agents = [namer.next_id() for _ in range(20)]
                await client.register_batch(
                    [(agent, "node-0", 0) for agent in agents]
                )
                located = await client.locate_batch(agents)
                assert located == {agent: "node-0" for agent in agents}
                assert client.counters.batch_rpcs >= 2
                assert client.counters.batched_ops == 40
                assert client.counters.registers == 20
                assert client.counters.locates == 20
            finally:
                await client.close()
                await node.stop()
                await hagent.stop()

        run(scenario())

    def test_batch_chunks_respect_batch_size(self, monkeypatch):
        monkeypatch.setattr("repro.service.client.BATCH_SIZE", 4)

        async def scenario():
            hagent = HAgentServer()
            await hagent.start()
            node = NodeServer("node-0", hagent.addr)
            await node.start()
            client = ServiceClient("driver", node.addr)
            try:
                await client.channel.call(hagent.addr, "hagent", "bootstrap")
                namer = AgentNamer(seed=12)
                agents = [namer.next_id() for _ in range(10)]
                await client.register_batch(
                    [(agent, "node-0", 0) for agent in agents]
                )
                # 10 items at BATCH_SIZE 4 -> 3 register-batch RPCs.
                assert client.counters.batch_rpcs == 3
                assert client.counters.batched_ops == 10
            finally:
                await client.close()
                await node.stop()
                await hagent.stop()

        run(scenario())

    def test_an_agent_named_twice_applies_in_call_order(self):
        """A batch carries each agent once, so a repeat rides a later
        chunk: the later row wins its sequence tie, an older sequence
        still loses, as in N single registers."""

        async def scenario():
            hagent = HAgentServer()
            await hagent.start()
            node = NodeServer("node-0", hagent.addr)
            await node.start()
            client = ServiceClient("driver", node.addr)
            try:
                await client.channel.call(hagent.addr, "hagent", "bootstrap")
                namer = AgentNamer(seed=14)
                a, b, c = (namer.next_id() for _ in range(3))
                await client.register_batch(
                    [(a, "n1", 1), (b, "n1", 5), (a, "n2", 1), (b, "n2", 4), (c, "n1", 0),
                     (a, "n3", 1)]
                )
                assert await client.locate_batch([a, b, c, a]) == {a: "n3", b: "n1", c: "n1"}
                # ``a`` is named thrice in the register call and twice in
                # the locate call: one RPC per naming.
                assert client.counters.batch_rpcs == 5
                assert client.counters.batched_ops == client.counters.ops == 10
            finally:
                await client.close()
                await node.stop()
                await hagent.stop()

        run(scenario())

    def test_warm_batches_put_id_tables_on_the_wire(self, monkeypatch):
        """The rows of a register-batch request and of a locate-batch
        reply travel as ``0x0D`` id tables of ``[node, seq]`` rows, not
        as a dict per agent; the register reply is an empty list."""
        frames = []
        encode_call, encode_reply = wire.encode_call, wire.encode_reply

        def spy_call(message_id, op, target, body, *args):
            frame = encode_call(message_id, op, target, body, *args)
            frames.append((("call", op), frame))
            return frame

        def spy_reply(message_id, value, error=None, *args):
            frame = encode_reply(message_id, value, error, *args)
            frames.append((("reply", value), frame))
            return frame

        def only(test):
            """The one captured frame ``test`` picks (background loops
            encode frames too)."""
            (frame,) = [frame for fields, frame in frames if test(*fields)]
            return frame

        def call(op):
            return lambda kind, what: (kind, what) == ("call", op)

        def reply(*keys):
            return lambda kind, value: (
                kind == "reply"
                and isinstance(value, dict)
                and set(value) == {"status", *keys}
            )

        async def scenario():
            hagent = HAgentServer()
            await hagent.start()
            node = NodeServer("node-0", hagent.addr)
            await node.start()
            client = ServiceClient("driver", node.addr)
            try:
                await client.channel.call(hagent.addr, "hagent", "bootstrap")
                namer = AgentNamer(seed=15)
                agents = [namer.next_id() for _ in range(64)]
                await client.register(agents[0], "node-0")  # warm: the copy is held
                monkeypatch.setattr(wire, "encode_call", spy_call)
                monkeypatch.setattr(wire, "encode_reply", spy_reply)
                await client.register_batch([(agent, "node-0", 0) for agent in agents])
                assert await client.locate_batch(agents) == dict.fromkeys(agents, "node-0")
            finally:
                monkeypatch.undo()
                await client.close()
                await node.stop()
                await hagent.stop()

        run(scenario())
        register, registered = only(call("register-batch")), only(reply("bounced"))
        locate, located = only(call("locate-batch")), only(reply("records"))
        table = b"\x07records\x0d\x40\x40\x02"  # 64 rows, 64-bit keys, list rows
        assert table in register and table in located
        assert b"\x07bounced\x08\x00" in registered
        for frame in (register, located):
            assert b"\x04node" not in frame and b"\x03seq" not in frame
            assert len(frame) < 64 * 18
        assert len(locate) < 64 * 10  # the request: one 8-byte id per agent

    def test_empty_batches_are_no_ops(self):
        async def scenario():
            client = ServiceClient("driver", ("127.0.0.1", 1))
            try:
                await client.register_batch([])
                assert await client.locate_batch([]) == {}
                assert client.counters.ops == 0
            finally:
                await client.close()

        run(scenario())


def drive_toy_node(answer, operation, rng=None):
    """``operation(client)`` for a client whose node -- LHAgent and
    IAgents alike -- is a toy peer answering each request frame with
    ``answer(frame, peer) -> (value, error)``. Returns ``(result, the
    client's counters, the (to, op) of every frame received)``."""

    async def scenario():
        peer = _ToyServer("selective", lambda frame: answer(frame, peer))
        await peer.start()
        client = ServiceClient("driver", peer.addr, rng=rng)
        try:
            result = await operation(client)
        finally:
            await client.close()
            await peer.stop()
        return result, client.counters, [(f["to"], f["req"].op) for f in peer.frames]

    return run(scenario())


class TestUnservedResolve:
    """An LHAgent that cannot fetch the primary copy (coordinator down or
    mid-election) answers a requester's pull with an error envelope: an
    unresolved mapping to retry inside ``op_deadline``, not an error to
    raise."""

    FETCH_FAILED = "internal-error: ServiceRpcError: get-hash-delta failed"
    AGENT = AgentId(0xA1 << 48)

    def locate(self, script):
        """One ``locate`` against a toy node whose LHAgent and IAgent
        answer from ``script``: op -> answers, consumed in order (the
        last one repeats); a number stands for the snapshot at that
        version. Returns ``(node, counters, ops seen)``."""

        def answer(frame, peer):
            answers = script["pull" if frame["to"] == "lhagent" else frame["req"].op]
            value = answers.pop(0) if len(answers) > 1 else answers[0]
            if isinstance(value, str):
                return None, value
            if isinstance(value, int):
                value = copy_reply("ia", "n", peer.addr, version=value)
            return value, None

        with pytest.MonkeyPatch.context() as monkeypatch:
            patch_backoff(monkeypatch, 0.01, 0.02)
            node, counters, frames = drive_toy_node(
                answer, lambda client: client.locate(self.AGENT), random.Random(3)
            )
        return node, counters, [op for _, op in frames]

    def test_whois_answering_an_error_twice_is_retried(self):
        node, counters, ops = self.locate(
            {
                "pull": [self.FETCH_FAILED, self.FETCH_FAILED, 1],
                "locate": [{"status": "ok", "node": "node-3", "seq": 0}],
            }
        )
        assert node == "node-3"
        assert ops == ["get-hash-delta"] * 3 + ["locate"]
        assert counters.retries == 2 and counters.refreshes == 2

    def test_refresh_answering_an_error_after_a_bounce_is_retried(self):
        node, counters, ops = self.locate(
            {
                "pull": [1, self.FETCH_FAILED, 2],
                "locate": [
                    {"status": "not-responsible"},
                    {"status": "ok", "node": "node-3", "seq": 0},
                ],
            }
        )
        assert node == "node-3"
        assert ops == ["get-hash-delta", "locate", "get-hash-delta", "get-hash-delta", "locate"]
        assert counters.retries == 2 and counters.not_responsible == 1

    def test_an_error_from_the_iagent_itself_still_raises(self):
        with pytest.raises(RemoteOpError, match="internal-error: KeyError"):
            self.locate({"pull": [1], "locate": ["internal-error: KeyError: 'agent'"]})


class TestOneHopOps:
    """A warm requester resolves against its own copy: the only frames a
    steady op sends go to the IAgent."""

    def frames_of(self, operation):
        """The frames ``operation(client, agents)`` puts on the wire."""

        def answer(frame, peer):
            op, body = frame["req"].op, frame["req"].body
            if frame["to"] == "lhagent":
                return copy_reply("ia", "n", peer.addr), None
            if op == "locate":
                return {"status": "ok", "node": "node-3", "seq": 0}, None
            if op in ("discover-similar", "discover-capability"):
                return {"status": "ok", "matches": []}, None
            if op == "locate-batch":
                return {"status": "ok", "records": {a: ["node-3", 0] for a in body["agents"]}}, None
            if op == "register-batch":
                return {"status": "ok", "bounced": []}, None
            return {"results": [{"status": "ok", "matches": []}] * len(body["ops"])}, None

        namer = AgentNamer(seed=13)
        agents = [namer.next_id() for _ in range(50)]
        return drive_toy_node(answer, lambda client: operation(client, agents))[2]

    def test_n_steady_locates_are_n_frames_none_to_the_lhagent(self):
        async def operation(client, agents):
            for agent in agents:
                assert await client.locate(agent) == "node-3"

        frames = self.frames_of(operation)
        # The first op pulls the copy; from then on, one frame per op.
        assert frames[:2] == [("lhagent", "get-hash-delta"), ("ia", "locate")]
        assert frames[2:] == [("ia", "locate")] * 49

    def test_warm_batches_send_no_lhagent_frame(self):
        async def operation(client, agents):
            await client.locate(agents[0])
            await client.register_batch([(agent, "node-3", 0) for agent in agents])
            located = await client.locate_batch(agents)
            assert located == dict.fromkeys(agents, "node-3")

        frames = self.frames_of(operation)
        assert [to for to, _ in frames].count("lhagent") == 1
        assert frames[2:] == [("ia", "register-batch"), ("ia", "locate-batch")]

    def test_warm_discovery_sends_no_lhagent_frame(self):
        # Candidates come from the requester's own copies, like a
        # resolve: a steady round is one frame per candidate IAgent.
        async def operation(client, agents):
            await client.locate(agents[0])
            assert await client.discover_similar(agents[0], 2) == []
            assert await client.discover_capability({"role": "relay"}) == []
            assert await client.discover_similar_batch([(agents[1], 2)]) == [[]]
            assert await client.discover_capability_batch([{"role": "relay"}]) == [[]]

        frames = self.frames_of(operation)
        assert [to for to, _ in frames].count("lhagent") == 1
        assert frames[2:] == [
            ("ia", "discover-similar"),
            ("ia", "discover-capability"),
            ("ia", "discover-similar-batch"),
            ("ia", "discover-capability-batch"),
        ]


class TestBatchCounts:
    """An item a batch does not settle falls back to the single-op saga,
    and counts as one op either way."""

    AGENTS = [AgentId(value << 56) for value in range(1, 6)]

    def drive(self, batch_reply, single_reply, operation):
        """``operation(client)`` against a one-leaf toy node whose batch
        replies come from ``batch_reply(op, body)``."""

        def answer(frame, peer):
            op, body = frame["req"].op, frame["req"].body
            if frame["to"] == "lhagent":
                return copy_reply("ia", "n", peer.addr), None
            if op.endswith("-batch"):
                return batch_reply(op, body), None
            return single_reply, None

        result, counters, frames = drive_toy_node(answer, operation)
        assert counters.ops == len(self.AGENTS)
        assert counters.batched_ops == len(self.AGENTS) - 1
        return result, [op for _, op in frames]

    def test_register_batch_with_one_bounced_row(self):
        _, ops = self.drive(
            lambda op, body: {"status": "ok", "bounced": [self.AGENTS[0]]},
            {"status": "ok"},
            lambda client: client.register_batch([(a, "n", 0) for a in self.AGENTS]),
        )
        assert ops == ["get-hash-delta", "register-batch", "register"]

    def test_locate_batch_with_one_unanswered_agent(self):
        located, ops = self.drive(
            lambda op, body: {
                "status": "ok",
                "records": {agent: ["node-3", 0] for agent in body["agents"][1:]},
            },
            {"status": "ok", "node": "node-3", "seq": 0},
            lambda client: client.locate_batch(self.AGENTS),
        )
        assert located == dict.fromkeys(self.AGENTS, "node-3")
        assert ops == ["get-hash-delta", "locate-batch", "locate"]

    def one_bounced_query(self, op, body):
        return {
            "status": "ok",
            "results": [{"status": "not-responsible"}]
            + [{"status": "ok", "matches": []}] * (len(body["ops"]) - 1),
        }

    def test_discover_similar_batch_with_one_bounced_query(self):
        found, ops = self.drive(
            self.one_bounced_query,
            {"status": "ok", "matches": []},
            lambda client: client.discover_similar_batch([(a, 1) for a in self.AGENTS]),
        )
        assert found == [[]] * len(self.AGENTS)
        assert ops == ["get-hash-delta", "discover-similar-batch", "discover-similar"]

    def test_discover_capability_batch_with_one_bounced_query(self):
        found, ops = self.drive(
            self.one_bounced_query,
            {"status": "ok", "matches": []},
            lambda client: client.discover_capability_batch([{"role": "relay"}] * 5),
        )
        assert found == [[]] * len(self.AGENTS)
        assert ops == ["get-hash-delta", "discover-capability-batch", "discover-capability"]


class TestRepublish:
    """A node host's soft-state round is one ``register-batch`` frame
    per responsible IAgent, a lone resident included."""

    @pytest.mark.parametrize("residents", [1, 6])
    def test_one_register_batch_frame_per_iagent_per_round(self, monkeypatch, residents):
        monkeypatch.setattr("repro.service.server.REREGISTER_INTERVAL", 0.05)
        tree = HashTree("ia-0")
        tree.replay_split("simple", "ia-0", 1, "ia-1")  # ia-1 serves ids starting 1
        function = HashFunction(1, tree, dict.fromkeys(("ia-0", "ia-1"), "n"))
        agents = [AgentId((index % 2) << 63 | index) for index in range(residents)]

        def answer(frame, peer):
            if frame["to"] == "lhagent":
                return snapshot_reply(function, "n", peer.addr), None
            return {"status": "ok", "bounced": []}, None

        async def one_round(client):
            host = HostEndpoint(SimpleNamespace(name="node-3", client=client))
            for seq, agent in enumerate(agents):
                host.op_agent_arrive({"agent": agent, "seq": seq})
            loop = asyncio.ensure_future(host.republish_loop())
            while host.republishes < residents:
                await asyncio.sleep(0.001)
            loop.cancel()  # the next round is 50 ms away

        _, counters, frames = drive_toy_node(answer, one_round)
        expected = [("ia-0", "register-batch"), ("ia-1", "register-batch")][: min(residents, 2)]
        assert frames[0] == ("lhagent", "get-hash-delta")
        assert sorted(frames[1:]) == expected
        assert counters.registers == residents and counters.updates == 0


class TestSeededBackoff:
    def test_seeded_rng_makes_backoff_deterministic(self):
        async def delays_for(seed):
            client = ServiceClient("n", ("127.0.0.1", 1), rng=random.Random(seed))
            recorded = []
            real_sleep = asyncio.sleep

            async def capture(delay):
                recorded.append(delay)
                await real_sleep(0)

            asyncio.sleep = capture
            try:
                for attempt in range(1, 6):
                    await client._sleep(attempt)
            finally:
                asyncio.sleep = real_sleep
                await client.close()
            return recorded

        first = run(delays_for(7))
        second = run(delays_for(7))
        different = run(delays_for(8))
        assert first == second
        assert first != different

    def test_explicit_rng_argument_still_wins(self):
        """The ``rng`` argument replaces the unseeded default: two clients
        given one seed draw one sequence."""
        clients = [
            ServiceClient("n", ("127.0.0.1", 1), rng=random.Random(2)) for _ in range(2)
        ]
        draws = [[client.rng.random() for _ in range(3)] for client in clients]
        expected = random.Random(2)
        assert draws[0] == draws[1] == [expected.random() for _ in range(3)]
        for client in clients:
            run(client.close())
