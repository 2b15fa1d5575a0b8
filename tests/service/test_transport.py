"""The task-free transport against real servers (no toy peers).

Both ends are ``asyncio.Protocol`` pairs: the server answers a
synchronous handler straight from ``data_received`` and spawns a task
only for one that awaits; the client settles reply futures from
``data_received`` under one expiry timer each. These tests pin the
behaviours that design has to keep: no head-of-line blocking behind an
awaiting handler, timeout isolation with late replies dropped by id,
split-agnostic framing, pause-reading back-pressure, a budgeted hedge
timer that never leaks an unretrieved exception, one request record per
RPC (one future, one timer, no task, hedged or not -- and nothing of it
left behind however the call ends), and a teardown that leaves no task
and no transport behind.
"""

import asyncio
import gc
import struct
import time
import warnings
from contextlib import asynccontextmanager
from dataclasses import replace

import pytest

from repro.platform.messages import Request, Response
from repro.platform.naming import AgentNamer
from repro.service import wire
from repro.service.client import (
    ClientConfig,
    RemoteOpError,
    RpcChannel,
    ServiceClient,
    ServiceRpcError,
    ServiceTimeout,
)
from repro.service.cluster import ClusterConfig, booted_cluster
from repro.service.coordinator import HAgentServer
from repro.service.server import NodeServer, ServiceConfig
from repro.service.transport import _Connection

from tests.service.frames import read_frame


def run(coro):
    return asyncio.run(coro)


@asynccontextmanager
async def one_node(config=None):
    """A bootstrapped HAgent + NodeServer pair and a few agent ids."""
    hagent = HAgentServer(config)
    await hagent.start()
    node = NodeServer("node-0", hagent.addr, config)
    await node.start()
    try:
        await node.channel.call(hagent.addr, "hagent", "bootstrap", {})
        namer = AgentNamer(seed=21)
        yield node, [namer.next_id() for _ in range(40)]
    finally:
        await node.stop()
        await hagent.stop()


def server_side(node, writer):
    """``node``'s connection object for a client stream it has answered."""
    local = writer.get_extra_info("sockname")[:2]
    (conn,) = [
        c for c in node._connections if c.transport.get_extra_info("peername")[:2] == local
    ]
    return conn


def gate_fetches(node):
    """Make every LHAgent copy fetch wait for the returned event."""
    gate = asyncio.Event()
    real_fetch = node.lhagent._fetch_primary_copy

    async def gated(shard=0):
        await gate.wait()
        await real_fetch(shard)

    node.lhagent._fetch_primary_copy = gated
    return gate


def pull_that_fetches(node):
    """A requester's pull naming the LHAgent copy's own version: nothing
    newer is held, so the handler has to fetch first -- it awaits."""
    return "get-hash-delta", node.lhagent.held.request(0)


def whois_frame(agent, message_id, codec=wire.CODEC_BINARY):
    request = Request(op="whois", body={"agent": agent}, message_id=message_id)
    return wire.encode_frame({"to": "lhagent", "req": request}, codec=codec)


class TestInlineDispatch:
    def test_awaiting_handler_does_not_delay_a_later_synchronous_one(self):
        async def scenario():
            async with one_node() as (node, agents):
                channel = RpcChannel()
                try:
                    await channel.call(node.addr, "lhagent", "whois", {"agent": agents[0]})
                    conn = channel._conns[node.addr]
                    gate = gate_fetches(node)
                    slow = channel.call(node.addr, "lhagent", *pull_that_fetches(node))
                    fast = await channel.call(
                        node.addr, "lhagent", "whois", {"agent": agents[1]}
                    )
                    # Same connection, sent second, answered first.
                    assert channel._conns[node.addr] is conn
                    assert fast["node"] == "node-0"
                    assert not slow.done()
                    gate.set()
                    assert (await slow)["mode"] == "delta"
                finally:
                    await channel.close()

        run(scenario())

    def test_only_awaiting_handlers_get_a_task(self):
        async def scenario():
            async with one_node() as (node, agents):
                channel = RpcChannel()
                try:
                    await channel.call(node.addr, "lhagent", "whois", {"agent": agents[0]})
                    gate = gate_fetches(node)
                    slow = channel.call(node.addr, "lhagent", *pull_that_fetches(node))
                    idle = len(node._bg_tasks)
                    await asyncio.sleep(0.02)
                    assert len(node._bg_tasks) == idle + 1
                    before = len(asyncio.all_tasks())
                    for agent in agents:
                        await channel.call(node.addr, "lhagent", "whois", {"agent": agent})
                    # 40 synchronous round trips: no task on either side.
                    assert len(asyncio.all_tasks()) == before
                    gate.set()
                    await slow
                    await asyncio.sleep(0)
                    assert len(node._bg_tasks) == idle
                finally:
                    await channel.close()

        run(scenario())

    def test_handler_errors_come_back_as_error_replies(self):
        async def scenario():
            async with one_node() as (node, agents):
                channel = RpcChannel()
                try:
                    with pytest.raises(RemoteOpError) as rejected:
                        await channel.call(node.addr, "nobody", "whois", {})
                    assert rejected.value.code == "unknown-target"
                    # A handler bug (missing body key) is trapped too.
                    with pytest.raises(RemoteOpError) as crashed:
                        await channel.call(node.addr, "lhagent", "whois", {})
                    assert crashed.value.code == "internal-error"
                    # ... and dispatch() stays awaitable for in-process use.
                    mapping = await node.dispatch(
                        "lhagent", Request(op="whois", body={"agent": agents[0]})
                    )
                    assert mapping["node"] == "node-0"
                finally:
                    await channel.close()

        run(scenario())


class TestTimeoutIsolation:
    def test_timed_out_call_keeps_the_connection_and_drops_the_late_reply(self):
        async def scenario():
            async with one_node() as (node, agents):
                channel = RpcChannel()
                try:
                    await channel.call(node.addr, "lhagent", "whois", {"agent": agents[0]})
                    conn = channel._conns[node.addr]
                    gate = gate_fetches(node)
                    with pytest.raises(ServiceTimeout):
                        await channel.call(
                            node.addr, "lhagent", *pull_that_fetches(node), timeout=0.1
                        )
                    assert conn.pending == {} and not conn.closed
                    # The server now answers the abandoned call: the
                    # reply matches no pending id and is dropped.
                    gate.set()
                    for agent in agents[:5]:
                        reply = await channel.call(
                            node.addr, "lhagent", "whois", {"agent": agent}
                        )
                        assert reply["node"] == "node-0"
                    assert channel._conns[node.addr] is conn
                    assert conn.pending == {} and not conn.closed
                finally:
                    await channel.close()

        run(scenario())


class TestFraming:
    def test_split_and_coalesced_segments_round_trip(self):
        async def scenario():
            async with one_node() as (node, agents):
                reader, writer = await asyncio.open_connection(*node.addr)
                try:
                    # Many frames in one segment.
                    writer.write(
                        b"".join(
                            whois_frame(agent, index)
                            for index, agent in enumerate(agents)
                        )
                    )
                    for index in range(len(agents)):
                        reply = await read_frame(reader)
                        assert isinstance(reply, Response)
                        assert reply.message_id == index
                        assert reply.value["node"] == "node-0"
                    # One frame dribbled out a few bytes per segment.
                    frame = whois_frame(agents[0], 99)
                    for start in range(0, len(frame), 3):
                        writer.write(frame[start : start + 3])
                        await writer.drain()
                        await asyncio.sleep(0.001)
                    reply = await read_frame(reader)
                    assert reply.message_id == 99
                finally:
                    writer.close()

        run(scenario())

    def test_garbage_closes_that_connection_only(self):
        async def scenario():
            logged = []  # an exception escaping data_received lands here
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: logged.append(context)
            )
            async with one_node() as (node, agents):
                channel = RpcChannel()
                whois = {"agent": agents[0]}
                # Bytes that are no frame at all, then what a peer from
                # before the one-codec wire would send first: its
                # JSON-framed hello, or a JSON-framed request envelope.
                # Then a well-framed 10 KB body of 5000 nested lists.
                # Last, well-formed frames no client sends a server: a
                # reply, and a bare value.
                nested = b"\x08\x01" * 5000 + b"\x00"
                garbage = [
                    b"\xff\xff\xff\xff not a frame",
                    wire.encode_frame(
                        {"hello": {"codecs": ["binary", "json"]}}, codec=wire.CODEC_JSON
                    ),
                    whois_frame(agents[0], 7, wire.CODEC_JSON),
                    len(nested).to_bytes(4, "big") + nested,
                    wire.encode_reply(7, {"status": "ok", "node": "node-0"}),
                    wire.encode_frame({"hello": 1}),
                ]
                try:
                    reply = await channel.call(node.addr, "lhagent", "whois", whois)
                    for payload in garbage:
                        reader, writer = await asyncio.open_connection(*node.addr)
                        writer.write(payload)
                        # Dropped, no reply (a bounded wait: an answer
                        # without a close would otherwise hang here).
                        assert await asyncio.wait_for(reader.read(), 10) == b""
                        writer.close()
                        # The connection opened before it still answers.
                        conn = channel._conns[node.addr]
                        again = await channel.call(node.addr, "lhagent", "whois", whois)
                        assert again == reply and again["node"] == "node-0"
                        assert channel._conns[node.addr] is conn and not conn.closed
                finally:
                    await channel.close()
            assert logged == []

        run(scenario())


class TestBackPressure:
    def test_peer_that_stops_reading_pauses_its_connection(self):
        async def scenario():
            # Rehashing frozen: the registered records stay on one leaf.
            mechanism = replace(ServiceConfig().mechanism, t_max=1e12)
            async with one_node(ServiceConfig(mechanism=mechanism)) as (node, agents):
                # A tiny stream buffer: the client side stops pulling
                # from the socket almost at once, so replies back up
                # into the server's transport buffer.
                reader, writer = await asyncio.open_connection(*node.addr, limit=1024)
                body = {"agents": agents}
                (iagent,) = node.iagents
                records = dict.fromkeys(agents, ["node-0", 0])
                node.iagents[iagent].op_register_batch({"records": records})
                sent = 0

                def send():
                    nonlocal sent
                    request = Request(op="locate-batch", body=body, message_id=sent)
                    writer.write(wire.encode_frame({"to": iagent, "req": request}))
                    sent += 1

                try:
                    send()
                    first = await read_frame(reader)
                    assert first.message_id == 0
                    conn = server_side(node, writer)
                    while conn.transport.is_reading() and sent < 50_000:
                        for _ in range(50):
                            send()
                        await asyncio.sleep(0.005)
                    assert not conn.transport.is_reading(), f"{sent} requests unpaused"
                    # Requests sent while paused sit unread: the reply
                    # backlog of this peer is bounded by its own reading.
                    for _ in range(50):
                        send()
                    # Reading again drains everything, in request order.
                    for expected in range(1, sent):
                        reply = await asyncio.wait_for(read_frame(reader), 10.0)
                        assert reply.message_id == expected
                        assert len(reply.value["records"]) == len(agents)
                    assert conn.transport.is_reading()
                finally:
                    writer.close()

        run(scenario())


class _Writes:
    """Stands in for a server connection's ``out``: notes the frames of
    each ``write`` / ``writelines`` call, then hands them on."""

    def __init__(self, out):
        self._out = out
        self.calls = []

    def write(self, data):
        self.calls.append([bytes(data)])
        self._out.write(data)

    def writelines(self, frames):
        frames = list(frames)
        self.calls.append(frames)
        self._out.writelines(frames)

    def reply_ids(self):
        return [[wire.decode_frame(frame).message_id for frame in call] for call in self.calls]

    def __getattr__(self, name):  # abort, close
        return getattr(self._out, name)


async def served_connection(node, agent):
    """A raw client stream to ``node`` that has had one ``whois`` answered
    (message id 0; the LHAgent holds its copy from here on), the server's
    side of it, and that side's writes from now on."""
    reader, writer = await asyncio.open_connection(*node.addr)
    writer.write(whois_frame(agent, 0))
    assert (await read_frame(reader)).message_id == 0
    conn = server_side(node, writer)
    conn.out = writes = _Writes(conn.out)
    return reader, writer, conn, writes


async def read_body(reader):
    """The next frame's body, undecoded."""
    (length,) = struct.unpack(">I", await reader.readexactly(4))
    return await reader.readexactly(length)


class TestServedSegments:
    """What one received segment's frames answer inline leaves in one
    ``writelines``; segments are handed to ``data_received`` directly so
    that where one ends is the test's choice, not the kernel's."""

    def test_inline_replies_of_a_segment_are_one_writelines(self):
        async def scenario():
            async with one_node() as (node, agents):
                reader, writer, conn, writes = await served_connection(node, agents[0])
                try:
                    ids = list(range(1, len(agents) + 1))
                    conn.data_received(b"".join(map(whois_frame, agents, ids)))
                    assert writes.reply_ids() == [ids]
                    # A frame cut by the segment's end is answered with
                    # the segment that completes it.
                    first, second = whois_frame(agents[1], 50), whois_frame(agents[2], 51)
                    conn.data_received(first + second[:9])
                    conn.data_received(second[9:])
                    assert writes.reply_ids() == [ids, [50], [51]]
                    for expected in ids + [50, 51]:
                        reply = await read_frame(reader)
                        assert reply.message_id == expected
                        assert reply.value["node"] == "node-0"
                finally:
                    writer.close()

        run(scenario())

    def test_an_awaiting_handlers_reply_is_written_alone_and_later(self):
        async def scenario():
            async with one_node() as (node, agents):
                reader, writer, conn, writes = await served_connection(node, agents[0])
                try:
                    gate = gate_fetches(node)
                    op, body = pull_that_fetches(node)
                    pull = Request(op=op, body=body, message_id=1)
                    conn.data_received(
                        wire.encode_frame({"to": "lhagent", "req": pull})
                        + whois_frame(agents[1], 2)
                        + whois_frame(agents[2], 3)
                    )
                    assert writes.reply_ids() == [[2, 3]]
                    gate.set()
                    replies = [await read_frame(reader) for _ in range(3)]
                    assert [reply.message_id for reply in replies] == [2, 3, 1]
                    assert replies[2].value["mode"] == "delta"
                    assert writes.reply_ids() == [[2, 3], [1]]
                finally:
                    writer.close()

        run(scenario())

    def test_replies_made_before_garbage_still_leave(self):
        async def scenario():
            async with one_node() as (node, agents):
                reader, writer, conn, writes = await served_connection(node, agents[0])
                conn.data_received(whois_frame(agents[1], 1) + b"\xff\xff\xff\xff junk")
                assert writes.reply_ids() == [[1]]
                assert (await read_frame(reader)).message_id == 1
                assert await reader.read() == b""  # then dropped
                writer.close()

        run(scenario())

    def test_a_handler_bug_cannot_strand_the_segments_replies(self):
        async def scenario():
            async with one_node() as (node, agents):
                reader, writer, conn, writes = await served_connection(node, agents[0])
                try:
                    # Not a handler's exception (those become error
                    # replies): one out of the dispatch path itself.
                    answered = []
                    real_on_frame = node._on_frame

                    def on_frame(conn, frame):
                        if answered:
                            raise RuntimeError("dispatch bug")
                        answered.append(frame)
                        real_on_frame(conn, frame)

                    node._on_frame = on_frame
                    with pytest.raises(RuntimeError):
                        conn.data_received(
                            whois_frame(agents[1], 1) + whois_frame(agents[2], 2)
                        )
                    assert writes.reply_ids() == [[1]]
                    del node._on_frame
                    # The next segment starts a batch of its own.
                    conn.data_received(whois_frame(agents[3], 3))
                    assert writes.reply_ids() == [[1], [3]]
                    assert (await read_frame(reader)).message_id == 1
                    assert (await read_frame(reader)).message_id == 3
                finally:
                    writer.close()

        run(scenario())

    def test_error_replies_keep_their_forms(self):
        async def scenario():
            async with one_node() as (node, agents):
                reader, writer = await asyncio.open_connection(*node.addr)
                try:
                    # An op nobody serves, sent as an inline op string.
                    request = Request(op="no-such-op", body={}, message_id=5)
                    frame = wire.encode_frame({"to": "lhagent", "req": request})
                    assert frame[4:6] == b"\x0e\xff"
                    writer.write(frame)
                    body = await read_body(reader)
                    reply = wire.decode_binary(body)
                    assert body[:2] == b"\x0f\x01" and reply.message_id == 5
                    assert reply.error.startswith("unknown-op") and reply.value is None
                finally:
                    writer.close()

        run(scenario())


class _RecordingChannel(RpcChannel):
    """Notes the carrier of every attempt: ``"call"`` for a call, and for
    a hedged duplicate (which its request record sends, not ``call``)
    ``"hedge"`` when it rides the hedge connection, ``"dial"`` when that
    connection has to be dialed first -- anything else is a bug."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.attempts = []

    def call(self, addr, to, op, body=None, timeout=None, hedge=None):
        self.attempts.append("call")
        return super().call(addr, to, op, body, timeout=timeout, hedge=hedge)

    def _send_duplicate(self, addr, rpc, to, body):
        super()._send_duplicate(addr, rpc, to, body)
        (holder,) = [holder for holder in rpc.out if holder is not rpc.primary]
        if holder is self._hedge_conns.get(addr):
            self.attempts.append("hedge")
        else:
            self.attempts.append("dial" if isinstance(holder, asyncio.Task) else holder)


def connections(channel):
    """Every connection the channel holds, regular and hedge."""
    return [*channel._conns.values(), *channel._hedge_conns.values()]


def capture_loop_errors():
    """Collect what the running loop would log ("... never retrieved")."""
    logged = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: logged.append(context)
    )
    return logged


def armed_timers():
    """The request-record timer handles the loop still holds armed."""
    return [
        handle
        for handle in asyncio.get_running_loop()._scheduled
        if not handle.cancelled()
        and isinstance(getattr(handle._callback, "__self__", None), _Connection)
    ]


@pytest.fixture
def hedge_floor_10ms(monkeypatch):
    """Floor the hedge delay at 10 ms, where a client seeded with 2 ms
    round trips (:meth:`TestHedgeTimer.seed_rtt`) hedges."""
    monkeypatch.setattr("repro.service.client.HEDGE_DELAY_FLOOR", 0.01)


@pytest.mark.usefixtures("hedge_floor_10ms")
class TestHedgeTimer:
    @staticmethod
    def slow_first_arrival(node, delay, fail_duplicates=False, fail_primaries=False):
        """A pull arriving with none in flight awaits ``delay`` and then
        answers -- or fails; one that arrives meanwhile (the hedged
        duplicate) answers -- or fails -- at once."""
        real = node.lhagent.op_get_hash_delta
        in_flight = 0

        async def late(body):
            nonlocal in_flight
            in_flight += 1
            try:
                await asyncio.sleep(delay)
                if fail_primaries:
                    raise RuntimeError("primary refused")
                return await real(body)
            finally:
                in_flight -= 1

        def patched(body):
            if in_flight:
                if fail_duplicates:
                    raise RuntimeError("duplicate refused")
                return real(body)
            return late(body)

        node.lhagent.op_get_hash_delta = patched

    @staticmethod
    def pull(client, agent):
        """A resolve that has to pull: no copy can exceed this version."""
        return client._whois(agent, None, 10**9)

    @staticmethod
    def client_for(node, channel):
        client = ServiceClient("driver", node.addr, channel=channel)
        TestHedgeTimer.seed_rtt(client, node.addr)
        return client

    @staticmethod
    def seed_rtt(client, addr):
        """A fresh estimator that believes in 2 ms round trips, so the
        hedge delay sits at its 10 ms floor."""
        client._rtts.pop(addr, None)
        for _ in range(8):
            client._rtt_for(addr).observe(0.002)

    def test_duplicates_are_budgeted_and_ride_the_dedicated_lane(self):
        async def scenario():
            logged = capture_loop_errors()
            async with one_node() as (node, agents):
                channel = _RecordingChannel()
                client = self.client_for(node, channel)
                try:
                    await client._whois(agents[-1])  # open the regular connection
                    self.slow_first_arrival(node, delay=0.04)
                    channel.attempts.clear()
                    for agent in agents[:30]:
                        mapping = await self.pull(client, agent)
                        assert mapping["node"] == "node-0"
                    duplicates = [kind for kind in channel.attempts if kind != "call"]
                    # Every primary was tail-slow; the timer still sent
                    # at most HEDGE_BUDGET of them a duplicate.
                    assert 0 < len(duplicates) <= 0.2 * 31
                    assert len(duplicates) == client.counters.hedges
                    assert 0 < client.counters.hedge_wins <= client.counters.hedges
                    # The first duplicate dialed the hedge connection, and
                    # every later one rode it: two sockets, ever.
                    assert duplicates == ["dial"] + ["hedge"] * (len(duplicates) - 1)
                    assert channel.attempts.count("call") == 30
                    assert len(connections(channel)) == 2
                finally:
                    await client.close()
            gc.collect()
            await asyncio.sleep(0)
            assert logged == []

        run(scenario())

    def test_losing_and_cancelled_duplicates_never_log(self):
        async def scenario():
            logged = capture_loop_errors()
            async with one_node() as (node, agents):
                channel = _RecordingChannel()
                client = self.client_for(node, channel)
                try:
                    await client._whois(agents[-1])
                    self.slow_first_arrival(node, delay=0.05, fail_duplicates=True)
                    # The duplicate fails first; the primary still wins.
                    mapping = await self.pull(client, agents[0])
                    assert mapping["node"] == "node-0"
                    assert client.counters.hedges == 1
                    assert client.counters.hedge_wins == 0
                    # The caller is cancelled with both attempts out:
                    # their replies arrive later and settle nobody.
                    self.seed_rtt(client, node.addr)
                    task = asyncio.ensure_future(self.pull(client, agents[1]))
                    await asyncio.sleep(0.03)
                    assert client.counters.hedges == 2
                    task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await task
                    await asyncio.sleep(0.1)
                    assert all(conn.pending == {} for conn in connections(channel))
                finally:
                    await client.close()
            gc.collect()
            await asyncio.sleep(0)
            assert logged == []

        run(scenario())

    def stalled_locates(self, yields):
        """Ten hedge-eligible locates whose caller stalls the loop past
        the hedge delay ``yields`` passes after the send; the duplicates
        that cost."""

        async def scenario():
            async with one_node() as (node, agents):
                client = self.client_for(node, RpcChannel())
                try:
                    for agent in agents[:10]:
                        await client.register(agent, "node-0", 0)
                    self.seed_rtt(client, node.addr)
                    for agent in agents[:10]:
                        located = asyncio.ensure_future(client.locate(agent))
                        for _ in range(yields):
                            await asyncio.sleep(0)
                        time.sleep(0.03)  # a split hand-off, a GC pause, a snapshot
                        assert await located == "node-0"
                    return client.counters.hedges
                finally:
                    await client.close()

        return run(scenario())

    def test_no_duplicate_for_a_reply_that_is_already_in(self):
        # Two passes after the send the server has replied: the reply
        # sits in the client's socket while the loop stalls. The pass
        # that follows reads it *before* it runs the due hedge timer,
        # and reading it settles the record -- there is nothing to hedge.
        assert self.stalled_locates(yields=2) == 0

    def test_a_reply_not_yet_in_may_still_be_hedged(self):
        # One pass after the send the request is still in the server's
        # socket: the hedge timer comes due with the primary truly out.
        assert self.stalled_locates(yields=1) > 0


@pytest.mark.usefixtures("hedge_floor_10ms")
class TestRequestRecord:
    """One record per RPC, hedge-eligible or not: what a call costs, how
    its attempts settle it, and that nothing of it outlives the call."""

    client_for = staticmethod(TestHedgeTimer.client_for)
    seed_rtt = staticmethod(TestHedgeTimer.seed_rtt)
    slow_first_arrival = staticmethod(TestHedgeTimer.slow_first_arrival)

    @staticmethod
    def pull(client, node, **kwargs):
        """A hedge-eligible pull straight through ``_call``, so a failure
        reaches the test instead of the saga's retry loop."""
        return client._call(
            node.addr, "lhagent", *pull_that_fetches(node), hedge=True, **kwargs
        )

    @staticmethod
    def assert_nothing_left(channel, logged, closed=False):
        """No attempt left pending, no timer armed, nothing logged -- and,
        unless the test ``closed`` them, every connection still up."""
        for conn in connections(channel):
            assert conn.pending == {} and conn.closed == closed
        assert armed_timers() == []
        assert logged == []

    @staticmethod
    async def still_serves(client, node, agents):
        """Every open connection -- the hedge connection too -- still
        carries a round trip: a loser's late reply did not hurt it."""
        loop = asyncio.get_running_loop()
        live = [conn for conn in connections(client.channel) if not conn.closed]
        for conn, agent in zip(live, agents):
            whois = {"agent": agent}
            reply = await conn.request(loop.time(), "lhagent", "whois", whois, 1.0)
            assert reply["node"] == "node-0"

    def measured_calls(self, hedge, count=200):
        """What ``count`` steady ``_call``s create on the loop, and how
        many loop passes each takes."""

        async def scenario():
            async with one_node() as (node, agents):
                client = self.client_for(node, RpcChannel())
                body = {"agent": agents[0]}
                try:
                    await client._call(node.addr, "lhagent", "whois", body, hedge=hedge)
                    loop = asyncio.get_running_loop()
                    made = dict.fromkeys(
                        ("create_future", "call_at", "call_later", "create_task"), 0
                    )

                    def counting(name, real):
                        def counted(*args, **kwargs):
                            made[name] += 1
                            return real(*args, **kwargs)

                        return counted

                    for name in made:
                        setattr(loop, name, counting(name, getattr(loop, name)))
                    passes = 0

                    def tick():
                        nonlocal passes, ticker
                        passes += 1
                        ticker = loop.call_soon(tick)

                    ticker = loop.call_soon(tick)
                    try:
                        for _ in range(count):
                            await client._call(
                                node.addr, "lhagent", "whois", body, hedge=hedge
                            )
                    finally:
                        ticker.cancel()
                        for name in made:
                            delattr(loop, name)
                    assert client._hedge_eligible == (count + 1 if hedge else 0)
                    assert client.counters.hedges == 0
                    return made, passes / count
                finally:
                    await client.close()

        return run(scenario())

    def test_a_steady_hedged_read_costs_what_an_unhedged_call_costs(self):
        count = 200
        hedged, hedged_passes = self.measured_calls(hedge=True, count=count)
        plain, plain_passes = self.measured_calls(hedge=False, count=count)
        # One future, one timer handle, no task -- and call_later (the
        # second timer a wrapper would arm) is never reached.
        assert hedged == plain == {
            "create_future": count,
            "call_at": count,
            "call_later": 0,
            "create_task": 0,
        }
        # send -> server -> client read (settles the caller's own
        # future) -> the caller resumes and sends the next: three
        # passes an op, where an outcome future in between made it four.
        assert 3.0 <= hedged_passes < 3.5, hedged_passes
        assert 3.0 <= plain_passes < 3.5, plain_passes

    def test_both_attempts_failing_raises_the_first_failure_after_the_second(self):
        async def scenario():
            logged = capture_loop_errors()
            async with one_node() as (node, agents):
                client = self.client_for(node, RpcChannel())
                try:
                    await client._whois(agents[-1])
                    self.slow_first_arrival(
                        node, delay=0.05, fail_duplicates=True, fail_primaries=True
                    )
                    started = time.monotonic()
                    with pytest.raises(RemoteOpError) as failure:
                        await self.pull(client, node)
                    # The duplicate failed first (at once) and alone
                    # settled nothing; the primary's failure ended the
                    # call, which raises the earlier of the two.
                    assert "duplicate refused" in str(failure.value)
                    assert time.monotonic() - started >= 0.05
                    assert client.counters.hedges == 1
                    assert client.counters.hedge_wins == 0
                    await self.still_serves(client, node, agents)
                    self.assert_nothing_left(client.channel, logged)
                finally:
                    await client.close()
            gc.collect()
            await asyncio.sleep(0)
            assert logged == []

        run(scenario())

    def test_primary_failing_inside_the_hedge_delay_is_raised_at_once(self):
        async def scenario():
            async with one_node() as (node, agents):
                client = self.client_for(node, RpcChannel())
                try:
                    await client._whois(agents[-1])
                    self.seed_rtt(client, node.addr)
                    started = time.monotonic()
                    with pytest.raises(RemoteOpError) as failure:
                        await client._call(node.addr, "lhagent", "whois", {}, hedge=True)
                    assert failure.value.code == "internal-error"
                    assert time.monotonic() - started < 0.01  # the hedge delay
                    assert client._hedge_eligible == 2
                    assert client.counters.hedges == 0
                    self.assert_nothing_left(client.channel, [])
                finally:
                    await client.close()

        run(scenario())

    #: Seconds into the call its caller is cancelled, by attempts then out
    #: (the hedge delay is 10 ms).
    CANCEL_AFTER = {
        "cancelled-while-dialing": 0,
        "cancelled-one-out": 0.003,
        "cancelled-two-out": 0.03,
    }

    @pytest.mark.parametrize(
        "ending",
        ["primary-wins", "duplicate-wins", *CANCEL_AFTER, "connection-closed", "expired"],
    )
    def test_nothing_of_the_record_outlives_the_call(self, ending):
        async def scenario():
            logged = capture_loop_errors()
            async with one_node() as (node, agents):
                # At or below TIMEOUT_FLOOR the adaptive timeout is its
                # cap, rpc_timeout, whatever the samples.
                client = ServiceClient(
                    "driver",
                    node.addr,
                    config=ClientConfig(rpc_timeout=0.15),
                    channel=RpcChannel(),
                )
                channel = client.channel
                try:
                    if ending != "cancelled-while-dialing":
                        await client._whois(agents[-1])
                    self.seed_rtt(client, node.addr)
                    if ending == "primary-wins":
                        self.slow_first_arrival(node, delay=0.04, fail_duplicates=True)
                        assert "mode" in await self.pull(client, node)
                        assert client.counters.hedge_wins == 0
                    elif ending == "duplicate-wins":
                        self.slow_first_arrival(node, delay=0.04)
                        assert "mode" in await self.pull(client, node)
                        assert client.counters.hedge_wins == 1
                        await asyncio.sleep(0.06)  # the loser's reply arrives
                    elif ending in self.CANCEL_AFTER:
                        gate = gate_fetches(node)
                        call = asyncio.ensure_future(self.pull(client, node))
                        await asyncio.sleep(self.CANCEL_AFTER[ending])
                        hedges = 1 if ending == "cancelled-two-out" else 0
                        assert client.counters.hedges == hedges
                        call.cancel()
                        with pytest.raises(asyncio.CancelledError):
                            await call
                        await asyncio.sleep(0.02)  # past the hedge delay
                        gate.set()
                        await asyncio.sleep(0.02)  # the abandoned replies arrive
                        assert client.counters.hedges == hedges
                    elif ending == "connection-closed":
                        gate_fetches(node)
                        call = asyncio.ensure_future(self.pull(client, node))
                        await asyncio.sleep(0.03)
                        assert client.counters.hedges == 1
                        primary = channel._conns[node.addr]
                        hedge = channel._hedge_conns[node.addr]
                        primary.close("cut")
                        await asyncio.sleep(0.01)
                        assert not call.done()  # the duplicate is still out
                        hedge.close("cut too")
                        with pytest.raises(ServiceRpcError, match="failed: cut$"):
                            await call
                    elif ending == "expired":
                        gate_fetches(node)
                        with pytest.raises(ServiceTimeout):
                            await self.pull(client, node)
                        assert client.counters.hedges == 1
                    await self.still_serves(client, node, agents)
                    self.assert_nothing_left(channel, logged, ending == "connection-closed")
                finally:
                    await client.close()
            gc.collect()
            await asyncio.sleep(0)
            assert logged == []

        run(scenario())

    def test_all_attempts_share_the_primary_deadline(self, monkeypatch):
        monkeypatch.setattr("repro.service.client.HEDGE_DELAY_FLOOR", 0.15)

        async def scenario():
            async with one_node() as (node, agents):
                # rpc_timeout at TIMEOUT_FLOOR: the adaptive timeout is
                # 0.25 s whatever the samples.
                client = ServiceClient(
                    "driver",
                    node.addr,
                    config=ClientConfig(rpc_timeout=0.25),
                    channel=RpcChannel(),
                )
                try:
                    await client._whois(agents[-1])
                    self.seed_rtt(client, node.addr)
                    gate_fetches(node)  # primary and duplicate: both black-holed
                    started = time.monotonic()
                    with pytest.raises(ServiceTimeout, match="timed out after 0.25s"):
                        await self.pull(client, node)
                    elapsed = time.monotonic() - started
                    assert client.counters.hedges == 1
                    # start + timeout -- not hedge delay + timeout (0.4 s).
                    assert 0.25 <= elapsed < 0.35, elapsed
                finally:
                    await client.close()

        run(scenario())

    def test_a_call_that_has_to_dial_still_hedges(self):
        async def scenario():
            async with one_node() as (node, agents):
                client = self.client_for(node, RpcChannel())
                try:
                    self.slow_first_arrival(node, delay=0.05)
                    assert node.addr not in client.channel._conns
                    assert "mode" in await self.pull(client, node)
                    assert client.counters.hedges == 1
                    assert client.counters.hedge_wins == 1
                finally:
                    await client.close()

        run(scenario())


class TestTeardown:
    @pytest.mark.parametrize("netem_seed", [None, 5])
    def test_booted_cluster_leaves_no_task_and_no_transport(self, netem_seed):
        async def scenario():
            config = ClusterConfig(nodes=3, agents=1, ops=0, seed=7, netem_seed=netem_seed)
            async with booted_cluster(config) as cluster:
                agents = [await cluster.spawn_agent() for _ in range(6)]
                for index, agent in enumerate(agents):
                    assert await cluster.locate_agent(agent, index % 3)
                # Leave an awaiting handler in flight at teardown.
                gate_fetches(cluster.nodes[0])
                stuck = cluster.clients[1].channel.call(
                    cluster.nodes[0].addr, "lhagent", *pull_that_fetches(cluster.nodes[0])
                )
                servers = cluster.nodes + cluster.hagents
                handlers = len(cluster.nodes[0]._bg_tasks)
                await asyncio.sleep(0.05)
                assert len(cluster.nodes[0]._bg_tasks) == handlers + 1
            assert stuck.done() and stuck.exception() is not None
            leaked = asyncio.all_tasks() - {asyncio.current_task()}
            assert not leaked, leaked
            for server in servers:
                assert not server._connections
                assert not server._bg_tasks
                assert not connections(server.channel)
            if cluster.netem is not None:
                assert not cluster.netem._shims

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run(scenario())
            gc.collect()
        unclosed = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not unclosed, [str(w.message) for w in unclosed]
