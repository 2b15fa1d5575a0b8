"""The task-free transport against real servers (no toy peers).

Both ends are ``asyncio.Protocol`` pairs: the server answers a
synchronous handler straight from ``data_received`` and spawns a task
only for one that awaits; the client settles reply futures from
``data_received`` under one expiry timer each. These tests pin the
behaviours that design has to keep: no head-of-line blocking behind an
awaiting handler, timeout isolation with late replies dropped by id,
split-agnostic framing, pause-reading back-pressure, a budgeted hedge
timer that never leaks an unretrieved exception, and a teardown that
leaves no task and no transport behind.
"""

import asyncio
import gc
import warnings
from contextlib import asynccontextmanager

import pytest

from repro.platform.messages import Request, Response
from repro.platform.naming import AgentNamer
from repro.service import wire
from repro.service.client import (
    ClientConfig,
    RemoteOpError,
    RpcChannel,
    ServiceClient,
    ServiceTimeout,
)
from repro.service.cluster import ClusterConfig, booted_cluster
from repro.service.server import HAgentServer, NodeServer


def run(coro):
    return asyncio.run(coro)


@asynccontextmanager
async def one_node():
    """A bootstrapped HAgent + NodeServer pair and a few agent ids."""
    hagent = HAgentServer()
    await hagent.start()
    node = NodeServer("node-0", hagent.addr)
    await node.start()
    try:
        await node.channel.call(hagent.addr, "hagent", "bootstrap", {})
        namer = AgentNamer(seed=21)
        yield node, [namer.next_id() for _ in range(40)]
    finally:
        await node.stop()
        await hagent.stop()


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
                channel = RpcChannel(pool_size=1)
                try:
                    await channel.call(node.addr, "lhagent", "whois", {"agent": agents[0]})
                    gate = gate_fetches(node)
                    slow = channel.call(node.addr, "lhagent", *pull_that_fetches(node))
                    fast = await channel.call(
                        node.addr, "lhagent", "whois", {"agent": agents[1]}
                    )
                    # Same connection, sent second, answered first.
                    assert len(channel._pools[node.addr]) == 1
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
                channel = RpcChannel(pool_size=1)
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
                channel = RpcChannel(pool_size=1)
                try:
                    await channel.call(node.addr, "lhagent", "whois", {"agent": agents[0]})
                    conn = channel._pools[node.addr][0]
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
                    assert channel._pools[node.addr] == [conn]
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
                        reply = await wire.read_frame(reader)
                        assert isinstance(reply, Response)
                        assert reply.message_id == index
                        assert reply.value["node"] == "node-0"
                    # One frame dribbled out a few bytes per segment.
                    frame = whois_frame(agents[0], 99)
                    for start in range(0, len(frame), 3):
                        writer.write(frame[start : start + 3])
                        await writer.drain()
                        await asyncio.sleep(0.001)
                    reply = await wire.read_frame(reader)
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
                # Last, a well-framed 10 KB body of 5000 nested lists.
                nested = b"\x08\x01" * 5000 + b"\x00"
                garbage = [
                    b"\xff\xff\xff\xff not a frame",
                    wire.encode_frame(
                        {"hello": {"codecs": ["binary", "json"]}}, codec=wire.CODEC_JSON
                    ),
                    whois_frame(agents[0], 7, wire.CODEC_JSON),
                    len(nested).to_bytes(4, "big") + nested,
                ]
                try:
                    reply = await channel.call(node.addr, "lhagent", "whois", whois)
                    for payload in garbage:
                        reader, writer = await asyncio.open_connection(*node.addr)
                        writer.write(payload)
                        assert await reader.read() == b""  # dropped, no reply
                        writer.close()
                        # The connection opened before it still answers.
                        (conn,) = channel._pools[node.addr]
                        again = await channel.call(node.addr, "lhagent", "whois", whois)
                        assert again == reply and again["node"] == "node-0"
                        assert channel._pools[node.addr] == [conn] and not conn.closed
                finally:
                    await channel.close()
            assert logged == []

        run(scenario())


class TestBackPressure:
    def test_peer_that_stops_reading_pauses_its_connection(self):
        async def scenario():
            async with one_node() as (node, agents):
                # A tiny stream buffer: the client side stops pulling
                # from the socket almost at once, so replies back up
                # into the server's transport buffer.
                reader, writer = await asyncio.open_connection(*node.addr, limit=1024)
                body = {"agents": agents}
                (iagent,) = node.iagents
                sent = 0

                def send():
                    nonlocal sent
                    request = Request(op="locate-batch", body=body, message_id=sent)
                    writer.write(wire.encode_frame({"to": iagent, "req": request}))
                    sent += 1

                try:
                    send()
                    first = await wire.read_frame(reader)
                    assert first.message_id == 0
                    local = writer.get_extra_info("sockname")[:2]
                    (conn,) = [
                        c
                        for c in node._connections
                        if c.transport.get_extra_info("peername")[:2] == local
                    ]
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
                        reply = await asyncio.wait_for(wire.read_frame(reader), 10.0)
                        assert reply.message_id == expected
                        assert len(reply.value["results"]) == len(agents)
                    assert conn.transport.is_reading()
                finally:
                    writer.close()

        run(scenario())


class _RecordingChannel(RpcChannel):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.lanes = []

    def call(self, addr, to, op, body=None, timeout=None, lane=None):
        self.lanes.append(lane)
        return super().call(addr, to, op, body, timeout=timeout, lane=lane)


class TestHedgeTimer:
    @staticmethod
    def slow_first_arrival(node, delay, fail_duplicates=False):
        """A pull arriving with none in flight awaits ``delay``; one that
        arrives meanwhile (the hedged duplicate) answers -- or fails --
        at once."""
        real = node.lhagent.op_get_hash_delta
        in_flight = 0

        async def late(body):
            nonlocal in_flight
            in_flight += 1
            try:
                await asyncio.sleep(delay)
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
        client = ServiceClient(
            "driver",
            node.addr,
            config=ClientConfig(hedge_delay_floor=0.01, hedge_budget=0.2),
            channel=channel,
        )
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
            logged = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: logged.append(context)
            )
            async with one_node() as (node, agents):
                channel = _RecordingChannel()
                client = self.client_for(node, channel)
                try:
                    await client._whois(agents[-1])  # open the pooled connection
                    self.slow_first_arrival(node, delay=0.04)
                    channel.lanes.clear()
                    for agent in agents[:30]:
                        mapping = await self.pull(client, agent)
                        assert mapping["node"] == "node-0"
                    duplicates = [lane for lane in channel.lanes if lane is not None]
                    # Every primary was tail-slow; the timer still sent
                    # at most hedge_budget of them a duplicate.
                    assert 0 < len(duplicates) <= 0.2 * 31
                    assert len(duplicates) == client.counters.hedges
                    assert 0 < client.counters.hedge_wins <= client.counters.hedges
                    assert set(duplicates) == {channel.pool_size}
                    assert channel.lanes.count(None) == 30
                    # No duplicate ever opened a socket beyond the hedge lane.
                    assert len(channel._pools[node.addr]) <= channel.pool_size + 1
                finally:
                    await client.close()
            gc.collect()
            await asyncio.sleep(0)
            assert logged == []

        run(scenario())

    def test_losing_and_cancelled_duplicates_never_log(self):
        async def scenario():
            logged = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: logged.append(context)
            )
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
                    for pool in channel._pools.values():
                        assert all(conn.pending == {} for conn in pool)
                finally:
                    await client.close()
            gc.collect()
            await asyncio.sleep(0)
            assert logged == []

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
                assert not server.channel._pools
            if cluster.netem is not None:
                assert not cluster.netem._shims

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run(scenario())
            gc.collect()
        unclosed = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not unclosed, [str(w.message) for w in unclosed]
