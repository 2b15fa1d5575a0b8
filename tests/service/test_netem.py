"""Wire-level fault injection and client resilience tests.

The shim tests run real asyncio TCP servers on ephemeral localhost
ports and push bytes through :class:`NetemController`'s data plane --
no mocks on the wire. The client tests drive the resilience stack
(adaptive timeouts, hedging, the retry loop under the op deadline)
against black holes and stub channels where the behaviour must be
deterministic, and the replay tests boot whole hostile clusters twice
to prove the fault log is bit-identical for a seed.
"""

import asyncio
import random
import time

import pytest

from repro.platform.messages import Response
from repro.platform.naming import AgentId
from repro.service.client import (
    ClientConfig,
    RpcChannel,
    ServiceClient,
    ServiceLocateError,
    ServiceRpcError,
    ServiceTimeout,
)
from repro.service.cluster import ClusterConfig, run_cluster
from repro.service.netem import DIR_IN, DIR_OUT, NetemController
from repro.service.server import ServiceConfig

from tests.conftest import copy_reply, patch_backoff
from tests.service.frames import read_frame, write_frame
from tests.service.test_transport import one_node, served_connection, whois_frame

AGENT = AgentId(0xA1 << 48)


def run(coro):
    return asyncio.run(coro)


async def start_echo():
    """A newline-framed echo server on an ephemeral port."""

    async def handle(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                writer.write(line)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def open_shimmed(netem, port):
    """Dial ``port`` as a stream pair whose writes pass the controller's
    shim, keyed the way a dialing end is: by the server port, ``"in"``."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    transport, _ = await loop.create_connection(
        lambda: asyncio.StreamReaderProtocol(reader), "127.0.0.1", port
    )
    return reader, netem.wrap(transport, port, DIR_IN)


async def echo_once(netem, port, payload=b"ping\n", timeout=5.0):
    reader, writer = await open_shimmed(netem, port)
    try:
        writer.write(payload)
        return await asyncio.wait_for(reader.readline(), timeout=timeout)
    finally:
        writer.close()


class TestShimDataPlane:
    def test_clean_link_passes_frames_through(self):
        async def scenario():
            server, port = await start_echo()
            netem = NetemController(seed=1)
            try:
                assert await echo_once(netem, port) == b"ping\n"
                assert netem.frames_dropped == 0
            finally:
                netem.shutdown()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_degrade_adds_latency(self):
        async def scenario():
            server, port = await start_echo()
            netem = NetemController(seed=1)
            try:
                assert netem.degrade(port, delay_ms=120.0)
                started = time.monotonic()
                assert await echo_once(netem, port) == b"ping\n"
                # The delay applies per direction; one round trip pays
                # at least one injected delay.
                assert time.monotonic() - started >= 0.1
                assert netem.frames_delayed >= 1
            finally:
                netem.shutdown()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_blocked_direction_drops_frames_until_unblocked(self):
        async def scenario():
            server, port = await start_echo()
            netem = NetemController(seed=1)
            try:
                assert netem.block(port, DIR_IN)
                reader, writer = await open_shimmed(netem, port)
                writer.write(b"lost\n")
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(reader.readline(), timeout=0.3)
                assert netem.frames_dropped >= 1
                # Healing restores delivery for *new* frames; the
                # dropped one is gone (loss, not queueing).
                assert netem.unblock(port, DIR_IN)
                writer.write(b"after\n")
                assert await asyncio.wait_for(
                    reader.readline(), timeout=5.0
                ) == b"after\n"
                writer.close()
            finally:
                netem.shutdown()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_reset_aborts_live_connections(self):
        async def scenario():
            server, port = await start_echo()
            netem = NetemController(seed=1)
            try:
                reader, writer = await open_shimmed(netem, port)
                writer.write(b"warm\n")
                assert await asyncio.wait_for(reader.readline(), timeout=5.0)
                assert netem.reset(port) >= 1
                assert netem.resets_injected >= 1
                # The aborted connection surfaces as EOF or a reset on
                # the next read, never a hang.
                try:
                    tail = await asyncio.wait_for(reader.read(64), timeout=5.0)
                    assert tail == b""
                except (ConnectionError, OSError):
                    pass
            finally:
                netem.shutdown()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_slow_loris_dribbles_but_delivers_intact(self):
        async def scenario():
            server, port = await start_echo()
            netem = NetemController(seed=1)
            try:
                assert netem.slow(port, chunk=8, chunk_delay_ms=3.0)
                payload = b"x" * 63 + b"\n"
                started = time.monotonic()
                assert await echo_once(netem, port, payload) == payload
                # 64 bytes in 8-byte chunks pays several chunk pauses.
                assert time.monotonic() - started >= 0.01
            finally:
                netem.shutdown()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_seeded_loss_is_deterministic_per_connection(self):
        async def scenario():
            server, port = await start_echo()
            outcomes = []
            for _ in range(2):
                netem = NetemController(seed=42)
                try:
                    assert netem.degrade(port, loss=0.5)
                    reader, writer = await open_shimmed(netem, port)
                    for index in range(20):
                        writer.write(f"m{index}\n".encode())
                    await asyncio.sleep(0.3)
                    writer.close()
                    outcomes.append(netem.frames_dropped)
                finally:
                    netem.shutdown()
            # Same seed, same connection sequence: the loss draws are
            # replayed, so both runs drop the same frames.
            assert outcomes[0] == outcomes[1]
            assert 0 < outcomes[0] < 20
            server.close()
            await server.wait_closed()

        run(scenario())


class TestServedSegments:
    """A server hands its shim a whole segment's replies at once; the
    link's faults still fall on each reply by itself. (With no shim that
    hand-over is the transport's one send: test_transport has it.)"""

    REPLIES = 12

    def segment(self, agents, first_id):
        ids = list(range(first_id, first_id + self.REPLIES))
        return ids, b"".join(map(whois_frame, agents, ids))

    def test_every_reply_of_a_segment_gets_its_own_draw(self):
        async def scenario():
            netem = NetemController(seed=5)
            async with one_node(ServiceConfig(netem=netem)) as (node, agents):
                # Dialed around the controller: only the replies are shimmed.
                reader, writer, conn, writes = await served_connection(node, agents[0])
                try:
                    port = node.addr[1]
                    assert netem.degrade(port, loss=1.0)
                    dropped = netem.frames_dropped
                    lost, segment = self.segment(agents, 1)
                    conn.data_received(segment)
                    assert netem.frames_dropped == dropped + self.REPLIES
                    assert writes.reply_ids() == [lost]  # handed over at once
                    assert netem.restore(port)
                    kept, segment = self.segment(agents, 100)
                    conn.data_received(segment)
                    for expected in kept:  # none of the lost ones comes first
                        reply = await asyncio.wait_for(read_frame(reader), 5.0)
                        assert reply.message_id == expected
                    assert netem.frames_dropped == dropped + self.REPLIES
                finally:
                    writer.close()

        run(scenario())

    def test_jitter_delays_each_reply_and_keeps_their_order(self):
        async def scenario():
            netem = NetemController(seed=5)
            async with one_node(ServiceConfig(netem=netem)) as (node, agents):
                reader, writer, conn, _ = await served_connection(node, agents[0])
                try:
                    assert netem.degrade(node.addr[1], delay_ms=1.0, jitter_ms=20.0)
                    delayed = netem.frames_delayed
                    ids, segment = self.segment(agents, 1)
                    conn.data_received(segment)
                    assert netem.frames_delayed == delayed + self.REPLIES
                    for expected in ids:
                        reply = await asyncio.wait_for(read_frame(reader), 5.0)
                        assert reply.message_id == expected
                finally:
                    writer.close()

        run(scenario())


class TestKeyingRule:
    """The service's own two ends under one controller: a channel's
    requests pass its ``"in"`` shim and the node's replies the node's
    ``"out"`` shim, both keyed by the node's port."""

    @staticmethod
    def host_pings(node):
        """The ``host`` pings ``node`` dispatches from here on."""
        pings = []
        route = node.route

        def counted(target, request):
            if (target, request.op) == ("host", "ping"):
                pings.append(request.message_id)
            return route(target, request)

        node.route = counted
        return pings

    @staticmethod
    def directions(netem, port):
        return sorted(shim.direction for shim in netem._shims.get(port, ()))

    def blocked_ping(self, direction):
        """``(timed out, host pings run)`` for one ping to a node whose
        ``direction`` is blocked."""

        async def scenario():
            netem = NetemController(seed=3)
            async with one_node(ServiceConfig(netem=netem)) as (node, _):
                pings = self.host_pings(node)
                channel = RpcChannel(netem=netem)
                try:
                    assert netem.block(node.addr[1], direction)
                    try:
                        await channel.call(node.addr, "host", "ping", timeout=0.3)
                    except ServiceTimeout:
                        timed_out = True
                    else:
                        timed_out = False
                    await asyncio.sleep(0.05)  # a request in flight lands
                    return timed_out, len(pings)
                finally:
                    netem.unblock(node.addr[1], direction)
                    await channel.close()

        return run(scenario())

    def test_blocking_in_drops_the_request_before_any_handler(self):
        assert self.blocked_ping(DIR_IN) == (True, 0)

    def test_blocking_out_drops_the_reply_of_a_handler_that_ran_once(self):
        assert self.blocked_ping(DIR_OUT) == (True, 1)

    def test_a_round_trip_shims_each_direction_once_under_the_server_port(self):
        async def scenario():
            netem = NetemController(seed=3)
            async with one_node(ServiceConfig(netem=netem)) as (node, _):
                port = node.addr[1]
                before = self.directions(netem, port)
                channel = RpcChannel(netem=netem)
                try:
                    reply = await channel.call(node.addr, "host", "ping")
                    assert reply["node"] == "node-0"
                    assert self.directions(netem, port) == sorted(
                        before + [DIR_IN, DIR_OUT]
                    )
                finally:
                    await channel.close()

        run(scenario())


class TestControlPlane:
    def test_faults_are_idempotent(self):
        netem = NetemController(seed=0)
        assert netem.degrade(9001, delay_ms=10.0) is True
        assert netem.degrade(9001, delay_ms=10.0) is False
        assert netem.restore(9001) is True
        assert netem.restore(9001) is False
        assert netem.slow(9001) is True
        assert netem.slow(9001) is False
        assert netem.unslow(9001) is True
        assert netem.unslow(9001) is False
        assert netem.block(9001, DIR_OUT) is True
        assert netem.block(9001, DIR_OUT) is False
        assert netem.unblock(9001, DIR_OUT) is True
        assert netem.unblock(9001, DIR_OUT) is False
        # Only the six applied transitions made the log; the no-op
        # re-applications left no trace.
        assert len(netem.log) == 6

    def test_apply_event_reports_skips(self):
        netem = NetemController(seed=0)
        assert netem.apply_event("link-degrade", 9001, {"delay_ms": 5.0}) == "ok"
        assert netem.apply_event("link-degrade", 9001, {"delay_ms": 5.0}).startswith(
            "skipped"
        )
        assert netem.apply_event("heal-asym", 9001, {}).startswith("skipped")
        assert netem.apply_event("link-reset", 9001, {}).startswith("aborted")
        with pytest.raises(ValueError):
            netem.apply_event("crash-node", 9001, {})

    def test_named_targets_need_a_binding(self):
        netem = NetemController(seed=0)
        with pytest.raises(KeyError):
            netem.degrade("node-0", delay_ms=5.0)
        netem.bind("node-0", ("127.0.0.1", 9001))
        assert netem.degrade("node-0", delay_ms=5.0) is True
        # Named and port keys resolve to the same link state.
        assert netem.degrade(9001, delay_ms=5.0) is False

    def test_log_digest_is_a_function_of_the_op_sequence(self):
        def drive(netem):
            netem.degrade(9001, delay_ms=10.0, jitter_ms=2.0, loss=0.01)
            netem.block(9002, DIR_IN)
            netem.restore(9001)

        first, second = NetemController(seed=1), NetemController(seed=99)
        drive(first)
        drive(second)
        # The digest covers the applied control ops, not the seed or
        # wall clock -- the replay-determinism artifact.
        assert first.log_digest() == second.log_digest()
        second.unblock(9002, DIR_IN)
        assert first.log_digest() != second.log_digest()


class _LanePeer:
    """A framed peer whose first connection (the regular one) answers a
    ``whois`` after ``primary_delay`` and whose later ones (the hedge
    connection) answer at once, as every connection answers any other
    op; ``lanes`` notes the connection each request arrived on."""

    def __init__(self, primary_delay=0.2):
        self.primary_delay = primary_delay
        self.connections = 0
        self.lanes = []

    async def __aenter__(self):
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.addr = self.server.sockets[0].getsockname()[:2]
        return self

    async def __aexit__(self, *exc_info):
        self.server.close()
        await self.server.wait_closed()

    async def _serve(self, reader, writer):
        lane = self.connections
        self.connections += 1
        try:
            while (frame := await read_frame(reader)) is not None:
                self.lanes.append(lane)
                if lane == 0 and frame["req"].op == "whois":
                    await asyncio.sleep(self.primary_delay)
                reply = {"status": "ok", "who": "secondary" if lane else "primary"}
                await write_frame(
                    writer, Response(message_id=frame["req"].message_id, value=reply)
                )
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


def _seed_rtt(client, addr, sample=0.005, count=8):
    for _ in range(count):
        client._rtt_for(addr).observe(sample)


class TestHedgedCalls:
    """The hedged read end to end: ``_call`` hands the request record
    its hedge delay and budget; the record sends the duplicate."""

    @staticmethod
    async def hedged_read(client, peer, deadline=None):
        return await client._call(
            peer.addr, "lhagent", "whois", {}, deadline=deadline, hedge=True
        )

    def test_secondary_wins_on_a_dedicated_lane(self, monkeypatch):
        monkeypatch.setattr("repro.service.client.HEDGE_DELAY_FLOOR", 0.01)

        async def scenario():
            async with _LanePeer() as peer:
                client = ServiceClient("n0", peer.addr)
                _seed_rtt(client, peer.addr)
                try:
                    reply = await self.hedged_read(client, peer)
                    assert reply["who"] == "secondary"
                    assert client.counters.hedges == 1
                    assert client.counters.hedge_wins == 1
                    # The duplicate rode a connection of its own: in-order
                    # delivery means a same-connection duplicate could
                    # never overtake the slow primary.
                    assert peer.lanes == [0, 1]
                finally:
                    await client.close()

        run(scenario())

    def test_the_hedge_connection_carries_only_duplicates(self, monkeypatch):
        monkeypatch.setattr("repro.service.client.HEDGE_DELAY_FLOOR", 0.01)

        async def scenario():
            async with _LanePeer(primary_delay=0.05) as peer:
                client = ServiceClient("n0", peer.addr)
                channel = client.channel
                try:
                    await channel.call(peer.addr, "lhagent", "ping", {})
                    _seed_rtt(client, peer.addr)
                    assert (await self.hedged_read(client, peer))["who"] == "secondary"
                    assert client.counters.hedges == 1
                    # One regular call and one admitted duplicate: two
                    # connections, the duplicate's dialed for it.
                    assert peer.connections == 2
                    # Fifty regular calls at once never ride the hedge
                    # connection, however deep the regular one's queue.
                    del peer.lanes[:]
                    await asyncio.gather(
                        *(channel.call(peer.addr, "lhagent", "ping", {}) for _ in range(50))
                    )
                    assert peer.lanes == [0] * 50
                    # The next duplicate rides the hedge connection it has.
                    _seed_rtt(client, peer.addr)
                    assert (await self.hedged_read(client, peer))["who"] == "secondary"
                    assert client.counters.hedges == 2
                    assert peer.lanes[50:] == [0, 1]
                    assert peer.connections == 2
                    assert list(channel._hedge_conns) == list(channel._conns) == [peer.addr]
                finally:
                    await client.close()

        run(scenario())

    def test_fast_primary_never_spawns_a_duplicate(self):
        async def scenario():
            async with _LanePeer(primary_delay=0.0) as peer:
                client = ServiceClient("n0", peer.addr)  # the 50 ms floor
                _seed_rtt(client, peer.addr)
                try:
                    reply = await self.hedged_read(client, peer)
                    assert reply["who"] == "primary"
                    assert client.counters.hedges == 0
                    assert peer.lanes == [0]
                finally:
                    await client.close()

        run(scenario())

    def test_hedge_budget_caps_duplicates(self, monkeypatch):
        monkeypatch.setattr("repro.service.client.HEDGE_DELAY_FLOOR", 0.01)

        async def scenario():
            async with _LanePeer(primary_delay=0.05) as peer:
                client = ServiceClient("n0", peer.addr)
                try:
                    for _ in range(30):
                        # Each slow round trip feeds the estimator; keep
                        # the hedge delay at its floor regardless.
                        client._rtts.pop(peer.addr, None)
                        _seed_rtt(client, peer.addr)
                        await self.hedged_read(client, peer)
                    # Every primary was tail-slow, yet only ~HEDGE_BUDGET of
                    # the eligible calls dared a duplicate -- the tail-at-scale
                    # guard against hedges amplifying an overload.
                    assert client._hedge_eligible == 30
                    assert 0 < client.counters.hedges <= 7
                    assert len(peer.lanes) == 30 + client.counters.hedges
                finally:
                    await client.close()

        run(scenario())

    def test_no_hedge_when_delay_exceeds_timeout(self):
        async def scenario():
            async with _LanePeer(primary_delay=0.0) as peer:
                client = ServiceClient("n0", peer.addr)
                try:
                    # No RTT samples: hedge delay sits at the cap, above the
                    # tiny budgeted timeout, so the call goes out unhedged.
                    deadline = asyncio.get_running_loop().time() + 0.05
                    reply = await self.hedged_read(client, peer, deadline)
                    assert reply["who"] == "primary"
                    assert client._hedge_eligible == 1
                    assert client.counters.hedges == 0
                    assert peer.lanes == [0]
                finally:
                    await client.close()

        run(scenario())


class _MappingStubChannel:
    """Answers the requester's pull of the copy with a one-leaf function
    whose IAgent sits at a fixed address; what reaches that IAgent is
    answered by ``iagent(op, body)``."""

    def __init__(self, iagent_addr, iagent):
        self.iagent_addr = iagent_addr
        self.iagent = iagent

    async def call(self, addr, to, op, body, timeout=None, hedge=None):
        if (to, op) == ("lhagent", "get-hash-delta"):
            return copy_reply("ia-0", "node-9", self.iagent_addr)
        assert (tuple(addr), to) == (self.iagent_addr, "ia-0"), f"{op} reached the stub"
        return self.iagent(op, body)


class TestDeadlines:
    def test_a_dark_iagent_is_never_answered_from_memory(self, monkeypatch):
        """A locate returns what the responsible IAgent answers, or
        raises once its retries are spent: an IAgent that acknowledged
        the agent's move and then went dark is asked every round, never
        stood in for by the client's memory of that move."""
        patch_backoff(monkeypatch, 0.001, 0.002)
        iagent_addr = ("127.0.0.1", 9999)
        asks = []

        def iagent(op, body):
            asks.append(op)
            if asks == ["update"]:
                assert (body["agent"], body["node"], body["seq"]) == (AGENT, "node-3", 1)
                return {"status": "ok"}
            assert op == "locate", op
            raise ServiceRpcError(f"{op} to the dark IAgent timed out", op=op, addr=iagent_addr)

        async def scenario():
            client = ServiceClient(
                "n0",
                ("127.0.0.1", 9001),
                config=ClientConfig(max_retries=8, op_deadline=1.0),
                channel=_MappingStubChannel(iagent_addr, iagent),
                rng=random.Random(1),
            )
            await client.update(AGENT, "node-3", 1)
            with pytest.raises(ServiceLocateError):
                await client.locate(AGENT)
            return client.counters

        counters = run(scenario())
        assert asks == ["update"] + ["locate"] * 8
        assert counters.transport_retries == 8

    def test_locate_against_a_black_hole_honours_op_deadline(self, monkeypatch):
        """§4.3's retry loop must stay bounded by ``op_deadline`` even
        when every frame vanishes: each RPC budget is clamped to the
        remaining deadline, so a black-holed server cannot stretch the
        operation past deadline + one scheduling epsilon."""
        patch_backoff(monkeypatch, 0.01, 0.05)

        async def scenario():
            async def swallow(reader, writer):
                await reader.read()  # never answer

            server = await asyncio.start_server(swallow, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ServiceClient(
                "n0",
                ("127.0.0.1", port),
                config=ClientConfig(rpc_timeout=0.3, op_deadline=1.0, max_retries=1000),
                rng=random.Random(7),
            )
            started = time.monotonic()
            try:
                with pytest.raises(ServiceLocateError):
                    await client.locate(AGENT)
            finally:
                elapsed = time.monotonic() - started
                await client.close()
                server.close()
                await server.wait_closed()
            assert elapsed < 2.5, f"deadline overrun: {elapsed:.2f}s"
            assert client.counters.transport_retries > 0

        run(scenario())


class TestHostileReplay:
    """Whole-cluster determinism: one seed, one fault history."""

    CONFIG = ClusterConfig(
        nodes=3, agents=6, ops=30, seed=3, netem_seed=5, chaos_duration=2.5
    )

    def test_same_netem_seed_replays_identical_fault_log(self):
        first = run(run_cluster(self.CONFIG))
        second = run(run_cluster(self.CONFIG))
        for report in (first, second):
            assert report.passed, report.render()
            assert report.locate_failures == 0
            assert report.locate_mismatches == 0
            assert report.netem is not None
            assert report.netem["applied"], "no link faults fired"
        assert first.netem["fault_log_digest"] == second.netem["fault_log_digest"]
        assert first.netem["schedule_digest"] == second.netem["schedule_digest"]

    def test_churned_cluster_still_verifies(self):
        report = run(
            run_cluster(
                ClusterConfig(
                    nodes=4,
                    agents=8,
                    ops=40,
                    seed=3,
                    churn_seed=1,
                    chaos_duration=3.0,
                )
            )
        )
        assert report.passed, report.render()
        assert report.churn is not None
        assert report.churn["applied"], "churn schedule fired no events"
