"""The framed transport: the one place the service meets a socket.

Every live role talks by request / reply frames (:mod:`repro.service.wire`)
over TCP, and this module is the only code that opens a socket or puts
a frame on one:

* :func:`listen` and :func:`dial` -- the only callers of the loop's
  ``create_server`` / ``create_connection``;
* :class:`FramedProtocol` -- both ends of every connection. It reads
  into its owner's one preallocated buffer (``wire.RECV_BUFFER_SIZE``:
  a plain ``asyncio.Protocol`` would get a fresh 256 KiB ``bytes`` per
  read), decodes each received segment in one pass with a
  :class:`~repro.service.wire.FrameDecoder` -- every complete frame, as
  its flat header tuple -- writes to the transport or its netem shim,
  and drops the connection on a :class:`~repro.service.wire.WireError`
  (after serving the frames before the bad one);
* the accepting end -- :class:`FramedServer`, the listening socket both
  server kinds (``NodeServer``, ``HAgentServer``) dispatch through by
  ``route(target, op, body)``, and its ``_ServerConnection``, which
  answers a received segment's call frames in one write, drops the
  connection on a reply or value frame (no client sends one) and stops
  reading while a slow peer's replies back up;
* the dialing end -- ``_Connection``, one pipelined connection of an
  :class:`~repro.service.client.RpcChannel`: it numbers its own calls
  from 1, settles each reply on its caller's request record (``_Rpc``)
  by that message id and arms that record's hedge-then-expiry timer;
* the error types both ends raise, which :mod:`repro.service.client`
  re-exports.

An RPC is its header fields end to end: a call goes out through
``wire.encode_call`` and its reply through ``wire.encode_reply``, and
both ends read the decoder's tuples. No ``Request`` / ``Response``
envelope is built on either end, and the header frame is an RPC's only
wire form.

The netem keying rule lives here only: each direction of a link passes
one shim, at its sending end, and both ends key it by the server's
port -- the dialer's writes travel :data:`~repro.service.netem.DIR_IN`,
the acceptor's :data:`~repro.service.netem.DIR_OUT`.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple

from repro.metrics.trace import Tracer
from repro.service import wire
from repro.service.netem import DIR_IN, DIR_OUT, NetemController

__all__ = [
    "Address", "FramedProtocol", "FramedServer", "RemoteOpError", "ServiceError",
    "ServiceRpcError", "ServiceTimeout", "dial", "format_addr", "listen",
]

Address = Tuple[str, int]


def format_addr(addr: Optional[Address]) -> str:
    """``host:port`` for error messages (tolerates None)."""
    if addr is None:
        return "<unknown>"
    return f"{addr[0]}:{addr[1]}"


class ServiceError(Exception):
    """Base class of service-layer failures."""


class ServiceRpcError(ServiceError):
    """The transport failed: connect, send or receive did not complete.

    Carries enough context to debug a dead cluster from the message
    alone: ``op`` is the RPC that failed and ``addr`` the target
    address. ``refused`` distinguishes an actively refused connection
    (the process is *gone*) from a hang or reset -- the failure
    detector's fast-fail path keys off it.
    """

    def __init__(
        self,
        message: str,
        op: Optional[str] = None,
        addr: Optional[Address] = None,
        refused: bool = False,
    ) -> None:
        super().__init__(message)
        self.op = op
        self.addr = addr
        self.refused = refused


class ServiceTimeout(ServiceRpcError):
    """The reply did not arrive within the per-RPC timeout."""


class RemoteOpError(ServiceError):
    """The server replied with an error envelope.

    ``code`` is the machine-readable first token of the error string
    (``"agent-not-found"``, ``"unknown-op"``, ...).
    """

    def __init__(self, error: str) -> None:
        super().__init__(error)
        self.code = error.split(":", 1)[0].strip()


def listen(host: str, port: int, factory: Callable[[], Any]) -> Awaitable[asyncio.Server]:
    """Serve ``factory``'s protocols on ``host:port`` (0: any free port)."""
    return asyncio.get_running_loop().create_server(factory, host, port)


def dial(addr: Address, factory: Callable[[], Any]) -> Awaitable[Tuple[Any, Any]]:
    """Connect to ``addr``; awaits to ``(transport, protocol)``. A plain
    function handing back the loop's awaitable, so a profile counts one
    call per dial."""
    return asyncio.get_running_loop().create_connection(factory, addr[0], addr[1])


class FramedProtocol(asyncio.BufferedProtocol):
    """One end of a framed connection.

    Subclasses set :attr:`direction` and take the decoded frames of each
    received segment -- ``wire.FrameDecoder.decode``'s tuples -- in
    :meth:`frames_received`.
    """

    #: Which way this end's writes travel, seen from the server:
    #: ``DIR_IN`` from the dialer, ``DIR_OUT`` from the acceptor.
    direction: str

    def __init__(self, recv_buffer: bytearray, netem: Optional[NetemController]) -> None:
        #: The owner's buffer every read lands in; each read is decoded
        #: before the next, so one buffer serves all its connections.
        self.recv_buffer = recv_buffer
        self.netem = netem
        self.decoder = wire.FrameDecoder()
        self.transport: Any = None
        #: The write side: the transport itself, or its netem shim.
        self.out: Any = None

    def connection_made(self, transport: Any) -> None:
        self.transport = self.out = transport
        if self.netem is not None:
            # Both ends key a link by the server's port: the dialer's
            # peer, the acceptor's own socket.
            side = "peername" if self.direction == DIR_IN else "sockname"
            port = transport.get_extra_info(side)[1]
            self.out = self.netem.wrap(transport, port, self.direction)

    def get_buffer(self, sizehint: int) -> bytearray:
        return self.recv_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(memoryview(self.recv_buffer)[:nbytes])

    def data_received(self, data: bytes) -> None:
        frames: List[Tuple] = []
        try:
            self.decoder.decode(data, frames)
        except wire.WireError as error:
            # The frames before the bad one are served; then a
            # garbage-speaking peer costs its connection only.
            self.frames_received(frames)
            self.close(str(error))
            return
        self.frames_received(frames)

    def frames_received(self, frames: List[Tuple]) -> None:
        """Handle the frames one received segment completes."""
        raise NotImplementedError

    def close(self, detail: str = "connection closed") -> None:
        self.out.abort()


# ----------------------------------------------------------------------
# The accepting end
# ----------------------------------------------------------------------


class _ServerConnection(FramedProtocol):
    """One accepted connection: hands each frame to the server.

    The replies a received segment's frames produce inline are collected
    and handed over in one ``writelines`` when the segment is done (a
    pipelining peer's N requests cost one send, not N); a reply a
    handler task produces later is written on its own. When a peer stops
    reading and the write buffer passes its high-water mark, the
    connection stops *reading* until it drains, so the replies buffered
    for one slow peer stay bounded.
    """

    direction = DIR_OUT

    def __init__(self, server: "FramedServer") -> None:
        super().__init__(server.recv_buffer, server.config.netem)
        self.server = server
        #: The encoded replies of the segment being served; ``None``
        #: outside ``frames_received``.
        self._segment: Optional[List[bytes]] = None

    def connection_made(self, transport: Any) -> None:
        super().connection_made(transport)
        self.server._connections.add(self)

    def frames_received(self, frames: List[Tuple]) -> None:
        replies = self._segment = []
        garbage = False
        try:
            for frame in frames:
                if frame[0] != wire.CALL:
                    garbage = True  # a reply or a value: no client sends one
                    break
                self.server._on_frame(self, frame)
        finally:
            # Also on a handler bug or a malformed frame: the answers
            # already made go out.
            self._segment = None
            if replies:
                self.out.writelines(replies)
        if garbage:  # then the connection goes, as on undecodable bytes
            self.close("a reply or value frame from a client")

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections.discard(self)
        self.out.close()  # detaches a shim from its controller

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def reply(self, message_id: int, value: Any, error: Optional[str]) -> None:
        if self.transport.is_closing():
            return  # the peer went away; its retry path owns recovery
        try:
            payload = wire.encode_reply(message_id, value, error)
        except wire.WireError as exc:  # an unencodable or oversized value
            payload = wire.encode_reply(message_id, None, f"internal-error: {exc}")
        if self._segment is None:
            self.out.write(payload)
        else:
            self._segment.append(payload)


class FramedServer:
    """A listening socket speaking the framed request/response protocol.

    ``config`` is the deployment's ``ServiceConfig``; this class reads
    its ``host`` and ``netem``. Subclasses implement the synchronous
    :meth:`route`, which takes a call's header fields. A handler that
    returns a plain value is answered inline, straight from
    ``data_received``; only one that returns a coroutine gets a task.
    Only a call frame is served: a reply or a value frame closes its
    connection, as undecodable bytes do.
    """

    def __init__(self, config: Any, tracer: Optional[Tracer]) -> None:
        self.config = config
        self.tracer = tracer
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_ServerConnection] = set()
        self._bg_tasks: Set[asyncio.Task] = set()
        self.addr: Optional[Address] = None
        #: What every accepted connection's socket reads land in.
        self.recv_buffer = bytearray(wire.RECV_BUFFER_SIZE)
        #: Fault injection: a partitioned server swallows every incoming
        #: request without replying (callers time out, exactly like a
        #: network cut) while its own outgoing RPCs are blocked by the
        #: subclasses that make them. The process itself stays alive.
        self.partitioned = False

    @staticmethod
    def _now() -> float:
        """The clock every server reading (dispatch timing, load
        windows, liveness) goes through: the running loop's."""
        return asyncio.get_running_loop().time()

    async def start(self, host: Optional[str] = None, port: int = 0) -> Address:
        self._server = await listen(
            host or self.config.host, port, lambda: _ServerConnection(self)
        )
        sockname = self._server.sockets[0].getsockname()
        self.addr = (sockname[0], sockname[1])
        return self.addr

    def spawn(self, coro, name: str) -> asyncio.Task:
        task = asyncio.ensure_future(coro)
        task.set_name(name)
        self._bg_tasks.add(task)
        task.add_done_callback(self._bg_tasks.discard)
        return task

    async def stop(self) -> None:
        """Shutdown: stop accepting, drop every connection, cancel tasks."""
        if self._server is not None:
            self._server.close()
        for conn in list(self._connections):
            conn.out.abort()
        # Re-cancel until every task actually dies: on Python <= 3.11
        # asyncio.wait_for (a client's connect on a miss still uses it)
        # can swallow a cancellation that races the inner call's
        # completion -- a single cancel() is not guaranteed to stick.
        tasks = [task for task in self._bg_tasks if not task.done()]
        while tasks:
            for task in tasks:
                task.cancel()
            done, pending = await asyncio.wait(tasks, timeout=1.0)
            for task in done:
                if not task.cancelled():
                    task.exception()  # consume it: nothing left to log
            tasks = list(pending)
        self._bg_tasks.clear()
        if self._server is not None:
            # From 3.12 on this also waits for the aborted connections.
            await self._server.wait_closed()
            self._server = None

    def _on_frame(self, conn: _ServerConnection, frame: Tuple) -> None:
        """Serve one call frame: ``(CALL, target, op, body, message_id)``."""
        if self.partitioned:
            return  # injected partition: drop the request silently
        # The dispatch timing is read only for a tracer to record.
        started = self._now() if self.tracer is not None else 0.0
        try:
            result = self.route(frame[1], frame[2], frame[3])
        except Exception as exc:
            self._answer(conn, frame, started, failure=exc)
            return
        if asyncio.iscoroutine(result):
            # The handler has to wait (a forward, a fetch): a task of its
            # own keeps it from head-of-line blocking the frames pipelined
            # behind it into a correlated timeout burst.
            # It runs to completion even if the connection goes first.
            self.spawn(self._answer_later(conn, frame, started, result), "answer")
        else:
            self._answer(conn, frame, started, result)

    async def _answer_later(
        self, conn: _ServerConnection, frame: Tuple, started: float, handler: Any
    ) -> None:
        try:
            value = await handler
        except Exception as exc:
            self._answer(conn, frame, started, failure=exc)
        else:
            self._answer(conn, frame, started, value)

    def _answer(
        self,
        conn: _ServerConnection,
        frame: Tuple,
        started: float,
        value: Any = None,
        failure: Optional[Exception] = None,
    ) -> None:
        error = None
        if isinstance(failure, _Reject):
            error = str(failure)
        elif failure is not None:  # a handler bug must not kill the server
            error = f"internal-error: {type(failure).__name__}: {failure}"
        if self.tracer is not None:
            self.tracer.record_now(
                "rpc-server",
                op=frame[2],
                target=str(frame[1]),
                outcome=error or "ok",
                elapsed=self._now() - started,
            )
        conn.reply(frame[4], value, error)

    def route(self, target: Any, op: str, body: Any) -> Any:
        """The handler's reply value, or a coroutine that produces it."""
        raise NotImplementedError

    async def dispatch(self, target: Any, request: Any) -> Any:
        """:meth:`route` for a simulator ``Request`` envelope (the one-shot
        edge), awaited through when the handler had to wait."""
        result = self.route(target, request.op, request.body)
        if asyncio.iscoroutine(result):
            result = await result
        return result


class _Reject(ServiceError):
    """Raised by handlers to produce an error reply (code: message)."""


# ----------------------------------------------------------------------
# The dialing end
# ----------------------------------------------------------------------


class _Rpc:
    """One RPC in flight: the request record.

    The record is the ``pending`` entry of *every* connection carrying
    an attempt for it -- the primary's, and the hedge connection's once
    a duplicate is out -- so whichever reply lands first settles the
    caller's future directly and takes the other attempt's entry away
    by message id. It owns one timer handle (hedge-then-expiry, see
    :meth:`_Connection.request`) and one absolute ``deadline`` that all
    its attempts share. An unhedged call is the same record with no
    duplicate ever added.
    """

    __slots__ = ("primary", "future", "op", "deadline", "timer", "out", "error", "hedger")

    def __init__(
        self, primary: "_Connection", future: "asyncio.Future[Any]", op: str, deadline: float
    ) -> None:
        #: The connection that carried the first attempt; a success
        #: settled by any other connection is a hedge win.
        self.primary = primary
        self.future = future
        self.op = op
        self.deadline = deadline
        self.timer: Any = None
        #: Attempts still out: connection -> message id, plus the hedge
        #: connection's dial task -> None while it is opening.
        self.out: Dict[Any, Optional[int]] = {}
        #: The first attempt failure, raised once no attempt is left out.
        self.error: Optional[Exception] = None
        #: Who admitted the duplicate (told if it wins); None until then.
        self.hedger: Any = None

    def drop(self) -> None:
        """Forget every attempt still out: their late replies find no
        pending entry and are dropped by id."""
        for holder, message_id in self.out.items():
            if message_id is None:
                holder.cancel()
            else:
                holder.pending.pop(message_id, None)
        self.out.clear()

    def fail(self, error: Exception) -> None:
        """One attempt (already taken out of ``out``) failed: the RPC
        fails, with its *first* failure, once no attempt is left out."""
        if self.error is None:
            self.error = error
        if not self.out:
            self.timer.cancel()
            if not self.future.done():  # else the caller was cancelled
                self.future.set_exception(self.error)


class _Connection(FramedProtocol):
    """One dialed connection of an ``RpcChannel``, with its in-flight
    requests.

    :meth:`frames_received` settles each reply frame on the waiting
    caller's future by its message id, through the :class:`_Rpc` record
    ``pending`` holds for it. The ids are this connection's own,
    numbered from 1 (a duplicate on the hedge connection gets that
    connection's next id). Replies whose record is gone (the
    caller timed out, or the other attempt of a hedged read won) settle
    nobody and are dropped -- a late reply must not wedge or kill the
    stream. Any transport failure fails this connection's attempt of
    every pending record and closes the connection. A request is one
    transport write plus one timer, a reply one future settled: no
    task, no second future, and the caller resumes on the loop pass
    after the reply is read -- hedge-eligible or not.
    """

    direction = DIR_IN

    def __init__(self, channel: Any, addr: Address) -> None:
        super().__init__(channel.recv_buffer, channel.netem)
        self.channel = channel
        self.addr = addr
        #: message id -> the request record of the attempt sent here.
        self.pending: Dict[int, _Rpc] = {}
        #: The message id of the last call written here.
        self.last_id = 0
        self.closed = False
        self._loop = asyncio.get_running_loop()

    def frames_received(self, frames: List[Tuple]) -> None:
        for frame in frames:
            if frame[0] == wire.REPLY:
                self._settle(frame[1], frame[2], frame[3])
            # Any other frame is a peer bug; skip it rather than
            # wedging the stream.

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.close(str(exc) if exc else "peer closed the connection")

    def request(
        self,
        now: float,
        to: Any,
        op: str,
        body: Any,
        timeout: float,
        hedge: Optional[Tuple[float, Any]] = None,
    ) -> "asyncio.Future[Any]":
        """Write one request; the future settles with the reply value,
        a :class:`RemoteOpError`, or the transport's service error.

        ``hedge`` is ``(delay, hedger)`` for an idempotent read that may
        race a duplicate. The record's one timer is then armed for the
        hedge delay first (when that falls inside the timeout) and
        re-arms itself for the expiry when it fires; otherwise it is
        the expiry from the start. Either way every attempt shares the
        deadline ``now + timeout``.
        """
        loop = self._loop
        rpc = _Rpc(self, loop.create_future(), op, now + timeout)
        try:
            self.send(rpc, to, body)
        except wire.WireError as error:
            rpc.future.set_exception(self._error(op, f"failed: {error}"))
            return rpc.future
        if hedge is not None and hedge[0] < timeout:
            rpc.timer = loop.call_at(
                now + hedge[0], self._hedge, rpc, to, body, hedge[1], timeout
            )
        else:
            rpc.timer = loop.call_at(rpc.deadline, self._expire, rpc, timeout)
        return rpc.future

    def send(self, rpc: _Rpc, to: Any, body: Any) -> None:
        """Put one attempt of ``rpc`` on this connection's wire."""
        self.last_id = message_id = self.last_id + 1
        payload = wire.encode_call(message_id, rpc.op, to, body)
        self.pending[message_id] = rpc
        rpc.out[self] = message_id
        self.out.write(payload)

    def _settle(self, message_id: int, value: Any, error: Optional[str]) -> None:
        rpc = self.pending.pop(message_id, None)
        if rpc is None:
            return  # expired, or already won by the other attempt: dropped by id
        del rpc.out[self]
        self.channel._trace(rpc.op, self.addr, error or "ok")
        if error is not None:
            rpc.fail(RemoteOpError(error))
            return
        # First success wins: the loser's entry goes, its reply with it.
        rpc.timer.cancel()
        if rpc.out:
            rpc.drop()
        if rpc.future.done():
            return  # the caller was cancelled
        if self is not rpc.primary:
            rpc.hedger.hedge_won()
        rpc.future.set_result(value)

    def _hedge(self, rpc: _Rpc, to: Any, body: Any, hedger: Any, timeout: float) -> None:
        """The record's timer, fired at the hedge delay: the primary is
        still out (a reply already read this pass would have cancelled
        this handle), so race a duplicate if the hedger's budget admits
        one, and re-arm for the shared deadline either way."""
        if rpc.future.done():
            rpc.drop()  # the caller was cancelled: nothing left to race for
            return
        rpc.timer = self._loop.call_at(rpc.deadline, self._expire, rpc, timeout)
        if hedger.admit_hedge():
            rpc.hedger = hedger
            self.channel._send_duplicate(self.addr, rpc, to, body)

    def _expire(self, rpc: _Rpc, timeout: float) -> None:
        # Abandon only this call; its connections stay up.
        rpc.drop()
        rpc.fail(self._error(rpc.op, f"timed out after {timeout}s", ServiceTimeout))

    def _error(
        self, op: str, what: str, error: Callable[..., ServiceRpcError] = ServiceRpcError
    ) -> ServiceRpcError:
        message = f"{op} to {format_addr(self.addr)} {what}"
        label = "timeout" if error is ServiceTimeout else "transport-error"
        self.channel._trace(op, self.addr, f"{label}: {message}")
        return error(message, op=op, addr=self.addr)

    def close(self, detail: str = "connection closed") -> None:
        if self.closed:
            return
        self.closed = True
        pending, self.pending = self.pending, {}
        for rpc in pending.values():
            del rpc.out[self]
            rpc.fail(self._error(rpc.op, f"failed: {detail}"))
        self.out.abort()
