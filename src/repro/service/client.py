"""The service client: locate / register / migrate over real sockets.

Two layers:

* :class:`RpcChannel` -- the transport. Per peer, one framed TCP
  connection (a ``_Connection`` of :mod:`repro.service.transport`)
  that every call pipelines on, plus one that only hedged duplicates
  ride: the connection correlates replies to callers by
  ``message_id``, and a request on an open connection costs one
  transport write, one future and one timer -- no task,
  hedge-eligible or not: the hedge is a state of the request's one
  record, not a layer around it. Every frame is in the binary wire
  codec, from the connection's first byte (see
  :mod:`repro.service.wire`). Transport failures (refused, reset,
  garbage frames) surface as :class:`ServiceRpcError` and drop the
  connection -- failing its attempt of every call in flight on it --
  while a single call's *timeout* only abandons that call: its late
  reply, if any, is discarded by message id and the connection keeps
  serving the rest.
* :class:`ServiceClient` -- the protocol. It steps the requester sagas
  of :mod:`repro.core.requester` -- the paper's §2.3 + §4.3 loop, the
  same generators the simulator's ``HashLocationMechanism`` steps --
  over the wire: the saga decides what to resolve, ask, refresh and
  retry; this driver answers a *resolve* and a discovery round's
  *candidates* from its own secondary copies
  (:class:`~repro.core.hash_function.SecondaryCopies`, fed by the
  node's LHAgent only when a copy is missing or stale -- a steady op
  is one frame, to the IAgent, and a steady discovery round one per
  candidate IAgent), performs every hop through the
  resilience stack below, answers ``None`` for one it could not
  perform (so a pull the LHAgent could not serve is retried, not
  raised), and bounds the whole operation by ``op_deadline``. A
  single-record op makes the request saga's first round -- resolve
  from the held copy, ask -- inline, and builds the saga only when
  that round's answer is not ``ok``, feeding it the round's mapping
  and reply, so recovery stays the saga's alone. A
  locate returns what the responsible IAgent answered, or raises once
  the retries or the deadline are spent -- the client never answers
  one from its own memory. Retry
  rounds sleep a capped exponential backoff with jitter drawn from an
  injectable RNG (``ServiceClient(rng=...)``), so retry timing is
  deterministic under test.
  :meth:`ServiceClient.register_batch` / :meth:`~ServiceClient.locate_batch`
  amortize one round-trip over N operations -- safe because LHAgent
  lazy refresh already tolerates staleness -- and fall back to the
  single-op saga for any item the batch could not settle.
  Multi-result discovery queries
  (:meth:`~ServiceClient.discover_similar` /
  :meth:`~ServiceClient.discover_capability` and their batched forms)
  fan one query out to every candidate IAgent and merge, where a single
  stale candidate invalidates the whole round -- the merged set must
  come from one view of the hash tree (see
  :mod:`repro.discovery`). All four batch forms share one fan-out,
  :meth:`ServiceClient._batch`.

Between the two sits the hostile-network resilience stack (see
``docs/PROTOCOLS.md`` §14): every RPC runs under an adaptive
Jacobson/Karels timeout (:class:`RttEstimator`) clamped to the
remaining per-operation deadline, and -- for idempotent reads --
hands the transport a hedge delay and a duplicate budget, so the
request may race a duplicate on the peer's hedge connection once the
primary looks tail-slow.

The saga does the protocol accounting (retries, refreshes, bounces) on
either driver's counters, so the live smoke run reports the simulator's
vocabulary; this driver adds hedges and hedge wins.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.hash_function import SecondaryCopies
from repro.core.iagent_state import OK
from repro.core.requester import discover_saga, request_saga
from repro.discovery.hamming import merge_matches, shards_within
from repro.metrics.trace import Tracer
from repro.platform.naming import AgentId, prefix_bits
from repro.service import wire
from repro.service.netem import NetemController
from repro.service.routing import WRONG_SHARD, shard_of
from repro.service.transport import (
    Address,
    RemoteOpError,
    ServiceError,
    ServiceRpcError,
    ServiceTimeout,
    _Connection,
    dial,
    format_addr,
)

__all__ = [
    "AGENT_NOT_FOUND",
    "NOT_PRIMARY",
    "STALE_EPOCH",
    "WRONG_SHARD",
    "ClientConfig",
    "ClientCounters",
    "RemoteOpError",
    "RpcChannel",
    "RttEstimator",
    "ServiceClient",
    "ServiceError",
    "ServiceLocateError",
    "ServiceRpcError",
    "ServiceTimeout",
    "format_addr",
]

#: Error code a node server replies with when the addressed agent does
#: not live there (crashed, retired or moved) -- the live analogue of
#: :class:`repro.platform.messages.AgentNotFound`.
AGENT_NOT_FOUND = "agent-not-found"

#: Error code a node's epoch fence replies with when a deposed primary
#: tries to serialize a rehash operation (see
#: :mod:`repro.service.replication`).
STALE_EPOCH = "stale-epoch"

#: Error code a standby HAgent replica replies with when asked to do
#: primary-only work (register-node, bootstrap, rehash serialization).
NOT_PRIMARY = "not-primary"

#: IAgent ops that may race a hedged duplicate: the idempotent reads.
_HEDGED_OPS = frozenset({"locate", "discover-similar", "discover-capability"})

#: Rows per id-table RPC (``register-batch``, ``locate-batch``), picked
#: by a sweep of the 20 000-agent bulk registration (docs/REPORT.md).
BATCH_ROWS = 512

#: Queries per ``discover-*-batch`` RPC.
QUERY_BATCH = 64

#: First backoff sleep between retry rounds (s); doubles each round.
BACKOFF_BASE = 0.05

#: Backoff ceiling (s).
BACKOFF_CAP = 0.5

#: Jitter fraction of a backoff sleep: each is drawn uniformly from
#: ``[delay * (1 - BACKOFF_JITTER), delay]``.
BACKOFF_JITTER = 0.5

#: Lower clamp of the adaptive per-RPC timeout, seconds.
TIMEOUT_FLOOR = 0.25

#: At most this fraction of hedge-eligible calls may spawn a duplicate.
#: Caps the tail-at-scale failure mode where load-induced queueing
#: pushes every RTT past the hedge delay and the duplicates themselves
#: become the overload. Leaves headroom for ~10% per-RPC failure (5%
#: frame loss, two frames per round trip) with jitter tails on top.
HEDGE_BUDGET = 0.2

#: Hedge delay floor, seconds -- on a clean LAN the hedge delay is
#: clamped up to this so near-instant replies never spawn duplicates.
HEDGE_DELAY_FLOOR = 0.05


class ServiceLocateError(ServiceError):
    """A locate exhausted its retry budget without an answer."""


class RttEstimator:
    """Jacobson/Karels adaptive RPC timeout (the RFC 6298 shape).

    ``srtt`` is an EWMA of observed RTTs, ``rttvar`` an EWMA of their
    deviation; the retransmission-style timeout is
    ``srtt + 4 * rttvar`` clamped to ``[floor, cap]``. Pure and
    deterministic: the state after ``observe(s1..sn)`` is a function of
    the samples alone, which the hypothesis tests pin.
    """

    def __init__(
        self,
        floor: float = TIMEOUT_FLOOR,
        cap: float = 2.0,
        alpha: float = 0.125,
        beta: float = 0.25,
    ) -> None:
        self.floor = floor
        self.cap = cap
        self.alpha = alpha
        self.beta = beta
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.samples = 0

    def observe(self, sample: float) -> None:
        """Feed one measured round-trip time (seconds)."""
        sample = max(0.0, sample)
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar += self.beta * (abs(self.srtt - sample) - self.rttvar)
            self.srtt += self.alpha * (sample - self.srtt)
        self.samples += 1

    def timeout(self) -> float:
        """The adaptive per-RPC timeout; ``cap`` until the first sample."""
        if self.srtt is None:
            return self.cap
        return min(self.cap, max(self.floor, self.srtt + 4.0 * self.rttvar))

    def hedge_delay(self) -> float:
        """How long to wait before hedging an idempotent read.

        ``srtt + 2 * rttvar`` sits near the ~p95 of a well-behaved RTT
        distribution (the timeout's ``4 * rttvar`` sits past the max of
        a bounded-jitter one and would almost never hedge), so a hedge
        fires only for replies already in the distribution's tail --
        the duplicate-load cost stays a few percent.
        """
        if self.srtt is None:
            return self.cap
        return min(self.cap, self.srtt + 2.0 * self.rttvar)


@dataclass(frozen=True)
class ClientConfig:
    """Tunables of the client's timeout/backoff/retry behaviour."""

    #: Per-RPC deadline (connect + send + receive), seconds: the cap of
    #: the adaptive Jacobson-style timeout, ``srtt + 4 * rttvar``
    #: clamped to ``[TIMEOUT_FLOOR, rpc_timeout]`` once an endpoint has
    #: RTT samples. Lost frames on a hostile link are then detected in a
    #: few observed RTTs instead of a full fixed timeout.
    rpc_timeout: float = 2.0

    #: Retry rounds per protocol operation before giving up.
    max_retries: int = 40

    #: Overall per-operation deadline (seconds); bounds the retry loop
    #: even when rounds remain.
    op_deadline: float = 20.0

    #: Hedge idempotent reads (locate, discovery fan-out): when the
    #: primary reply is slower than the endpoint's p95-derived hedge
    #: delay, a duplicate request races it and the first reply wins.
    hedge: bool = True

    #: Wire-level fault injection: when set, every connection this
    #: client dials is shimmed through the controller.
    netem: Optional[NetemController] = None


@dataclass
class ClientCounters:
    """Protocol accounting, one instance per client."""

    ops: int = 0
    locates: int = 0
    registers: int = 0
    updates: int = 0
    unregisters: int = 0
    locate_failures: int = 0
    #: Total recovery rounds across all operations.
    retries: int = 0
    #: Secondary-copy refreshes requested from the LHAgent.
    refreshes: int = 0
    #: ``not-responsible`` bounces (the stale-copy signal, §4.3).
    not_responsible: int = 0
    #: Locate rounds spent waiting out ``no-record``.
    no_record_retries: int = 0
    #: Rounds retried due to transport failures (timeouts, resets,
    #: vanished agents).
    transport_retries: int = 0
    #: ``wrong-shard`` bounces: the resolved route predated a shard-map
    #: change (cross-shard absorption) and had to be re-resolved.
    wrong_shard_retries: int = 0
    #: Batched RPCs sent (each amortizes one round-trip over N items).
    batch_rpcs: int = 0
    #: Items settled directly by a batched RPC (no single-op fallback).
    batched_ops: int = 0
    #: Hamming-similarity discovery queries issued.
    discover_similars: int = 0
    #: Capability discovery queries issued.
    discover_capabilities: int = 0
    #: Discovery rounds recomputed because a candidate bounced -- the
    #: multi-result analogue of ``not_responsible``: one stale candidate
    #: invalidates the whole set (the merged result must come from a
    #: single tree view).
    discovery_retries: int = 0
    #: Backoff sleeps actually taken (round 0 is free, so this counts
    #: rounds that paid a delay).
    backoff_sleeps: int = 0
    #: Hedged duplicate reads fired (primary slower than hedge delay).
    hedges: int = 0
    #: Hedges whose duplicate answered before the primary.
    hedge_wins: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))

    def merge(self, other: "ClientCounters") -> None:
        for name, value in vars(other).items():
            self.bump(name, value)

    def bump(self, name: str, amount: int = 1) -> None:
        setattr(self, name, getattr(self, name) + amount)


class RpcChannel:
    """Pipelined framed connections, two per peer address: the regular
    one every call rides, and the hedge one only hedged duplicates ride.

    Frames on one connection are delivered in order, so a duplicate on
    its primary's connection would queue behind the slow primary and
    could never answer first; the hedge connection is kept apart by
    construction -- its own map -- so no regular call ever rides it.
    """

    def __init__(
        self,
        rpc_timeout: float = 2.0,
        tracer: Optional[Tracer] = None,
        netem: Optional[NetemController] = None,
    ) -> None:
        self.rpc_timeout = rpc_timeout
        self.tracer = tracer
        self.netem = netem
        #: What every connection's socket reads land in; each read is
        #: decoded before the next, so one buffer serves them all.
        self.recv_buffer = bytearray(wire.RECV_BUFFER_SIZE)
        #: address -> the connection every call pipelines on.
        self._conns: Dict[Address, _Connection] = {}
        #: address -> the connection only hedged duplicates ride.
        self._hedge_conns: Dict[Address, _Connection] = {}
        self._open_locks: Dict[Address, asyncio.Lock] = {}
        #: Set by :meth:`close`: no connection is dialed or kept after.
        self.closed = False

    def call(
        self,
        addr: Address,
        to: Any,
        op: str,
        body: Any = None,
        timeout: Optional[float] = None,
        hedge: Optional[Tuple[float, Any]] = None,
    ) -> "asyncio.Future[Any]":
        """One RPC: await the result for the reply value or a service error.

        With the peer's connection open the request is on the wire
        before this returns and the result is a plain future; only a
        miss (no connection yet, or a closed one) spawns a task, to dial.

        ``hedge=(delay, hedger)`` makes the call a hedged read (only an
        idempotent op may be one): with no reply ``delay`` seconds after
        the request is written, its record asks ``hedger.admit_hedge()``
        and, if admitted, sends a duplicate on the hedge connection. The
        first success settles the call (``hedger.hedge_won()`` is told
        when it is the duplicate's), a failure only once both attempts
        have failed, and both share the one ``timeout``.
        """
        timeout = self.rpc_timeout if timeout is None else timeout
        loop = asyncio.get_running_loop()
        conn = self._conns.get(addr)
        if conn is None or conn.closed:
            return loop.create_task(self._call_after_open(addr, to, op, body, timeout, hedge))
        return conn.request(loop.time(), to, op, body, timeout, hedge)

    async def _call_after_open(
        self,
        addr: Address,
        to: Any,
        op: str,
        body: Any,
        timeout: float,
        hedge: Optional[Tuple[float, Any]],
    ) -> Any:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        try:
            conn = await asyncio.wait_for(self._open(self._conns, addr, op), timeout)
        except asyncio.TimeoutError:
            message = f"{op} to {format_addr(addr)} timed out connecting"
            self._trace(op, addr, f"timeout: {message}")
            raise ServiceTimeout(message, op=op, addr=addr)
        except ServiceRpcError as error:
            self._trace(op, addr, f"transport-error: {error}")
            raise
        now = loop.time()
        return await conn.request(now, to, op, body, max(0.001, deadline - now), hedge)

    def _send_duplicate(self, addr: Address, rpc: _Rpc, to: Any, body: Any) -> None:
        """Send ``rpc``'s hedged duplicate on the hedge connection.
        Dialing that connection is the one thing on an open call's path
        that takes a task; while it dials, the task stands in
        ``rpc.out`` for the attempt it is about to send."""
        conn = self._hedge_conns.get(addr)
        if conn is not None and not conn.closed:
            conn.send(rpc, to, body)
        else:
            dial = asyncio.get_running_loop().create_task(
                self._duplicate_after_open(addr, rpc, to, body)
            )
            rpc.out[dial] = None

    async def _duplicate_after_open(
        self, addr: Address, rpc: _Rpc, to: Any, body: Any
    ) -> None:
        dial = asyncio.current_task()
        try:
            # Bounded by the record's deadline: expiry drops (cancels) us.
            conn = await self._open(self._hedge_conns, addr, rpc.op)
        except ServiceRpcError as error:
            self._trace(rpc.op, addr, f"transport-error: {error}")
            del rpc.out[dial]
            rpc.fail(error)
            return
        del rpc.out[dial]
        if not rpc.future.done():  # else the caller was cancelled meanwhile
            conn.send(rpc, to, body)

    async def _open(
        self, conns: Dict[Address, _Connection], addr: Address, op: str
    ) -> _Connection:
        """``conns``' connection to ``addr``, dialed under the address's
        lock unless another caller got there first. A closed channel
        dials nothing, and closes a connection whose dial outlived it."""
        async with self._open_locks.setdefault(addr, asyncio.Lock()):
            conn = conns.get(addr)
            if conn is not None and not conn.closed:
                return conn
            if not self.closed:
                try:
                    _, conn = await dial(addr, lambda: _Connection(self, addr))
                except (ConnectionError, OSError) as error:
                    raise ServiceRpcError(
                        f"{op} to {format_addr(addr)} failed: {error}",
                        op=op,
                        addr=addr,
                        refused=isinstance(error, ConnectionRefusedError),
                    ) from error
                if not self.closed:  # close() may have run while this dialed
                    conns[addr] = conn
                    return conn
                conn.close("channel closed")
            raise ServiceRpcError(
                f"{op} to {format_addr(addr)} failed: channel closed", op=op, addr=addr
            )

    async def close(self) -> None:
        """Close every connection; the channel dials none after this."""
        self.closed = True
        conns = [*self._conns.values(), *self._hedge_conns.values()]
        self._conns.clear()
        self._hedge_conns.clear()
        for conn in conns:
            conn.close()
        await asyncio.sleep(0)  # the aborted transports drop their sockets

    def _trace(self, op: str, addr: Address, outcome: str) -> None:
        if self.tracer is not None:
            self.tracer.record_now(
                "rpc-client", op=op, addr=f"{addr[0]}:{addr[1]}", outcome=outcome
            )


def _group_key(mapping: Dict) -> Optional[Tuple]:
    """A batch group's key: the IAgent at its address (None: no address)."""
    addr = mapping["addr"]
    return None if addr is None else (tuple(addr), mapping["iagent"])


class ServiceClient:
    """A node-local protocol client (one per requesting node)."""

    def __init__(
        self,
        node: str,
        lhagent_addr: Address,
        config: Optional[ClientConfig] = None,
        channel: Optional[RpcChannel] = None,
        rng: Optional[random.Random] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.node = node
        self.lhagent_addr = lhagent_addr
        self.config = config or ClientConfig()
        self.channel = channel or RpcChannel(
            rpc_timeout=self.config.rpc_timeout, tracer=tracer, netem=self.config.netem
        )
        self.rng = rng or random.Random()
        self.counters = ClientCounters()
        #: Per-endpoint adaptive RTT state driving timeouts and hedges.
        self._rtts: Dict[Address, RttEstimator] = {}
        #: Hedge-eligible calls seen; the denominator of the hedge budget.
        self._hedge_eligible = 0
        #: This requester's own secondary copies, one per shard, fed by
        #: the node's LHAgent -- what *resolve* and *candidates* answer from.
        self._held = SecondaryCopies()
        #: The deployment's shard count, as the LHAgent's replies state it.
        self._shards = 1

    # ------------------------------------------------------------------
    # Resilience plumbing: adaptive timeouts, hedged reads
    # ------------------------------------------------------------------

    def _rtt_for(self, addr: Address) -> RttEstimator:
        estimator = self._rtts.get(addr)
        if estimator is None:
            estimator = self._rtts[addr] = RttEstimator(cap=self.config.rpc_timeout)
        return estimator

    def _send(
        self,
        addr: Address,
        rtt: RttEstimator,
        to: Any,
        op: str,
        body: Any,
        deadline: Optional[float],
        start: float,
        hedge: bool,
    ) -> "asyncio.Future[Any]":
        """Put one RPC to ``addr`` on the wire through the resilience
        stack; the caller awaits the result and feeds ``rtt`` the round
        trip.

        The timeout is ``rtt``'s adaptive estimate (capped at
        ``rpc_timeout``) clamped to what is left of the op deadline at
        ``start``; a spent deadline raises :class:`ServiceTimeout`. An
        idempotent read (``hedge``) also hands down the endpoint's
        p95-derived hedge delay, with this client as the hedger: the
        request's own record does the hedging, so a read answered inside
        its delay costs what an unhedged call costs.
        """
        timeout = rtt.timeout()
        if deadline is not None:
            remaining = deadline - start
            if remaining <= 0:
                raise ServiceTimeout(
                    f"{op} to {format_addr(addr)}: op deadline exhausted",
                    op=op,
                    addr=addr,
                )
            timeout = min(timeout, remaining)
        call_hedge = None
        if hedge and self.config.hedge:
            self._hedge_eligible += 1
            call_hedge = (max(HEDGE_DELAY_FLOOR, rtt.hedge_delay()), self)
        return self.channel.call(addr, to, op, body, timeout=timeout, hedge=call_hedge)

    async def _call(
        self,
        addr: Address,
        to: Any,
        op: str,
        body: Any = None,
        deadline: Optional[float] = None,
        hedge: bool = False,
    ) -> Any:
        """One RPC through the resilience stack (:meth:`_send`). Round
        trips that came back -- remote *op* errors included, which prove
        the transport -- feed the endpoint's RTT estimator."""
        addr = tuple(addr)  # type: ignore[assignment]
        loop = asyncio.get_running_loop()
        start = loop.time()
        rtt = self._rtt_for(addr)
        try:
            value = await self._send(addr, rtt, to, op, body, deadline, start, hedge)
        except RemoteOpError:
            rtt.observe(loop.time() - start)
            raise
        rtt.observe(loop.time() - start)
        return value

    def admit_hedge(self) -> bool:
        """The request record's question when a read's hedge delay has
        passed with no reply: may it send a duplicate? A budget caps
        duplicates at ``HEDGE_BUDGET`` of the hedge-eligible calls so
        load-induced queueing cannot amplify itself."""
        budget = HEDGE_BUDGET * max(20.0, float(self._hedge_eligible))
        if self.counters.hedges >= budget:
            return False
        self.counters.hedges += 1
        return True

    def hedge_won(self) -> None:
        """Told by the request record when a duplicate answered first."""
        self.counters.hedge_wins += 1

    # ------------------------------------------------------------------
    # Protocol operations
    # ------------------------------------------------------------------

    async def register(
        self,
        agent_id: AgentId,
        node: str,
        seq: int = 0,
        capabilities: Optional[Dict] = None,
    ) -> None:
        self.counters.registers += 1
        await self._update_op("register", agent_id, node, seq, capabilities)

    async def update(self, agent_id: AgentId, node: str, seq: int) -> None:
        self.counters.updates += 1
        await self._update_op("update", agent_id, node, seq)

    async def unregister(self, agent_id: AgentId, seq: int) -> None:
        self.counters.unregisters += 1
        reply = await self._iagent_request(
            agent_id, "unregister", {"agent": agent_id, "seq": seq}
        )
        if reply.get("status") != "ok":
            raise ServiceError(f"unregister {agent_id} failed: {reply.get('status')}")

    async def locate(self, agent_id: AgentId) -> str:
        """Resolve an agent to its current node name, as the responsible
        IAgent answers it; raises :class:`ServiceLocateError` once the
        retries or the op deadline are spent."""
        self.counters.locates += 1
        return await self._locate_resolved(agent_id)

    async def register_batch(self, items: Sequence[Tuple]) -> None:
        """Publish many ``(agent, node, seq[, capabilities])`` records.

        Every agent is resolved against the local copy, then one
        ``register-batch`` RPC per responsible IAgent (chunked at
        ``BATCH_ROWS``) carries the records -- one round-trip
        amortized over N updates. Safe under staleness: per-agent
        sequence numbers make late or replayed publishes harmless, and
        any item the batch cannot settle (unresolved mapping, bounce,
        transport failure) falls back to the single-op §4.3 recovery
        loop. A fourth tuple element, when present, is the agent's typed
        capability set and registers atomically with the record.
        """
        if not items:
            return
        self.counters.registers += len(items)
        # One op deadline bounds the whole batch -- including every
        # single-op fallback -- so repeated transport faults cannot
        # stretch a batch to N times the configured budget.
        deadline = asyncio.get_running_loop().time() + self.config.op_deadline
        groups = await self._group_by_iagent([item[0] for item in items], deadline)

        def body(_: Dict, chunk: List[int]) -> Dict:
            rows = [items[index] for index in chunk]
            records = {row[0]: [row[1], row[2]] for row in rows}
            capabilities = {
                row[0]: row[3] for row in rows if len(row) > 3 and row[3] is not None
            }
            if capabilities:
                return {"records": records, "capabilities": capabilities}
            return {"records": records}

        def read(chunk: List[int], reply: Dict) -> List[int]:
            bounced = set(reply["bounced"])
            if not bounced:
                return []
            return [index for index in chunk if items[index][0] in bounced]

        fallback = await self._batch(
            "register-batch", groups, body, read, deadline, BATCH_ROWS
        )
        for index in fallback:
            await self._update_op("register", *items[index], deadline=deadline)

    async def locate_batch(
        self, agent_ids: Sequence[AgentId]
    ) -> Dict[AgentId, str]:
        """Resolve many agents to node names; the bulk locate hot path.

        Same shape as :meth:`register_batch`: a local resolve, then one
        ``locate-batch`` per IAgent chunk, with per-item fallback to
        :meth:`locate`'s retry loop. Raises
        :class:`ServiceLocateError` if any agent is unlocatable, like
        the single-op form.
        """
        agents = list(agent_ids)
        if not agents:
            return {}
        self.counters.locates += len(agents)
        deadline = asyncio.get_running_loop().time() + self.config.op_deadline
        groups = await self._group_by_iagent(agents, deadline)
        results: Dict[AgentId, str] = {}

        def read(chunk: List[int], reply: Dict) -> List[int]:
            records = reply["records"]
            unanswered = []
            for index in chunk:
                record = records.get(agents[index])
                if record is None:
                    unanswered.append(index)
                else:
                    results[agents[index]] = record[0]
            return unanswered

        fallback = await self._batch(
            "locate-batch",
            groups,
            lambda _, chunk: {"agents": [agents[i] for i in chunk]},
            read,
            deadline,
            BATCH_ROWS,
        )
        for index in fallback:
            results[agents[index]] = await self._locate_resolved(agents[index], deadline)
        return results

    # ------------------------------------------------------------------
    # Discovery: multi-result queries over the hash tree
    # ------------------------------------------------------------------

    async def set_capabilities(
        self, agent_id: AgentId, capabilities: Optional[Dict]
    ) -> None:
        """Publish (or with ``None`` clear) an agent's capability set."""
        reply = await self._iagent_request(
            agent_id,
            "set-capabilities",
            {"agent": agent_id, "capabilities": capabilities},
            tolerate_no_record=True,
        )
        if reply.get("status") != "ok":
            raise ServiceError(
                f"set-capabilities {agent_id} failed: {reply.get('status')}"
            )

    async def discover_similar(self, agent_id: AgentId, d: int) -> List[Dict]:
        """Every registered agent within Hamming distance ``d`` of
        ``agent_id`` (the query id itself excluded), as
        ``{"agent", "node", "seq", "distance"}`` matches sorted by
        ``(distance, agent)``.
        """
        self.counters.discover_similars += 1
        return await self._discover("discover-similar", {"agent": agent_id, "d": d})

    async def discover_capability(self, predicate: Dict) -> List[Dict]:
        """Every registered agent whose capability set satisfies
        ``predicate``, as ``{"agent", "node", "seq", "capabilities"}``
        matches.
        """
        self.counters.discover_capabilities += 1
        return await self._discover("discover-capability", {"predicate": predicate})

    async def discover_similar_batch(
        self, queries: Sequence[Tuple[AgentId, int]]
    ) -> List[List[Dict]]:
        """Run many ``(agent, d)`` similarity queries in bulk.

        One candidate round over the local copies names every IAgent,
        then each answers every query through ``discover-similar-batch``
        RPCs (``QUERY_BATCH`` queries each) -- the per-query shard pruning
        of the single-op path is traded for round-trip amortization;
        correctness is unchanged because each IAgent's exact filter
        already drops everything outside the ball.
        Any query a batch round cannot settle (bounce, transport
        failure) falls back to the single-op §4.3 loop.
        """
        queries = list(queries)
        self.counters.discover_similars += len(queries)
        bodies = [{"agent": agent, "d": d} for agent, d in queries]
        return await self._discover_batch("discover-similar", bodies)

    async def discover_capability_batch(
        self, predicates: Sequence[Dict]
    ) -> List[List[Dict]]:
        """Run many capability queries in bulk; same shape as
        :meth:`discover_similar_batch`.
        """
        bodies = [{"predicate": predicate} for predicate in predicates]
        self.counters.discover_capabilities += len(bodies)
        return await self._discover_batch("discover-capability", bodies)

    async def close(self) -> None:
        await self.channel.close()

    # ------------------------------------------------------------------
    # Batch plumbing: one fan-out for every batch form
    # ------------------------------------------------------------------

    async def _group_by_iagent(
        self, agents: List[AgentId], deadline: float
    ) -> List[Tuple[Optional[Dict], List[int]]]:
        """:meth:`_batch` groups: each agent index under the IAgent its
        local resolve names, read straight off the held copies' trees
        (one mapping per copy and owner, not per agent); only a missing
        copy costs an await (the pull). Once a pull fails, every
        remaining index is left unaddressed for the single-op fallback,
        which owns recovery.

        A batch carries each agent once (its rows are an id table), so
        an agent named again goes in a later group for the same IAgent:
        its chunk is sent after the earlier one on the same connection,
        and the IAgent applies the two in call order.
        """
        held = self._held
        groups: Dict[Any, Tuple[Optional[Dict], List[int]]] = {}
        repeats: Optional[Dict[AgentId, int]] = None
        if len(set(agents)) < len(agents):
            repeats = {}
        # (shard, owner) -> (mapping, group key); a pull can change the
        # shard count, a copy or an address, so it starts both afresh.
        known: Dict[Tuple[int, Any], Tuple[Dict, Any]] = {}
        bits = prefix_bits(self._shards)
        for index, agent in enumerate(agents):
            value, width = agent
            spare = width - bits
            shard = value >> spare if spare >= 0 else value << -spare
            copy = held.copies.get(shard)
            if copy is not None:
                owner = copy.tree.lookup_id(agent)
                cached = known.get((shard, owner))
                if cached is None:
                    mapping = held.mapping(copy, owner)
                    cached = known[shard, owner] = mapping, _group_key(mapping)
                mapping, key = cached
            else:
                mapping = await self._whois(agent, deadline)
                known.clear()
                bits = prefix_bits(self._shards)
                if mapping is None:
                    unaddressed = range(index, len(agents))
                    groups.setdefault(None, (None, []))[1].extend(unaddressed)
                    break
                key = _group_key(mapping)
            if key is not None and repeats is not None:
                repeat = repeats[agent] = repeats.get(agent, -1) + 1
                key = (key, repeat)
            group = groups.get(key)
            if group is None:
                group = groups[key] = (mapping, [])
            group[1].append(index)
        return list(groups.values())

    async def _batch(
        self,
        op: str,
        groups: List[Tuple[Optional[Dict], List[int]]],
        body: Callable[[Dict, List[int]], Dict],
        read: Callable[[List[int], Dict], List[int]],
        deadline: float,
        size: int,
    ) -> List[int]:
        """Each group ``(mapping, indices)`` to the IAgent a resolve or a
        candidate names, ``size`` items per ``op`` RPC (``body(mapping,
        chunk)``), all chunks at once, in group order; ``read(chunk,
        reply)`` takes what a reply answered ``ok`` and returns the rest
        of the chunk. Returns, sorted, the indices to fall back on:
        unaddressed, in a failed RPC, or not answered ``ok``. Each item
        counts as one op here only when the batch settled it; the
        fallback's single op counts the others.
        """

        async def send(mapping: Optional[Dict], chunk: List[int]) -> List[int]:
            if mapping is None or mapping.get("addr") is None:
                return chunk
            try:
                reply = await self._call(
                    mapping["addr"], mapping["iagent"], op, body(mapping, chunk),
                    deadline=deadline,
                )
            except (ServiceRpcError, RemoteOpError):
                return chunk
            self.counters.batch_rpcs += 1
            return read(chunk, reply)

        chunks = [
            send(mapping, indices[start : start + size])
            for mapping, indices in groups
            for start in range(0, len(indices), size)
        ]
        failed = sorted({index for bad in await asyncio.gather(*chunks) for index in bad})
        asked = {index for _, indices in groups for index in indices}
        settled = len(asked) - len(failed)
        self.counters.batched_ops += settled
        self.counters.ops += settled
        return failed

    # ------------------------------------------------------------------
    # Discovery plumbing: the multi-result saga, and the batched round
    # ------------------------------------------------------------------

    async def _discover(
        self, op: str, body: Dict, deadline: Optional[float] = None
    ) -> List[Dict]:
        """One multi-result query: :func:`discover_saga` over the wire.

        A candidate set computed from a stale secondary copy can
        silently miss a leaf that split away, so the saga voids the
        round on any bounce and the retry names the voided round's
        ``[shard, version]`` pairs as ``stale``.
        """
        self.counters.ops += 1
        saga = discover_saga(self.counters, self.config.max_retries, op, body)
        reply = await self._drive(saga, deadline)
        if reply.get("status") != "ok":
            raise ServiceLocateError(
                f"{op} exhausted its retry budget: {reply.get('status')}"
            )
        return reply["matches"]

    async def _discover_batch(self, op: str, bodies: List[Dict]) -> List[List[Dict]]:
        """Every query to every candidate IAgent in one batched round, then
        the single-op saga for each query some candidate did not answer
        ``ok`` -- all inside one op deadline."""
        if not bodies:
            return []
        deadline = asyncio.get_running_loop().time() + self.config.op_deadline
        partials: List[List[List[Dict]]] = [[] for _ in bodies]
        everyone = list(range(len(bodies)))
        found = await self._candidates(None, None, None, deadline)

        def read(chunk: List[int], reply: Dict) -> List[int]:
            results = reply.get("results", [])
            bad = chunk[len(results) :]
            for index, result in zip(chunk, results):
                if isinstance(result, dict) and result.get("status") == "ok":
                    partials[index].append(result.get("matches", []))
                else:
                    bad.append(index)
            return bad

        fallback = await self._batch(
            op + "-batch",
            [(cand, everyone) for cand in found[0]] if found else [(None, everyone)],
            lambda cand, chunk: {"ops": [dict(bodies[i], pattern=cand["pattern"]) for i in chunk]},
            read,
            deadline,
            QUERY_BATCH,
        )
        merged = [merge_matches(partial) for partial in partials]
        for index in fallback:
            merged[index] = await self._discover(op, bodies[index], deadline)
        return merged

    # ------------------------------------------------------------------
    # The requester sagas of repro.core.requester, over the wire
    # ------------------------------------------------------------------

    async def _locate_resolved(
        self, agent_id: AgentId, deadline: Optional[float] = None
    ) -> str:
        reply = await self._iagent_request(
            agent_id,
            "locate",
            {"agent": agent_id},
            tolerate_no_record=True,
            deadline=deadline,
        )
        if reply.get("status") != "ok":
            self.counters.locate_failures += 1
            raise ServiceLocateError(
                f"could not locate {agent_id}: {reply.get('status')}"
            )
        return reply["node"]

    async def _update_op(
        self,
        op: str,
        agent_id: AgentId,
        node: str,
        seq: int,
        capabilities: Optional[Dict] = None,
        deadline: Optional[float] = None,
    ) -> None:
        body = {"agent": agent_id, "node": node, "seq": seq}
        if capabilities is not None:
            body["capabilities"] = capabilities
        reply = await self._iagent_request(agent_id, op, body, deadline=deadline)
        if reply.get("status") != "ok":
            raise ServiceError(f"{op} for {agent_id} failed: {reply.get('status')}")

    async def _iagent_request(
        self,
        agent_id: AgentId,
        op: str,
        body: Dict,
        tolerate_no_record: bool = False,
        deadline: Optional[float] = None,
    ) -> Dict:
        """One single-record op: :func:`request_saga`'s first round
        inline, the saga itself only to recover.

        The round is the saga's first *resolve* and *ask*: the IAgent the
        held copy names, asked through the resilience stack. An ``ok``
        answer is the op's. No copy of the shard, no address for the
        IAgent, a failed hop or any other answer builds the saga, fed the
        mapping this round asked with and the reply it drew, so recovery
        is the saga's alone and counted as the simulator counts it.
        """
        self.counters.ops += 1
        loop = asyncio.get_running_loop()
        start = loop.time()
        if deadline is None:
            deadline = start + self.config.op_deadline
        held = self._held
        copy = held.copies.get(shard_of(agent_id, self._shards))
        mapping = reply = None
        if copy is not None:
            owner = copy.tree.lookup_id(agent_id)
            node = copy.iagent_nodes.get(owner)
            addr = held.node_addrs.get(node)
            version = copy.version  # a pull during the ask may move the copy on
            if addr is not None:
                rtt = self._rtt_for(addr)
                try:
                    reply = await self._send(
                        addr, rtt, owner, op, body, deadline, start, op in _HEDGED_OPS
                    )
                except RemoteOpError as error:
                    rtt.observe(loop.time() - start)
                    self._unanswered(error)
                except ServiceRpcError:
                    self.counters.transport_retries += 1
                else:
                    rtt.observe(loop.time() - start)
                    if reply.get("status") == OK:
                        return reply
            mapping = {
                "iagent": owner,
                "node": node,
                "addr": None if addr is None else list(addr),
                "version": version,
            }
        saga = request_saga(
            self.counters, self.config.max_retries, agent_id, op, body, tolerate_no_record
        )
        if mapping is not None:
            saga.send(None)  # its first resolve, answered with this round's mapping
            try:
                saga.send(mapping)  # its first ask, answered by _drive with the reply
            except StopIteration as done:  # a budget of no rounds asks nothing
                return done.value
        return await self._drive(saga, deadline, reply)

    async def _drive(
        self, saga: Any, deadline: Optional[float] = None, reply: Any = None
    ) -> Dict:
        """Step a requester saga over the wire, inside one op deadline;
        ``reply`` answers the request it last yielded, when the caller
        stepped it that far.

        Every hop goes through :meth:`_call`; a *pause* sleeps the
        jittered backoff and answers whether any deadline is left.
        """
        loop = asyncio.get_running_loop()
        if deadline is None:
            deadline = loop.time() + self.config.op_deadline
        while True:
            try:
                kind, *args = saga.send(reply)
            except StopIteration as done:
                return done.value
            if kind == "resolve":
                agent, stale = args
                reply = await self._whois(agent, deadline, stale)
            elif kind == "ask":
                reply = await self._ask(*args, deadline)
            elif kind == "pause":
                await self._sleep(args[0], deadline)
                reply = loop.time() < deadline
            elif kind == "candidates":
                reply = await self._candidates(*args, deadline)
            else:  # "fan-out": every candidate at once
                op, candidates, bodies = args
                reply = await asyncio.gather(
                    *(
                        self._ask(cand, op, item, deadline)
                        for cand, item in zip(candidates, bodies)
                    ),
                    return_exceptions=True,
                )
                for item in reply:
                    if isinstance(item, BaseException):
                        raise item

    async def _whois(
        self,
        agent_id: AgentId,
        deadline: Optional[float] = None,
        stale_version: Optional[int] = None,
    ) -> Optional[Dict]:
        """The *resolve* hop, answered from this requester's own copy.

        The paper's LHAgent is co-resident with the requester (§2.2), so
        resolving costs no network hop. The copy is pulled forward
        (:meth:`_pull`) only with no copy of the agent's shard yet, or
        when the saga names a ``stale_version`` the copy does not exceed.
        """
        held = self._held
        mapping = held.resolve(shard_of(agent_id, self._shards), agent_id)
        if mapping is not None and (stale_version is None or mapping["version"] > stale_version):
            return mapping
        if not held.origins and not await self._pull(0, None, deadline):
            return None  # the first pull states the shard count ids are keyed by
        shard = shard_of(agent_id, self._shards)
        if not await self._pull(shard, stale_version, deadline):
            return None
        return held.resolve(shard, agent_id)

    async def _candidates(
        self,
        agent: Optional[AgentId],
        d: Optional[int],
        stale: Optional[List[List[int]]],
        deadline: Optional[float],
    ) -> Optional[Tuple[List[Dict], List[List[int]]]]:
        """The *candidates* hop, answered from this requester's own copies
        like *resolve*: every IAgent of the shards that can still reach
        the Hamming ball (all shards for a capability query), once each
        -- a cross-shard merge makes two shards' copies one function --
        and ``[shard, version]`` per copy, each pulled past its version
        in ``stale`` first. ``None`` when a pull went unserved.
        """
        held = self._held
        if not held.origins and not await self._pull(0, None, deadline):
            return None  # the first pull states the shard count
        wanted = list(range(self._shards))
        if agent is not None and d is not None:
            wanted = shards_within(agent, d, self._shards)
        past = {shard: version for shard, version in stale or ()}
        candidates: List[Dict] = []
        versions: List[List[int]] = []
        seen: Set[Any] = set()
        for shard in wanted:
            if not await self._pull(shard, past.get(shard), deadline):
                return None
            copy = held.copies[shard]  # read before the next await can drop it
            versions.append([shard, copy.version])
            for cand in copy.candidates(agent, d):
                if cand["iagent"] not in seen:
                    seen.add(cand["iagent"])
                    addr = held.node_addrs.get(cand["node"])
                    cand["addr"] = list(addr) if addr is not None else None
                    candidates.append(cand)
        return candidates, versions

    async def _pull(self, shard: int, past: Optional[int], deadline: Optional[float]) -> bool:
        """Bring the copy of ``shard`` past version ``past`` (``None``: any
        copy) by ``get-hash-delta`` at the node's LHAgent, which refreshes
        its own first when that is no newer. False when the LHAgent could
        not answer (transport failure, or an error envelope: its fetch of
        the primary copy failed), so the saga backs off and retries.
        """
        held = self._held
        for _ in range(2):  # one more after a delta that did not fit
            copy = held.copies.get(shard)
            if copy is not None and (past is None or copy.version > past):
                return True
            try:
                # Hedging the pull is safe: it changes nothing at the
                # LHAgent, which coalesces concurrent fetches for a shard
                # into one flight, so the duplicate joins the primary's.
                reply = await self._call(
                    self.lhagent_addr, "lhagent", "get-hash-delta", held.request(shard),
                    deadline=deadline, hedge=True,
                )
            except ServiceRpcError:
                self.counters.transport_retries += 1
                return False
            except RemoteOpError:
                return False
            self._shards = reply.get("shards", self._shards)
            if held.absorb(shard, reply):
                return True
        return False

    async def _ask(
        self, mapping: Dict, op: str, body: Dict, deadline: float
    ) -> Optional[Dict]:
        """The *ask* hop. ``None``: the copy has no address for the
        IAgent, or the hop failed (see :meth:`_unanswered`)."""
        if mapping.get("addr") is None:
            return None
        try:
            return await self._call(
                mapping["addr"], mapping["iagent"], op, body, deadline=deadline,
                hedge=op in _HEDGED_OPS,
            )
        except RemoteOpError as error:
            self._unanswered(error)
        except ServiceRpcError:
            self.counters.transport_retries += 1
        return None

    def _unanswered(self, error: RemoteOpError) -> None:
        """Count an ask the node refused as unanswered: the IAgent is
        gone from it (crash, migration, takeover), or it answered from a
        shard that no longer serves the id. Any other error raises."""
        if error.code == WRONG_SHARD:
            self.counters.wrong_shard_retries += 1
        elif error.code == AGENT_NOT_FOUND:
            self.counters.transport_retries += 1
        else:
            raise error

    async def _sleep(self, attempt: int, deadline: Optional[float] = None) -> None:
        """Capped exponential backoff with jitter; round 0 is free.

        The sleep is clamped to the remaining op deadline so a backoff
        can never be the thing that overshoots it.
        """
        if attempt == 0:
            return
        delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (attempt - 1)))
        span = delay * BACKOFF_JITTER
        delay = delay - span + self.rng.random() * span
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - asyncio.get_running_loop().time()))
        if delay <= 0:
            return
        self.counters.backoff_sleeps += 1
        await asyncio.sleep(delay)
