"""The node: the live server hosting the paper's LHAgent and IAgents.

This module holds the deployment's :class:`ServiceConfig`,
:func:`scan_primary` and the node side:

* :class:`NodeServer` -- one per node. A single listening socket
  multiplexing three target kinds: the node's LHAgent (secondary copy,
  refreshed via the same delta protocol as the simulator), any resident
  IAgents (spawned remotely by the HAgent during bootstrap, splits and
  takeovers), and the node ``host`` endpoint that tracks which mobile
  agents currently reside on the node.

Both server kinds -- this one and the coordinator,
:class:`repro.service.coordinator.HAgentServer` -- listen and dispatch
through :class:`repro.service.transport.FramedServer`.

Calls address a target (``"lhagent"``, ``"host"``, ``"hagent"`` or
an :class:`AgentId` for a resident IAgent) and name an op and a body;
:meth:`NodeServer.route` takes those three header fields and a reply
carries a value or an error. Protocol outcomes (``ok`` /
``not-responsible`` / ``no-record``) stay in-band as statuses, exactly
like the simulator; only transport-level conditions (unknown target,
malformed frame) use the reply's error side.

Crash recovery is layered. The soft-state floor is always there: every
node host periodically re-publishes its residents' locations through
the normal ``update`` path, so even an IAgent that starts with an empty
table converges within one re-registration period, and per-agent
sequence numbers keep late re-publishes from rolling back newer moves.
With a ``data_dir`` configured, the servers additionally journal every
authoritative mutation through :class:`repro.storage.DurableStore` --
the HAgent logs node registrations, the bootstrap and every journaled
rehash op; each IAgent logs its record mutations -- so a crashed agent
can come back **warm**: ``restart-iagent`` reloads the shard from the
latest snapshot plus the WAL suffix in milliseconds, then lets the
soft-state loop reconcile any tail the crash cut off.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.config import SYNC_JOURNAL_CAPACITY, HashMechanismConfig
from repro.core.hash_function import HashFunction, SecondaryCopies
from repro.core.iagent_state import OK, IAgentState, table_field
from repro.core.load import LoadStatistics
from repro.metrics.trace import Tracer
from repro.platform.naming import AgentId
from repro.service.client import (
    AGENT_NOT_FOUND,
    NOT_PRIMARY,
    STALE_EPOCH,
    Address,
    ClientConfig,
    RemoteOpError,
    RpcChannel,
    ServiceClient,
    ServiceError,
    ServiceRpcError,
)
from repro.service.netem import NetemController
from repro.service.replication import EpochFence
from repro.service.routing import WRONG_SHARD, ShardMap, ShardRouter, validate_shards
from repro.service.transport import FramedServer, _Reject
from repro.storage import DurableStore

__all__ = ["NodeServer", "ServiceConfig"]

#: Period of the node hosts' soft-state re-registration (s); bounds how
#: long a takeover IAgent's table stays empty.
REREGISTER_INTERVAL = 0.5


def _default_mechanism_config() -> HashMechanismConfig:
    """Mechanism tunables re-scaled from virtual to wall-clock seconds.

    The simulator defaults model paper-era hardware; a live localhost
    cluster is fast and short-lived, so the windows shrink to keep the
    control loop responsive within a CI smoke run.
    """
    return HashMechanismConfig(
        t_max=15.0,
        t_min=1.0,
        rate_window=1.0,
        report_interval=0.25,
        warmup_fraction=0.5,
        cooldown=1.0,
        merge_patience=4,
    )


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment tunables of the live service layer."""

    host: str = "127.0.0.1"

    #: Per-RPC timeout for server-to-server calls (s).
    rpc_timeout: float = 2.0

    #: Root directory for durable state (WAL + snapshots). ``None``
    #: keeps the PR-3 behaviour: soft-state only, nothing on disk.
    data_dir: Optional[str] = None

    #: WAL fsync policy: ``"always"`` / ``"interval"`` / ``"never"``.
    fsync: str = "interval"

    #: Mutations logged between automatic snapshots (0 disables them).
    snapshot_every: int = 256

    #: Standby sync/heartbeat period (s): each standby HAgent replica
    #: pulls the primary's journal this often; a successful pull doubles
    #: as the heartbeat.
    heartbeat_interval: float = 0.15

    #: Silence window after which the first-in-line standby declares the
    #: primary dead (s). A *crashed* primary is usually detected faster
    #: through ``FailureDetector``'s fast-fail path; a partitioned one
    #: must wait out the full window.
    heartbeat_timeout: float = 0.75

    #: Extra silence each further standby waits beyond the one ahead of
    #: it (s) -- keeps promotion deterministic by rank.
    promotion_stagger: float = 0.5

    #: Artificial one-way delay added to every coordinator-to-node and
    #: coordinator-to-IAgent RPC (s). Zero in production. The sharded
    #: coordination benchmark sets a WAN-representative RTT here: on a
    #: localhost loop the real round-trip cost of the rehash pipeline
    #: rounds to zero, which hides exactly the serialization that
    #: prefix sharding removes.
    coordinator_rpc_delay: float = 0.0

    #: Wire-level fault injection (latency/jitter/loss/resets/partial
    #: writes/asymmetric partitions). When set, every connection this
    #: deployment accepts or dials is shimmed through the controller;
    #: ``None`` (production) adds zero overhead.
    netem: Optional[NetemController] = None

    #: Protocol tunables shared with the simulator mechanism.
    mechanism: HashMechanismConfig = field(default_factory=_default_mechanism_config)

    def durable_store(self, root: Path, name: str) -> DurableStore:
        """A :class:`DurableStore` under ``root`` with this config's knobs."""
        return DurableStore(
            root,
            name,
            fsync=self.fsync,
            snapshot_every=self.snapshot_every,
        )


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------


async def scan_primary(
    channel: RpcChannel,
    addrs: Iterable[Address],
    timeout: float,
    shard: Optional[int] = None,
) -> Optional[Tuple[int, Address]]:
    """Ping each coordinator address; ``(epoch, addr)`` of the
    highest-epoch replica answering as primary (of ``shard``, when
    given), or None -- an election may still be in flight.

    Highest epoch, not first to answer: during a failover window a
    deposed primary that has not yet met a fence still says "primary".
    """
    best: Optional[Tuple[int, Address]] = None
    for addr in addrs:
        try:
            reply = await channel.call(addr, "hagent", "ping", timeout=timeout)
        except (ServiceRpcError, RemoteOpError):
            continue
        if reply.get("role") != "primary":
            continue
        if shard is not None and reply.get("shard", shard) != shard:
            continue
        epoch = reply.get("epoch", 0)
        if best is None or epoch > best[0]:
            best = (epoch, addr)
    return best


# ----------------------------------------------------------------------
# Endpoints hosted by a NodeServer
# ----------------------------------------------------------------------


class IAgentEndpoint:
    """The live Information Agent: one hash-tree leaf's directory shard.

    The asyncio driver of :class:`repro.core.iagent_state.IAgentState`
    (the op table is in :mod:`repro.core.iagent`; ``seq`` makes
    re-registration idempotent). This class owns only what is live:
    epoch-fence checks, the node's clock (its event loop's), the journal
    and the report loop.

    With a :class:`~repro.storage.DurableStore` attached, every mutation
    is journaled *after* the core applied it and *before* it is
    acknowledged, as the entry the core built; recovery replays those
    entries through the same ``IAgentState.apply``. Query-side state
    (load statistics) is deliberately soft: it re-warms from traffic.
    """

    coverage = table_field("coverage")
    #: agent id -> [node name, sequence number].
    records = table_field("records")
    #: agent id -> typed capability set (discovery subsystem).
    capabilities = table_field("capabilities")

    def __init__(
        self,
        owner: AgentId,
        node: "NodeServer",
        pattern: Optional[str],
        store: Optional[DurableStore] = None,
        shard: int = 0,
    ) -> None:
        self.owner = owner
        self.node = node
        #: Which coordinator shard this leaf reports to and takes
        #: rehash orders from.
        self.shard = shard
        self.stats = LoadStatistics(node.config.mechanism.rate_window)
        self.state = IAgentState(pattern, self.stats)
        self.report_task: Optional[asyncio.Task] = None
        self.store = store
        #: Set by a warm restart: how much state came back from disk.
        self.records_recovered = 0
        self.wal_replayed = 0

    # -- durability -----------------------------------------------------

    initial_state = staticmethod(IAgentState.initial_table)

    @staticmethod
    def apply_mutation(state: Dict, op: Dict) -> None:
        """The replay reducer: ``IAgentState.apply`` on a durable table."""
        # Snapshots written before the discovery subsystem have no
        # capability table.
        state.setdefault("capabilities", {})
        IAgentState.apply(state, op)

    def durable_state(self) -> Dict:
        return self.state.table

    def _commit(self, outcome: Tuple[Any, Optional[Dict]]) -> Any:
        """Journal the entry a core mutation applied (folding the log
        into a snapshot when due), then release its reply."""
        reply, entry = outcome
        if entry is not None:
            self._journal((entry,))
        return reply

    def _journal(self, entries: Sequence[Dict]) -> None:
        """Log ``entries`` in order, then fold the log into a snapshot
        if one is due: a snapshot covers every entry it follows."""
        store = self.store
        if store is None or not entries:
            return
        for entry in entries:
            store.log(entry)
        if store.should_snapshot:
            store.snapshot(self.durable_state())

    # -- op handlers (named like the simulator IAgent's) ----------------

    def op_register(self, body: Dict) -> Dict:
        return self._commit(self.state.put(body, self.node._now()))

    op_update = op_register

    def op_register_batch(self, body: Dict) -> Dict:
        """Apply many register/update rows in one round-trip.

        ``records`` is ``agent -> [node, seq]`` and ``capabilities``
        (optional) ``agent -> caps`` for the rows that carry a set. The
        rows take the single op's rules (coverage check, sequence
        gating) in one ``IAgentState.put_rows`` pass, and each admitted
        row is journaled, in row order, as the ``put`` a ``register``
        writes, so a batch is indistinguishable from N singles except
        for the saved round-trips. ``bounced`` names the rows this leaf
        does not cover, for the client's single-op fallback.
        """
        entries: List[Dict] = []
        try:
            bounced = self.state.put_rows(
                body["records"], body.get("capabilities"), self.node._now(), entries
            )
        finally:
            self._journal(entries)
        return {"status": OK, "bounced": bounced}

    def op_unregister(self, body: Dict) -> Dict:
        return self._commit(self.state.unregister(body))

    def op_locate(self, body: Dict) -> Dict:
        return self.state.locate(body, self.node._now())

    def op_locate_batch(self, body: Dict) -> Dict:
        """Resolve many agents in one round-trip: ``records`` holds
        ``agent -> [node, seq]`` for each one answered ``ok``."""
        return {"status": OK, "records": self.state.locate_rows(body["agents"], self.node._now())}

    def op_get_loads(self, body: Dict) -> Dict:
        return self.state.get_loads(body, self.node._now())

    def op_extract(self, body: Dict) -> Dict:
        self.node.check_fence(body, "extract")
        return self._commit(self.state.extract(body, self.node._now()))

    def op_extract_all(self, body: Dict) -> Dict:
        self.node.check_fence(body, "extract-all")
        return self._commit(self.state.extract_all())

    def op_adopt(self, body: Dict) -> Dict:
        self.node.check_fence(body, "adopt")
        return self._commit(self.state.adopt(body))

    def op_hand_off(self, body: Dict) -> Any:
        """Split / merge: give records up (journaled as ``extract`` /
        ``clear``) and push them straight to the leaves that take them.

        ``body["destinations"]`` is ``[owner, addr, pattern]`` per leaf;
        each gets one ``adopt`` through this node's channel -- a leaf on
        this node too -- stamped with the coordinator's fence, so its
        node fences the push as it would the coordinator's own adopt.
        The extract runs now, in frame order; the reply waits for the
        pushes.
        """
        self.node.check_fence(body, "hand-off")
        destinations = body["destinations"]
        bundles = self._commit(
            self.state.hand_off(
                body["pattern"], [pattern for *_, pattern in destinations], self.node._now()
            )
        )
        stamp = {key: body[key] for key in ("epoch", "claimant", "shard") if key in body}
        return self._push(destinations, bundles, stamp)

    async def _push(
        self, destinations: List, bundles: List[Dict], stamp: Dict
    ) -> Dict[str, Any]:
        """One fenced ``adopt`` per destination; ``took`` is what each
        acknowledged (``None``: no acknowledgement). A ``stale-epoch``
        refusal fails the whole hand-off with that code, so the
        coordinator demotes."""
        took: List[Optional[int]] = []
        for (owner, addr, _pattern), bundle in zip(destinations, bundles):
            count = None
            if addr is not None:
                bundle.update(stamp)
                try:
                    await self.node.channel.call(addr, owner, "adopt", bundle)
                    count = len(bundle["records"])
                except RemoteOpError as error:
                    if error.code == STALE_EPOCH:
                        raise _Reject(str(error)) from None
                except ServiceRpcError:
                    pass
            took.append(count)
        return {"status": OK, "took": took}

    def op_set_coverage(self, body: Dict) -> Dict:
        self.node.check_fence(body, "set-coverage")
        return self._commit(self.state.set_coverage(body))

    # -- discovery subsystem --------------------------------------------

    def op_set_capabilities(self, body: Dict) -> Dict:
        return self._commit(self.state.set_capabilities(body, self.node._now()))

    def op_discover_similar(self, body: Dict) -> Dict:
        return self.state.discover_similar(body)

    def op_discover_capability(self, body: Dict) -> Dict:
        return self.state.discover_capability(body)

    def op_discover_similar_batch(self, body: Dict) -> Dict:
        """Run many similarity queries in one round-trip."""
        return {
            "status": OK,
            "results": [self.state.discover_similar(op) for op in body["ops"]],
        }

    def op_discover_capability_batch(self, body: Dict) -> Dict:
        """Run many capability queries in one round-trip."""
        return {
            "status": OK,
            "results": [self.state.discover_capability(op) for op in body["ops"]],
        }

    def op_ping(self, body: Dict) -> Dict:
        return {
            "status": OK,
            "node": self.node.name,
            "records": len(self.records),
            "records_recovered": self.records_recovered,
        }

    # -- background: periodic load reports to the HAgent ----------------

    async def report_loop(self) -> None:
        config = self.node.config
        failures = 0
        stale_streak = 0
        while True:
            await asyncio.sleep(config.mechanism.report_interval)
            if self.store is not None:
                self.store.sync_due()
            now = self.node._now()
            try:
                reply = await self.node.channel.call(
                    self.node.coordinator_addr(self.shard),
                    "hagent",
                    "load-report",
                    {
                        "owner": self.owner,
                        "rate": self.stats.rate(now),
                        "mature": self.stats.total.mature(
                            now, config.mechanism.warmup_fraction
                        ),
                        "records": len(self.records),
                        "node": self.node.name,
                        "shard": self.shard,
                    },
                    timeout=config.rpc_timeout,
                )
            except RemoteOpError as error:
                if error.code == WRONG_SHARD:
                    # The whole shard was merged into its sibling; this
                    # leaf was drained during the hand-off and only the
                    # retire racing this loop is missing. Retire now --
                    # any tail records re-register through soft state.
                    await self.node.refresh_shard_map(self.shard)
                    if self.node.iagents.get(self.owner) is self:
                        self.node.retire_orphan(self.owner)
                    return
                failures += 1
                if failures % 3 == 0:
                    await self.node.find_primary(self.shard)
                continue
            except ServiceRpcError:
                # Best-effort, like the simulator -- but a dead or
                # deposed coordinator may have failed over, so every few
                # misses the node re-discovers the current primary.
                failures += 1
                if failures % 3 == 0:
                    await self.node.find_primary(self.shard)
                continue
            failures = 0
            if reply.get("status") == "stale":
                # The coordinator does not know this shard. After a
                # failover that lost the serializing split, such an
                # orphan would report forever without ever being merged
                # or taken over -- retire it; its records re-register
                # through the hosts' soft-state loop.
                stale_streak += 1
                if stale_streak >= 8 and self.node.iagents.get(self.owner) is self:
                    self.node.retire_orphan(self.owner)
                    return
            else:
                stale_streak = 0


class LHAgentEndpoint:
    """The node's Local Hash Agent: the lazily refreshed secondary copy.

    Resolution and refresh go through the same
    :class:`repro.core.hash_function.HashFunction` as the simulator's
    LHAgent, including delta-sync journal replay -- the wire carries
    exactly the journal entries the simulator protocol defines. The
    node's requesters resolve and compute discovery candidates against
    copies of their own and pull what takes those forward from here
    (``get-hash-delta``), so each copy keeps a bounded journal of the
    entries it replayed. ``whois`` stays served as the reference
    resolve.
    """

    def __init__(self, node: "NodeServer") -> None:
        self.node = node
        #: One secondary copy per coordinator shard, fetched lazily the
        #: first time an agent of that prefix is resolved here, and the
        #: node address book.
        self.held = SecondaryCopies(SYNC_JOURNAL_CAPACITY)
        self.copies = self.held.copies
        self.node_addrs = self.held.node_addrs
        self._fetch_flights: Dict[int, "asyncio.Task[None]"] = {}
        self.whois_served = 0
        self.refreshes = 0
        self.delta_refreshes = 0
        self.full_refreshes = 0
        self.coalesced_fetches = 0

    @property
    def copy(self) -> Optional[HashFunction]:
        """Shard 0's secondary copy -- the whole copy pre-sharding."""
        return self.copies.get(0)

    def _shard_for(self, agent_id: AgentId) -> int:
        return self.node.router.shard_for(agent_id)

    def op_whois(self, body: Dict) -> Any:
        """The mapping -- or, with no copy of the shard yet, a coroutine."""
        shard = self._shard_for(body["agent"])
        if shard not in self.copies:
            return self._fetch_then(shard, self.op_whois, body)
        self.whois_served += 1
        return self.held.resolve(shard, body["agent"])

    def op_get_hash_delta(self, body: Dict) -> Any:
        """A co-resident requester's pull: what takes its copy of
        ``shard`` at ``since`` to this LHAgent's -- a coroutine when
        this copy is no newer and is first refreshed from the
        coordinator (one coalesced flight for every requester waiting).
        """
        shard, since = self._pull_args(body)
        copy = self.copies.get(shard)
        if copy is None or (since is not None and copy.version <= since):
            return self._fetch_then(shard, self._delta_reply, body)
        return self._delta_reply(body)

    def _pull_args(self, body: Dict) -> Tuple[int, Optional[int]]:
        """The shard serving the pulled prefix, and the requester's
        version when this copy's origin numbered it (else None: it gets
        the snapshot)."""
        shard = self.node.router.map.owner.get(body["shard"], body["shard"])
        origin = self.held.origins.get(shard)
        comparable = origin is not None and body.get("epoch") == origin[1]
        return shard, body["since"] if comparable else None

    def _delta_reply(self, body: Dict) -> Dict:
        """Stamped like a coordinator's reply (serving shard, epoch,
        address book), plus the shard count a requester keys ids by."""
        shard, since = self._pull_args(body)
        copy = self.copies.get(shard)
        if copy is None:  # the fetch followed a redirect: the requester retries
            raise _Reject(f"precondition: no copy of shard {shard} yet")
        reply = copy.delta_since(since)
        reply["shard"], reply["epoch"] = self.held.origins[shard]
        reply["shards"] = self.node.router.shards
        reply["node_addrs"] = {name: list(addr) for name, addr in self.node_addrs.items()}
        return reply

    async def _fetch_then(self, shard: int, handler: Any, body: Dict) -> Dict:
        await self._fetch_primary_copy(shard)
        return handler(body)

    async def _fetch_primary_copy(self, shard: int = 0) -> None:
        """Fetch the shard's copy, coalescing concurrent callers.

        Single-flight: requests that arrive while a fetch is already on
        the wire share its outcome instead of queueing their own round
        trip. Under loss-driven retry storms every client refresh used
        to serialize one full coordinator round trip each behind a
        lock, turning the LHAgent into a seconds-deep queue; one shared
        fetch serves the whole burst. The flight is shielded so one
        timed-out caller does not cancel it for the rest.
        """
        flight = self._fetch_flights.get(shard)
        if flight is None:
            flight = asyncio.ensure_future(self._fetch_locked(shard))
            self._fetch_flights[shard] = flight
            flight.add_done_callback(
                lambda task, shard=shard: self._flight_done(shard, task)
            )
        else:
            self.coalesced_fetches += 1
        await asyncio.shield(flight)

    def _flight_done(self, shard: int, task: "asyncio.Task[None]") -> None:
        self._fetch_flights.pop(shard, None)
        if not task.cancelled():
            # Every waiter may have been cancelled (callers time out);
            # consume the outcome so an orphaned failure never logs.
            task.exception()

    async def _fetch_locked(self, shard: int) -> None:
        try:
            reply = await self._fetch_once(shard)
        except (ServiceRpcError, RemoteOpError) as error:
            if isinstance(error, RemoteOpError) and error.code == WRONG_SHARD:
                # That coordinator released its prefix to a sibling: pull
                # the shard map, follow the redirect, retry once there.
                await self.node.refresh_shard_map(shard)
                reply = await self._fetch_once(shard)
            elif (
                isinstance(error, RemoteOpError)
                and error.code == "precondition"
                and self.copies.get(shard) is not None
            ):
                # The coordinator cannot serve the function right now
                # (e.g. a replica promoted before its first sync after
                # a crash cascade). Soft state: keep answering from the
                # cached copy rather than failing every locate.
                return
            elif isinstance(error, RemoteOpError) and error.code not in (
                NOT_PRIMARY,
            ):
                raise
            else:
                # The coordinator is unreachable or deposed: re-discover
                # the current primary through the node's replica address
                # book and retry once against it.
                if await self.node.find_primary(shard) is None:
                    raise
                reply = await self._fetch_once(shard)
        self.refreshes += 1
        if not self.held.absorb(shard, reply):
            # The delta does not fit the copy, which is dropped: draw the
            # snapshot now, or every refresh would re-request that delta.
            reply = await self._fetch_once(shard)
            self.held.absorb(shard, reply)
        if reply.get("mode") == "delta":
            self.delta_refreshes += 1
        else:
            self.full_refreshes += 1

    async def _fetch_once(self, shard: int) -> Dict:
        """``get-hash-delta`` at the shard's coordinator: a copy-less
        holder asks ``since: -1`` and is answered the full snapshot."""
        node = self.node
        # Tighter than the general server RPC timeout: every whois stuck
        # behind this flight inherits its latency, so one lost frame on
        # a hostile link must not stall resolution for a full
        # ``rpc_timeout`` (the _fetch_locked fallback retries once).
        return await node.channel.call(
            node.coordinator_addr(shard),
            "hagent",
            "get-hash-delta",
            self.held.request(shard),
            timeout=min(0.75, node.config.rpc_timeout),
        )


class HostEndpoint:
    """Tracks the mobile agents resident on this node (soft state).

    The cluster driver (or a real agent platform) notifies arrivals and
    departures; the host re-publishes every resident's location through
    the normal ``update`` path each ``REREGISTER_INTERVAL`` -- the
    self-healing loop that repopulates a takeover IAgent's table.
    """

    def __init__(self, node: "NodeServer") -> None:
        self.node = node
        #: agent id -> latest sequence number observed on arrival.
        self.residents: Dict[AgentId, int] = {}
        self.republishes = 0

    def op_agent_arrive(self, body: Dict) -> Dict:
        self.residents[body["agent"]] = body.get("seq", 0)
        return {"status": OK}

    def op_agent_depart(self, body: Dict) -> Dict:
        self.residents.pop(body["agent"], None)
        return {"status": OK}

    def op_ping(self, body: Dict) -> Dict:
        return {"status": OK, "node": self.node.name, "residents": len(self.residents)}

    async def republish_loop(self) -> None:
        node = self.node
        while True:
            await asyncio.sleep(REREGISTER_INTERVAL)
            client = node.client
            if client is None:  # not fully started yet
                continue
            # One batched RPC per responsible IAgent instead of one
            # round-trip per resident. Safe under concurrent moves: a
            # resident that departs mid-batch re-publishes a stale
            # (agent, seq) pair at worst, and per-agent sequence numbers
            # make stale publishes harmless.
            items = [
                (agent_id, node.name, seq)
                for agent_id, seq in list(self.residents.items())
            ]
            if not items:
                continue
            try:
                await client.register_batch(items)
                self.republishes += len(items)
            except ServiceError:
                continue  # best-effort; the next period retries


# ----------------------------------------------------------------------
# The per-node server
# ----------------------------------------------------------------------

#: Entries :meth:`NodeServer.route` memoizes at most: a peer names any
#: op it likes.
_HANDLER_NAMES_MAX = 1024


class NodeServer(FramedServer):
    """One node: LHAgent + host endpoint + any resident IAgents."""

    config: ServiceConfig

    def __init__(
        self,
        name: str,
        hagent_addr: Address,
        config: Optional[ServiceConfig] = None,
        tracer: Optional[Tracer] = None,
        hagent_addrs: Optional[List[Address]] = None,
        shards: int = 1,
        shard_addrs: Optional[Dict[int, List[Address]]] = None,
    ) -> None:
        super().__init__(config or ServiceConfig(), tracer)
        self.name = name
        #: id-prefix -> coordinator routing, with a last-known-good
        #: primary cached per shard. ``hagent_addr`` is shard 0's boot
        #: coordinator; further shards' replica books arrive through
        #: ``shard_addrs``.
        shard_map = ShardMap(shards=validate_shards(shards))
        for addr in list(hagent_addrs or [hagent_addr]):
            book = shard_map.replicas_of(0)
            if addr not in book:
                book.append(addr)
        for shard, addrs in (shard_addrs or {}).items():
            book = shard_map.replicas_of(shard)
            for addr in addrs:
                if addr not in book:
                    book.append(addr)
        self.router = ShardRouter(shard_map)
        self.router.set_primary(0, hagent_addr)
        for shard in range(1, shards):
            book = shard_map.replicas_of(shard)
            if book:
                self.router.set_primary(shard, book[0])
        #: One fencing token guard per shard: rehash ops are serialized
        #: by their shard's epoch sequence, independently of the others.
        self.fences: Dict[int, EpochFence] = {
            shard: EpochFence() for shard in range(shards)
        }
        #: Shard 0's fence, under its pre-sharding name.
        self.fence = self.fences[0]
        self.fence_rejections = 0
        self.orphans_retired = 0
        self.channel = RpcChannel(
            rpc_timeout=self.config.rpc_timeout,
            tracer=tracer,
            netem=self.config.netem,
        )
        self.lhagent = LHAgentEndpoint(self)
        self.host = HostEndpoint(self)
        self.iagents: Dict[AgentId, IAgentEndpoint] = {}
        #: Owners crashed via fault injection; requests get agent-not-found.
        self.crashed: Set[AgentId] = set()
        #: op -> the name of its handler method (``"locate-batch"`` ->
        #: ``"op_locate_batch"``), memoized by :meth:`route`.
        self._handler_names: Dict[str, str] = {}
        # The host republishes through a full protocol client so crash
        # recovery exercises the same retry loop applications use.
        self.client: Optional[ServiceClient] = None
        #: Per-node durable root (``<data_dir>/<node_name>/``), or None.
        self.data_root: Optional[Path] = (
            Path(self.config.data_dir) / self.name
            if self.config.data_dir is not None
            else None
        )

    @property
    def hagent_addr(self) -> Address:
        """Shard 0's believed-primary coordinator (pre-sharding name).

        Repointed by ``new-primary`` announcements or re-discovery.
        """
        addr = self.router.peek(0)
        if addr is None:
            # A failed discovery scan leaves the cache empty; fall back
            # to the book head rather than blowing up the caller.
            return self.router.map.replicas_of(0)[0]
        return addr

    @hagent_addr.setter
    def hagent_addr(self, addr: Address) -> None:
        self.router.set_primary(0, addr)

    @property
    def hagent_addrs(self) -> List[Address]:
        """Shard 0's replica address book (the live list: append works)."""
        return self.router.map.replicas_of(0)

    def coordinator_addr(self, shard: int = 0) -> Address:
        """The cached last-known-good primary of ``shard``'s coordinator.

        Follows the shard map's ownership redirects (an absorbed
        prefix's traffic goes to the absorbing shard) and falls back to
        the shard's first configured replica before any discovery ran.
        """
        owner = self.router.map.owner.get(shard, shard)
        addr = self.router.primary(owner)
        if addr is not None:
            return addr
        book = self.router.map.replicas_of(owner)
        if not book:
            raise ServiceRpcError(
                f"no coordinator known for shard {owner}", op="coordinator-addr"
            )
        return book[0]

    def shard_for(self, agent_id: AgentId) -> int:
        return self.router.shard_for(agent_id)

    async def start(self, host: Optional[str] = None, port: int = 0) -> Address:
        addr = await super().start(host, port)
        self.client = ServiceClient(
            self.name,
            addr,
            config=ClientConfig(
                rpc_timeout=self.config.rpc_timeout,
                max_retries=6,
                op_deadline=REREGISTER_INTERVAL * 4,
            ),
            channel=self.channel,
            tracer=self.tracer,
        )
        # Register with every shard's coordinator: each shard spawns and
        # takes over IAgents independently, so each needs this node in
        # its address book. Shard 0 keeps the exact pre-sharding call.
        for shard in range(self.router.shards):
            body = {"name": self.name, "host": addr[0], "port": addr[1]}
            if shard:
                body["shard"] = shard
            await self.channel.call(
                self.coordinator_addr(shard),
                "hagent",
                "register-node",
                body,
                timeout=self.config.rpc_timeout,
            )
        self.spawn(self.host.republish_loop(), name=f"{self.name}-republish")
        return addr

    # ------------------------------------------------------------------

    def route(self, target: Any, op: str, body: Any) -> Any:
        handler_owner: Any
        if target == "lhagent":
            handler_owner = self.lhagent
        elif target == "host":
            handler_owner = self.host
        elif isinstance(target, AgentId):
            endpoint = self.iagents.get(target)
            if endpoint is None:
                raise _Reject(f"{AGENT_NOT_FOUND}: no agent {target} on {self.name}")
            handler_owner = endpoint
        else:
            raise _Reject(f"unknown-target: {target!r}")
        names = self._handler_names
        name = names.get(op)
        if name is None:
            if op.startswith("_"):
                raise _Reject(f"unknown-op: {op!r}")
            name = "op_" + op.replace("-", "_")
            if len(names) < _HANDLER_NAMES_MAX:
                names[op] = name
        handler = getattr(handler_owner, name, None)
        if handler is None:
            handler = getattr(self, "node" + name, None)
            if handler is None or handler_owner is not self.host:
                raise _Reject(f"unknown-op: {op!r} for target {target!r}")
        return handler(body or {})

    # -- epoch fencing and primary re-discovery ---------------------------

    def check_fence(self, body: Dict, op: str) -> None:
        """Refuse a coordinator-issued op from a deposed primary.

        Ops carrying no ``epoch`` (driver and test calls) pass freely;
        epoch-stamped ones must clear the issuing *shard's*
        :class:`EpochFence` -- each shard's epoch sequence fences
        independently (ops default to shard 0, the pre-sharding wire).
        """
        epoch = body.get("epoch")
        if epoch is None:
            return
        fence = self.fences.setdefault(int(body.get("shard", 0)), EpochFence())
        rejected = fence.admit(epoch, body.get("claimant"))
        if rejected is not None:
            self.fence_rejections += 1
            raise _Reject(f"{rejected} (op {op!r} at {self.name})")

    async def find_primary(self, shard: int = 0) -> Optional[Address]:
        """Scan one shard's replica book for its highest-epoch primary.

        Full discovery -- the fallback when the cached last-known-good
        coordinator refused, counted as such in the router stats.
        Returns the primary's address (caching it and advancing the
        shard's fence), or None when no replica answers as primary --
        an election may still be in flight.
        """
        self.router.invalidate(shard)
        self.router.record_discovery()
        best = await scan_primary(
            self.channel,
            self.router.candidates(shard),
            min(0.5, self.config.rpc_timeout),
        )
        if best is None:
            return None
        self.fences.setdefault(shard, EpochFence()).admit(best[0])
        self.router.set_primary(shard, best[1])
        return best[1]

    async def refresh_shard_map(self, shard: int) -> None:
        """Pull the shard map after a ``wrong-shard`` refusal.

        Any replica of the refusing shard can answer ``shard-map``; the
        reply's ownership row re-points the absorbed prefix at its
        absorbing coordinator.
        """
        self.router.record_redirect()
        for addr in self.router.candidates(shard):
            try:
                reply = await self.channel.call(
                    addr,
                    "hagent",
                    "shard-map",
                    timeout=min(0.5, self.config.rpc_timeout),
                )
            except (ServiceRpcError, RemoteOpError):
                continue
            absorbed_by = reply.get("absorbed_by")
            if absorbed_by is not None:
                self.router.map.absorb(shard, absorbed_by)
            for owned in reply.get("owned", []):
                self.router.map.absorb(owned, reply.get("shard", shard))
            return

    def _drop_iagent(self, owner: AgentId, crashed: bool) -> Optional[IAgentEndpoint]:
        """Take ``owner``'s endpoint off this node, if it is resident: its
        report loop stops and its store is closed -- or, ``crashed``,
        abandoned without a final sync, as a dying process leaves it."""
        endpoint = self.iagents.pop(owner, None)
        if endpoint is not None:
            if endpoint.report_task is not None:
                endpoint.report_task.cancel()
            if endpoint.store is not None:
                (endpoint.store.abort if crashed else endpoint.store.close)()
        return endpoint

    def retire_orphan(self, owner: AgentId) -> None:
        """Drop a shard the coordinator no longer knows (post-failover)."""
        if self._drop_iagent(owner, crashed=False) is not None:
            self.orphans_retired += 1

    def nodeop_new_primary(self, body: Dict) -> Dict:
        """A promoted HAgent replica announces its epoch and address."""
        shard = int(body.get("shard", 0))
        fence = self.fences.setdefault(shard, EpochFence())
        rejected = fence.admit(body["epoch"], body.get("claimant"))
        if rejected is not None:
            self.fence_rejections += 1
            raise _Reject(f"{rejected} (new-primary announcement at {self.name})")
        self.router.set_primary(shard, (body["host"], body["port"]))
        return {"status": OK, "epoch": fence.epoch}

    # -- node-management ops (addressed to the "host" target) ------------

    def _iagent_store(self, owner: AgentId) -> Optional[DurableStore]:
        """This node's durable store for ``owner``, or None when diskless."""
        if self.data_root is None:
            return None
        return self.config.durable_store(self.data_root, f"iagent-{owner.value:x}")

    def _host_iagent(
        self, owner: AgentId, pattern: Optional[str], recover: bool, shard: int = 0
    ) -> Dict:
        """Create an IAgent endpoint, fresh or warm-recovered from disk."""
        # A re-host onto the node of an earlier one whose reply was lost
        # replaces that orphan, report loop and store included.
        self._drop_iagent(owner, crashed=False)
        store = self._iagent_store(owner)
        endpoint = IAgentEndpoint(owner, self, pattern, store=store, shard=shard)
        recovery_s = 0.0
        if store is not None:
            if recover and store.has_data:
                result = store.recover(
                    initial=IAgentEndpoint.initial_state,
                    apply=IAgentEndpoint.apply_mutation,
                )
                # Missing fields (a pre-discovery snapshot has no
                # capability table) take the initial shape.
                endpoint.state.table = {**endpoint.initial_state(), **result.state}
                endpoint.records_recovered = len(endpoint.records)
                endpoint.wal_replayed = result.replayed
                recovery_s = result.elapsed_s
                # Fold the recovered state into a fresh snapshot so the
                # next restart replays only post-recovery mutations.
                store.snapshot(endpoint.durable_state())
            else:
                # A *new* incarnation (bootstrap, split, cross-node
                # takeover): stale history must not resurrect into it.
                store.reset()
            # A pattern from the HAgent (takeover) wins over a recovered
            # coverage. "" covers everything, so test against None, not
            # truthiness.
            if pattern is not None:
                endpoint.op_set_coverage({"pattern": pattern})
        self.crashed.discard(owner)
        self.iagents[owner] = endpoint
        endpoint.report_task = self.spawn(
            endpoint.report_loop(), name=f"report-{owner.short()}"
        )
        return {
            "status": OK,
            "node": self.name,
            "records_recovered": endpoint.records_recovered,
            "wal_replayed": endpoint.wal_replayed,
            "recovery_s": recovery_s,
        }

    def nodeop_host_iagent(self, body: Dict) -> Dict:
        """Spawn (or re-host, on takeover) an IAgent on this node."""
        self.check_fence(body, "host-iagent")
        return self._host_iagent(
            body["owner"],
            body.get("pattern"),
            bool(body.get("recover")),
            shard=int(body.get("shard", 0)),
        )

    def nodeop_restart_iagent(self, body: Dict) -> Dict:
        """Fault injection: crash a resident IAgent, then warm-restart it.

        The endpoint is killed abruptly (no extract, no final sync --
        exactly :meth:`nodeop_crash_iagent`), then re-created from its
        own disk state: latest snapshot plus WAL-suffix replay.
        """
        owner: AgentId = body["owner"]
        if self.data_root is None:
            raise _Reject("no-durable-state: node started without --data-dir")
        shard = int(body.get("shard", 0))
        endpoint = self._drop_iagent(owner, crashed=True)
        if endpoint is not None:
            shard = endpoint.shard
        elif owner not in self.crashed:
            raise _Reject(f"{AGENT_NOT_FOUND}: no agent {owner} on {self.name}")
        return self._host_iagent(owner, None, recover=True, shard=shard)

    def nodeop_retire_iagent(self, body: Dict) -> Dict:
        """Gracefully remove a merged-away IAgent."""
        self.check_fence(body, "retire-iagent")
        self._drop_iagent(body["owner"], crashed=False)
        return {"status": OK}

    def nodeop_crash_iagent(self, body: Dict) -> Dict:
        """Fault injection: kill a resident IAgent abruptly.

        The endpoint vanishes mid-protocol -- no extract, no handover;
        subsequent requests are refused with ``agent-not-found`` exactly
        like a process that died. Its durable store is abandoned without
        a final sync, so on-disk state is whatever the fsync policy had
        already made durable -- the honest crash picture.
        """
        owner: AgentId = body["owner"]
        endpoint = self._drop_iagent(owner, crashed=True)
        if endpoint is None:
            raise _Reject(f"{AGENT_NOT_FOUND}: no agent {owner} on {self.name}")
        self.crashed.add(owner)
        return {"status": OK, "records_lost": len(endpoint.records)}

    async def stop(self) -> None:
        await super().stop()
        for endpoint in self.iagents.values():
            if endpoint.store is not None:
                endpoint.store.close()
        await self.channel.close()
