"""The live HAgent: the coordinator process of the service layer.

:class:`HAgentServer` owns the primary copy of the hash function (a
journaled :class:`repro.core.hash_function.HashFunction` inside its
:class:`repro.core.coordinator_state.CoordinatorState`, the same object
the simulator HAgent holds) and drives the shared
:class:`repro.core.rehashing.RehashPolicy`. Every protocol that takes
more than one request -- split, merge, the liveness monitor's takeover
of a crashed IAgent's leaf, both sides of the cross-shard merge -- is a
:mod:`repro.core.rehashing` saga; ``HAgentServer._step`` performs their
requests under the one rehash lock. What stays here is only live:
replication (standby sync, failure detection, promotion, epoch fencing),
durability, dispatch and the liveness monitor's pings.
"""

from __future__ import annotations

import asyncio
from operator import attrgetter
from pathlib import Path
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.config import SYNC_JOURNAL_CAPACITY
from repro.core.coordinator_state import CoordinatorState
from repro.core.iagent_state import OK
from repro.core.rehashing import (
    Refused,
    RehashPolicy,
    merge_saga,
    shard_absorb_saga,
    shard_merge_saga,
    split_saga,
    takeover_saga,
)
from repro.metrics.trace import Tracer
from repro.platform.messages import Request
from repro.platform.naming import AgentId, AgentNamer
from repro.service.client import (
    NOT_PRIMARY,
    STALE_EPOCH,
    Address,
    RemoteOpError,
    RpcChannel,
    ServiceRpcError,
    ServiceTimeout,
    format_addr,
)
from repro.service.replication import FailureDetector, next_epoch
from repro.service.routing import WRONG_SHARD, shard_prefix, validate_shards
from repro.service.server import ServiceConfig, scan_primary
from repro.service.transport import FramedServer, _Reject
from repro.storage import DurableStore

__all__ = ["HAgentServer"]

#: An IAgent silent for this long is pinged; a failed ping triggers
#: takeover (s).
LIVENESS_TIMEOUT = 1.0

#: Ping attempts before a silent IAgent is declared dead. One lost frame
#: must not amputate a live shard on a lossy network: at 5% frame loss a
#: single ping fails ~10% of the time, three in a row ~0.1% -- takeover
#: stays prompt for real crashes (refused connections fail fast) but
#: stops firing on wire noise.
LIVENESS_PING_RETRIES = 3


class HAgentServer(FramedServer):
    """The live HAgent: primary copy, rehash coordinator, failure healer.

    Replication (the §7 fault-tolerance extension, live): a deployment
    may run several ``HAgentServer`` replicas, ranked by ``rank``. Rank
    0 boots as the primary; the others boot as hot standbys that tail
    the primary's rehash journal through ``replica-sync`` (the same
    delta protocol the LHAgents use) every ``heartbeat_interval``. A
    successful sync doubles as the heartbeat; when a standby's
    :class:`FailureDetector` declares the primary dead it claims
    ``next_epoch(...)``, promotes itself and announces ``new-primary``
    to every node and peer. All coordinator-issued rehash ops carry the
    epoch, so a deposed primary is fenced at every node (and demotes
    itself on the first ``stale-epoch`` rejection it sees).
    """

    config: ServiceConfig

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        tracer: Optional[Tracer] = None,
        namer: Optional[AgentNamer] = None,
        rank: int = 0,
        role: Optional[str] = None,
        shard: int = 0,
        shards: int = 1,
    ) -> None:
        super().__init__(config or ServiceConfig(), tracer)
        if rank < 0:
            raise ValueError("replica ranks start at 0")
        validate_shards(shards)
        if not 0 <= shard < shards:
            raise ValueError(f"shard {shard} out of range for {shards} shards")
        self.rank = rank
        #: Which top-level id prefix this coordinator serves, out of how
        #: many. A single-shard deployment is shard 0 of 1 -- every
        #: shard-aware path collapses to the pre-sharding behaviour.
        self.shard = shard
        self.shards = shards
        #: shard -> that shard's replica address book (for cross-shard
        #: ops); see :meth:`set_shard_peers`.
        self.shard_peers: Dict[int, List[Address]] = {}
        #: A granted-but-uncommitted cross-shard merge this replica (as
        #: the absorbing side) has prepared; cleared on commit or when
        #: this replica's epoch moves.
        self._xshard_grant: Optional[Dict] = None
        self.xshard_merges = 0
        self.xshard_absorbs = 0
        self.xshard_aborts = 0
        self.role = role if role is not None else ("primary" if rank == 0 else "standby")
        # Shard 0 keeps the pre-sharding replica names (and therefore
        # claimant strings and store names) byte-identical.
        self.replica_name = (
            f"hagent-{rank}" if shard == 0 else f"hagent-s{shard}-{rank}"
        )
        #: Everything durable -- epoch, hash function, node book, namer,
        #: shard row -- changed only through its ``apply``. Each shard
        #: draws IAgent ids from its own namer stream so two shards can
        #: never mint the same owner id; shard 0 keeps the historical
        #: seed.
        self.state = CoordinatorState(
            shard,
            1 if self.role == "primary" else 0,
            namer or AgentNamer(seed=0xD1EC7 + shard),
            SYNC_JOURNAL_CAPACITY,
        )
        #: rank -> address of every replica (self included); see
        #: :meth:`set_peers`.
        self.peers: Dict[int, Address] = {}
        #: Where this replica believes the current primary listens.
        self.primary_addr: Optional[Address] = None
        #: Last non-``None`` value of :attr:`primary_addr`. The standby
        #: loop resets ``primary_addr`` when its pointer goes stale (the
        #: peer answered NOT_PRIMARY), but the promotion preflight must
        #: still exclude that rank from the standby quorum: a primary
        #: that demoted and then died would otherwise count as a standby
        #: whose vote a lone survivor can never collect.
        self.last_primary_addr: Optional[Address] = None
        self.detector: Optional[FailureDetector] = None
        #: Promotion history (epoch, version, wall time) of *this* replica.
        self.promotions: List[Dict] = []
        self.demotions = 0
        #: Every ``(epoch, replica)`` primary claim this replica made --
        #: the raw material of the single-primary-per-epoch invariant.
        self.epoch_claims: List[Tuple[int, str]] = []
        #: ``_now()`` at the most recent promotion, if any.
        self.promoted_at: Optional[float] = None
        self.syncs = 0
        self.channel = RpcChannel(
            rpc_timeout=self.config.rpc_timeout,
            tracer=tracer,
            netem=self.config.netem,
        )
        self._rehash_lock = asyncio.Lock()
        self.policy = RehashPolicy(self.config.mechanism)
        self._last_report: Dict[Any, float] = {}
        self._spawn_round_robin = 0
        self.splits = 0
        self.merges = 0
        self.takeovers = 0
        self.rehash_log: List[Dict] = []
        # Rank 0 of shard 0 keeps the pre-replication store name so
        # single-replica deployments stay restart-compatible with their
        # old state; other shards get their own directories.
        if shard == 0:
            store_name = "hagent" if rank == 0 else f"hagent-{rank}"
        else:
            store_name = (
                f"hagent-s{shard}" if rank == 0 else f"hagent-s{shard}-{rank}"
            )
        self.store: Optional[DurableStore] = (
            self.config.durable_store(Path(self.config.data_dir), store_name)
            if self.config.data_dir is not None
            else None
        )
        #: Set by :meth:`_recover_from_disk` on a warm coordinator start.
        self.recovered_version = 0
        self.wal_replayed = 0

    # Read views of this replica's state.
    epoch = property(attrgetter("state.epoch"))
    owned = property(attrgetter("state.owned"))
    map_version = property(attrgetter("state.map_version"))
    absorbed_by = property(attrgetter("state.absorbed_by"))
    node_addrs = property(attrgetter("state.node_addrs"))
    namer = property(attrgetter("state.namer"))
    function = property(attrgetter("state.function"))
    tree = property(attrgetter("state.function.tree"))
    iagent_nodes = property(attrgetter("state.function.iagent_nodes"))
    version = property(attrgetter("state.function.version"))
    journal = property(attrgetter("state.function.journal"))
    #: Node names in registration order (the spawn round-robin's).
    node_order = property(lambda self: list(self.state.node_addrs))

    async def start(self, host: Optional[str] = None, port: int = 0) -> Address:
        self._recover_from_disk()
        addr = await super().start(host, port)
        if self.role == "primary":
            self._record_claim()
            self.spawn(self._monitor_loop(), name="hagent-monitor")
        else:
            self.spawn(self._standby_loop(), name=f"{self.replica_name}-sync")
        return addr

    def set_peers(self, peers: Dict[int, Address]) -> None:
        """Install the replica address book (rank -> address, self too)."""
        self.peers = dict(peers)
        if self.role != "primary" and self.primary_addr is None:
            others = sorted(r for r in self.peers if r != self.rank)
            if others:
                # Until an announcement says otherwise, assume the
                # lowest-ranked peer is the primary.
                self.primary_addr = self.peers[others[0]]
                self.last_primary_addr = self.primary_addr

    def set_shard_peers(self, shard_peers: Dict[int, List[Address]]) -> None:
        """Install the other shards' replica books (for cross-shard ops)."""
        self.shard_peers = {
            shard: list(addrs) for shard, addrs in shard_peers.items()
        }

    def _record_claim(self) -> None:
        claim = (self.epoch, self.replica_name)
        if claim not in self.epoch_claims:
            self.epoch_claims.append(claim)

    # ------------------------------------------------------------------
    # Durability: the primary copy is one of the two authoritative
    # states in the mechanism (the other being each IAgent's shard)
    # ------------------------------------------------------------------

    def _commit(self, entry: Optional[Dict]) -> None:
        """Journal the entry a state mutation applied (``None``: it
        changed nothing); fold the log into a snapshot when due."""
        if entry is None or self.store is None:
            return
        self.store.log(entry)
        if self.store.should_snapshot:
            self._snapshot()

    def _snapshot(self) -> None:
        if self.store is not None:
            self.store.snapshot(self.state.bundle())

    def _recover_from_disk(self) -> None:
        """Warm-start: latest snapshot + WAL-suffix replay, pre-serve.

        The namer position rides in every journaled op so a recovered
        coordinator never re-issues an already-used IAgent id.
        """
        if self.store is None or not self.store.has_data:
            return
        snapshot = self.store.snapshots.latest()
        base = 0
        if snapshot is not None:
            base = snapshot.last_lsn
            self.state.install(snapshot.state)
        replayed = 0
        for record in self.store.wal.replay(after=base):
            self.state.apply(record.value)
            replayed += 1
        self.wal_replayed = replayed
        self.recovered_version = self.version
        # Grace period: the monitor must not declare every recovered
        # IAgent dead before it had a chance to report once.
        now = self._now()
        for owner in self.iagent_nodes:
            self._last_report[owner] = now
        self._snapshot()
        self._log(
            "recover", snapshot_lsn=base, replayed=replayed, version=self.version
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def route(self, target: Any, request: Request) -> Any:
        if target != "hagent":
            raise _Reject(f"unknown-target: {target!r} (this is the HAgent)")
        op = request.op
        body = request.body or {}
        if op in (
            "register-node",
            "bootstrap",
            "load-report",
            "shard-merge",
            "shard-merge-prepare",
            "shard-merge-commit",
        ):
            # Primary-only: these either mutate authoritative state or
            # feed the rehash policy. Reads (hash function, stats) stay
            # answerable on standbys for discovery and convergence checks.
            if self.role != "primary":
                primary = (
                    f"; primary last seen at {format_addr(self.primary_addr)}"
                    if self.primary_addr is not None
                    else ""
                )
                raise _Reject(
                    f"{NOT_PRIMARY}: {self.replica_name} is a standby"
                    f" (epoch {self.epoch}){primary}"
                )
            if op == "register-node":
                return self._op_register_node(body)
            if op == "shard-merge-prepare":
                return self._op_shard_merge_prepare(body)
            if op == "shard-merge-commit":
                return self._op_shard_merge_commit(body)
            self._check_shard(body, op)
            if op == "bootstrap":
                return self._op_bootstrap(body)
            if op == "shard-merge":
                return self._op_shard_merge(body)
            return self._op_load_report(body)
        if op == "get-hash-delta":
            self._check_shard(body, op)
            return self._for_lhagent(self._copy_reply(body))
        if op == "shard-map":
            return self._op_shard_map(body)
        if op == "shard-release":
            return self._op_shard_release(body)
        if op == "replica-sync":
            return self._op_replica_sync(body)
        if op == "new-primary":
            return self._op_new_primary(body)
        if op == "list-iagents":
            return self._op_list_iagents(body)
        if op == "stats":
            return self._op_stats(body)
        if op == "ping":
            return {
                "status": OK,
                "version": self.version,
                "role": self.role,
                "rank": self.rank,
                "epoch": self.epoch,
                "shard": self.shard,
            }
        raise _Reject(f"unknown-op: {op!r}")

    def _check_shard(self, body: Dict, op: str) -> None:
        """Refuse ops addressed to a prefix this replica set no longer
        (or never) served -- the client follows the ``shard-map``."""
        shard = body.get("shard")
        if shard is None or shard in self.owned:
            return
        where = (
            f"absorbed by shard {self.absorbed_by}"
            if self.absorbed_by is not None
            else f"served by {sorted(self.owned) or 'nobody here'}"
        )
        raise _Reject(
            f"{WRONG_SHARD}: shard {shard} is not served by"
            f" {self.replica_name} (op {op!r}; {where};"
            f" map v{self.map_version})"
        )

    def _op_shard_map(self, body: Dict) -> Dict:
        """The routing row this replica can vouch for (any role)."""
        return {
            "status": OK,
            "shards": self.shards,
            "shard": self.shard,
            "owned": sorted(self.owned),
            "map_version": self.map_version,
            "absorbed_by": self.absorbed_by,
            "prefix": shard_prefix(self.shard, self.shards),
        }

    def _copy_reply(self, body: Dict) -> Dict:
        """The delta -- or the snapshot -- for a holder at ``body``'s
        ``since``."""
        # Versions are not comparable across epochs (a promoted standby
        # may restart numbering below the dead primary's): a requester
        # from another epoch gets the full authoritative copy.
        comparable = body.get("epoch") in (None, self.epoch)
        return self.function.delta_since(body.get("since", -1) if comparable else None)

    def _for_lhagent(self, reply: Dict) -> Dict:
        """Stamp a copy reply with the origin its versions belong to --
        this shard, this epoch -- and the node address book: on a delta
        too, or a node registered since the holder's last full copy
        would stay unaddressable there however often it refreshed."""
        if "tree" in reply and self.tree is None:
            raise _Reject("precondition: not bootstrapped yet")
        reply["shard"], reply["epoch"] = self.shard, self.epoch
        reply["node_addrs"] = self.state.book()
        return reply

    def _op_register_node(self, body: Dict) -> Dict:
        self._commit(
            self.state.register_node(body["name"], body["host"], body["port"])
        )
        return {"status": OK, "nodes": len(self.node_addrs)}

    async def _op_bootstrap(self, body: Dict) -> Dict:
        """Deploy the initial single-IAgent hash function (paper §2.2)."""
        if self.tree is not None:
            return {"status": OK, "version": self.version}
        if not self.node_addrs:
            raise _Reject("precondition: bootstrap before any node registered")
        node = self.node_order[-1]
        owner = self.namer.next_id()
        await self._rpc_node(node, "host-iagent", {"owner": owner, "pattern": ""})
        self._commit(self.state.bootstrap(owner, node))
        self._last_report[owner] = self._now()
        return {"status": OK, "version": self.version, "owner": owner}

    def _op_list_iagents(self, body: Dict) -> Dict:
        return {
            "status": OK,
            "iagents": [
                {
                    "owner": owner,
                    "node": node,
                    "addr": list(self.node_addrs.get(node, ())) or None,
                }
                for owner, node in self.iagent_nodes.items()
            ],
        }

    def _op_stats(self, body: Dict) -> Dict:
        return {
            "status": OK,
            "version": self.version,
            "iagents": len(self.iagent_nodes),
            "splits": self.splits,
            "merges": self.merges,
            "takeovers": self.takeovers,
            "journal_len": len(self.journal),
            "role": self.role,
            "rank": self.rank,
            "epoch": self.epoch,
            "syncs": self.syncs,
            "demotions": self.demotions,
            "promotions": [dict(entry) for entry in self.promotions],
            "promoted_at": self.promoted_at,
            "epoch_claims": [
                [epoch, name] for epoch, name in self.epoch_claims
            ],
            "shard": self.shard,
            "shards": self.shards,
            "owned": sorted(self.owned),
            "map_version": self.map_version,
            "xshard_merges": self.xshard_merges,
            "xshard_absorbs": self.xshard_absorbs,
            "xshard_aborts": self.xshard_aborts,
        }

    # ------------------------------------------------------------------
    # Replication: standby sync, failure detection, promotion, fencing
    # ------------------------------------------------------------------

    def _op_replica_sync(self, body: Dict) -> Dict:
        """Serve one standby pull: journal delta + coordinator context.

        Reuses the LHAgents' delta protocol for the tree, then adds what
        a standby needs to *become* the coordinator: the node address
        book, the spawn order, the namer position and the epoch.
        """
        if self.role != "primary":
            raise _Reject(
                f"{NOT_PRIMARY}: {self.replica_name} is a standby"
                f" (epoch {self.epoch})"
            )
        reply = self._copy_reply(body)
        reply.update(self.state.context())
        return reply

    def _op_new_primary(self, body: Dict) -> Dict:
        """A peer replica announces its promotion to this replica."""
        epoch, claimant = body["epoch"], body.get("claimant")
        if claimant == self.replica_name:
            return {"status": OK, "epoch": self.epoch}
        if epoch <= self.epoch:
            raise _Reject(
                f"{STALE_EPOCH}: announced epoch {epoch} is not above"
                f" {self.replica_name}'s witnessed epoch {self.epoch}"
            )
        self._commit(self.state.raise_epoch(epoch))
        self.primary_addr = (body["host"], body["port"])
        self.last_primary_addr = self.primary_addr
        if self.role == "primary":
            self._demote(f"deposed by {claimant or 'a peer'} at epoch {epoch}")
        elif self.detector is not None:
            self.detector.record_ok(self._now())
        return {"status": OK, "epoch": self.epoch}

    def _apply_sync_reply(self, reply: Dict) -> None:
        """Fold one ``replica-sync`` reply into this standby's state."""
        mode, entries = self.state.absorb(reply)
        for entry in entries:
            self._commit(entry)
        if mode != "delta":
            # The function was replaced, not stepped: no entry says so.
            if mode == "resync":
                # A delta that does not fit this copy (e.g. served by a
                # primary whose bundle and journal disagreed): the copy
                # is dropped and the next beat pulls a full bundle
                # rather than dying mid-tail.
                self._log("resync", reason="un-replayable delta")
            self._snapshot()
        self.syncs += 1

    async def _standby_loop(self) -> None:
        """Tail the primary; promote when the failure detector fires."""
        config = self.config
        detector = FailureDetector(
            rank=max(1, self.rank),
            heartbeat_timeout=config.heartbeat_timeout,
            promotion_stagger=config.promotion_stagger,
        )
        self.detector = detector
        # Sync *before* the first sleep: a standby must learn the
        # primary's epoch (and tree) as early as possible, so a primary
        # that dies within the very first heartbeat interval cannot
        # leave the survivor promoting blind from epoch 0.
        while self.role == "standby":
            synced = False
            pause = config.heartbeat_interval
            if self.partitioned:
                # A cut-off standby keeps counting silence but can never
                # pass the promotion preflight below.
                detector.record_failure(self._now())
            else:
                target = self.primary_addr
                if target is None:
                    target = await self._scan_for_primary()
                if target is None:
                    # No address book yet (set_peers races the loop at
                    # boot): retry quickly so the first real sync lands
                    # within milliseconds of startup, not a full beat
                    # later -- a primary that dies young must not leave
                    # its standbys blind at epoch 0.
                    pause = min(0.02, config.heartbeat_interval)
                    detector.record_failure(self._now())
                else:
                    try:
                        reply = await self.channel.call(
                            target,
                            "hagent",
                            "replica-sync",
                            {
                                "since": self.version,
                                "epoch": self.epoch,
                                "rank": self.rank,
                            },
                            timeout=min(
                                config.rpc_timeout, config.heartbeat_timeout / 2
                            ),
                        )
                    except ServiceTimeout:
                        detector.record_failure(self._now())
                    except ServiceRpcError as error:
                        detector.record_failure(
                            self._now(), refused=error.refused
                        )
                    except RemoteOpError as error:
                        if error.code == NOT_PRIMARY:
                            # Stale pointer (that peer demoted); rediscover.
                            self.primary_addr = None
                        detector.record_failure(self._now())
                    else:
                        self._apply_sync_reply(reply)
                        detector.record_ok(self._now())
                        synced = True
            if synced and self.tree is None:
                # The primary answered but had no tree yet (the sync
                # landed before bootstrap): poll fast until the first
                # real copy arrives. Otherwise a primary that dies
                # within one beat of bootstrapping leaves this standby
                # *blind*, and a blind promotion installs an empty copy
                # over a shard that already has live IAgents.
                pause = min(0.02, config.heartbeat_interval)
            if not synced and detector.should_promote(self._now()):
                if await self._preflight_promotion():
                    await self._promote()
                    return
            if self.store is not None:
                self.store.sync_due()
            await asyncio.sleep(pause)

    async def _scan_for_primary(self) -> Optional[Address]:
        """Poll the peer replicas for whoever answers as primary."""
        best = await scan_primary(
            self.channel,
            [self.peers[rank] for rank in sorted(self.peers) if rank != self.rank],
            0.3,
        )
        if best is None:
            return None
        self._commit(self.state.raise_epoch(best[0]))
        self.primary_addr = best[1]
        self.last_primary_addr = best[1]
        return best[1]

    async def _preflight_promotion(self) -> bool:
        """Safety gate before claiming a new epoch.

        Poll the other standbys first: if any of them has witnessed a
        newer epoch (or already promoted), adopt it instead of claiming.
        Otherwise require a majority of the standby set (self included)
        to be reachable -- a fully partitioned standby can therefore
        never claim an epoch the healthy cluster would have to fence.
        """
        if self.partitioned:
            return False
        # The (ex-)primary is not part of the voting set. ``primary_addr``
        # may have been reset to ``None`` after a NOT_PRIMARY bounce off
        # a demoted peer -- fall back to the last known pointer so that
        # a primary that demoted and then died is still excluded, not
        # silently counted as a standby whose vote can never arrive.
        known_primary = (
            self.primary_addr
            if self.primary_addr is not None
            else self.last_primary_addr
        )
        standby_ranks = [
            rank
            for rank, addr in self.peers.items()
            if rank != self.rank and addr != known_primary
        ]
        reached = 0
        best_peer_version = 0
        for rank in sorted(standby_ranks):
            try:
                reply = await self.channel.call(
                    self.peers[rank], "hagent", "ping", timeout=0.3
                )
            except (ServiceRpcError, RemoteOpError):
                continue
            reached += 1
            best_peer_version = max(best_peer_version, reply.get("version", 0))
            peer_epoch = reply.get("epoch", 0)
            if peer_epoch > self.epoch or (
                reply.get("role") == "primary" and peer_epoch >= self.epoch
            ):
                # The cluster already moved on: follow, do not promote.
                self._commit(self.state.raise_epoch(peer_epoch))
                if reply.get("role") == "primary":
                    self.primary_addr = self.peers[rank]
                    self.last_primary_addr = self.primary_addr
                if self.detector is not None:
                    self.detector.record_ok(self._now())
                return False
        if self.version == 0 and self.tree is None and best_peer_version > 0:
            # This replica is *blind* (never completed a sync since it
            # (re)joined) while a reachable standby holds a real copy:
            # defer -- that peer's own detector fires within its rank
            # stagger and promotes with the tree intact. Promoting
            # blind here would install an empty copy over live state.
            # With no better candidate reachable, fall through: a blind
            # claim beats a leaderless shard (soft state re-fills it).
            return False
        total = len(standby_ranks) + 1
        return (reached + 1) * 2 > total

    async def _promote(self) -> None:
        """Claim the next epoch and take over as primary."""
        # The claim must hit disk before any fenced op carries it.
        self._commit(self.state.raise_epoch(next_epoch(self.epoch)))
        self._snapshot()
        self.role = "primary"
        # Any cross-shard grant the deposed primary issued died with its
        # epoch; a committing initiator will be refused and abort.
        self._xshard_grant = None
        self.primary_addr = self.addr
        self.last_primary_addr = self.addr
        self.promoted_at = self._now()
        self.promotions.append(
            {"epoch": self.epoch, "version": self.version, "at": self.promoted_at}
        )
        self._record_claim()
        # Grace period: no shard reported to *this* replica yet; give
        # each one a full liveness window before takeovers may fire.
        now = self._now()
        for owner in self.iagent_nodes:
            self._last_report[owner] = now
        self._log("promote", epoch=self.epoch, rank=self.rank)
        self.spawn(self._monitor_loop(), name="hagent-monitor")
        await self._announce_primary()

    async def _announce_primary(self) -> None:
        """Push ``new-primary`` to every node and peer replica.

        Best-effort: a node that cannot be reached learns the address
        through its own re-discovery scan instead. A ``stale-epoch``
        rejection means another replica won the epoch race -- demote.
        """
        assert self.addr is not None
        body = {
            "epoch": self.epoch,
            "claimant": self.replica_name,
            "host": self.addr[0],
            "port": self.addr[1],
            "shard": self.shard,
        }
        lost_race = False
        for addr in list(self.node_addrs.values()):
            try:
                await self.channel.call(
                    addr,
                    "host",
                    "new-primary",
                    dict(body),
                    timeout=self.config.rpc_timeout,
                )
            except RemoteOpError as error:
                if error.code == STALE_EPOCH:
                    lost_race = True
            except ServiceRpcError:
                continue
        for rank, addr in self.peers.items():
            if rank == self.rank:
                continue
            try:
                await self.channel.call(
                    addr, "hagent", "new-primary", dict(body), timeout=0.5
                )
            except (ServiceRpcError, RemoteOpError):
                continue
        if lost_race:
            self._demote("lost the epoch race during announcement")

    def _demote(self, reason: str) -> None:
        """Step down to standby (fenced, deposed, or told of a successor)."""
        if self.role != "primary":
            return
        self.role = "standby"
        self.demotions += 1
        self.primary_addr = None
        self._xshard_grant = None
        self._log("demote", reason=reason, epoch=self.epoch)
        self.spawn(self._standby_loop(), name=f"{self.replica_name}-sync")

    async def kill(self) -> None:
        """Abrupt crash for fault injection: no final snapshot, no
        clean store close -- on-disk state is whatever the fsync policy
        already made durable, exactly like a killed process."""
        await FramedServer.stop(self)
        if self.store is not None:
            self.store.abort()
        await self.channel.close()

    # ------------------------------------------------------------------
    # Load reports -> rehash decisions (paper §4.1-§4.2)
    # ------------------------------------------------------------------

    def _op_load_report(self, body: Dict) -> Dict:
        owner = body["owner"]
        node = self.iagent_nodes.get(owner)
        if node is None or body.get("node", node) != node:
            # Not a leaf, or not where the tree hosts it: an orphan (a
            # re-host whose reply was lost), which retires itself.
            return {"status": "stale"}
        now = self._now()
        self._last_report[owner] = now
        verdict = self.policy.decide(body, now, len(self.tree) > 1)
        if verdict == "split":
            self.spawn(self._split(owner), name=f"split-{owner.short()}")
        elif verdict == "merge":
            self.spawn(self._merge(owner), name=f"merge-{owner.short()}")
        return {"status": OK}

    async def _split(self, owner: AgentId) -> None:
        await self._step(split_saga(self, owner))

    async def _merge(self, owner: AgentId) -> None:
        await self._step(merge_saga(self, owner))

    async def _step(self, saga: Generator) -> Any:
        """Drive one :mod:`repro.core.rehashing` saga to completion and
        return what it returns: serialised by the rehash lock, every
        request performed here, a failed one answered ``None`` -- or,
        when another shard's primary refused it, :class:`Refused`."""
        brief = min(0.5, self.config.rpc_timeout)
        async with self._rehash_lock:
            reply: Any = None
            while True:
                try:
                    kind, *args = saga.send(reply)
                except StopIteration as done:
                    return done.value
                except Refused as refusal:
                    raise _Reject(str(refusal)) from None
                reply = None
                try:
                    if kind == "call":
                        target, node, op, body = args
                        # No known node: a failed call like any other.
                        reply = node and await self._rpc_node(node, op, body, target)
                    elif kind == "hand-off":
                        reply = await self._hand_off(*args)
                    elif kind == "spawn":
                        owner, node = self.namer.next_id(), self._pick_node()
                        await self._rpc_node(
                            node, "host-iagent", {"owner": owner, "pattern": None}
                        )
                        self._last_report[owner] = self._now()
                        reply = owner, node
                    elif kind == "retire":
                        owner, node = args
                        self._last_report.pop(owner, None)
                        if node is not None:
                            await self._rpc_node(node, "retire-iagent", {"owner": owner})
                    elif kind == "restore":
                        # Unfenced: a deposed initiator undoes its drain too.
                        owner, node, bundle = args
                        addr = self.node_addrs.get(node)
                        reply = addr and await self.channel.call(
                            addr, owner, "adopt", bundle, timeout=self.config.rpc_timeout
                        )
                    elif kind == "shard":
                        shard, op, body = args
                        peers = self.shard_peers.get(shard, [])
                        best = await scan_primary(self.channel, peers, brief, shard)
                        if best is None:
                            # An election may be in flight: an in-doubt
                            # commit re-sends at this pace, not in a spin.
                            await asyncio.sleep(brief)
                        else:
                            # It may wait behind that shard's rehash lock.
                            timeout = 2 * self.config.rpc_timeout
                            reply = await self.channel.call(
                                best[1], "hagent", op, body, timeout=timeout
                            )
                    else:  # "broadcast"
                        shard, op, body = args
                        for addr in self.shard_peers.get(shard, []):
                            try:
                                await self.channel.call(addr, "hagent", op, body, timeout=brief)
                            except (ServiceRpcError, RemoteOpError):
                                continue
                except RemoteOpError as error:
                    if kind == "shard":
                        reply = Refused(str(error))
                except ServiceRpcError:
                    pass

    async def _hand_off(
        self, sources: List[Tuple], destinations: List[Tuple]
    ) -> Optional[Dict[Any, int]]:
        """A saga's ``hand-off``: one fenced ``hand-off`` per source, in
        order. Each source pushes what it gives up straight to the
        destinations, at the addresses this node book holds, so no
        record crosses this process. The budget is two timeouts: a
        source answers after its pushes do. A destination no push was
        acknowledged by then gets its pattern in a record-less fenced
        ``adopt`` from here, as the relay's adopt gave it whatever the
        sources did. Answers ``{destination: records taken}`` over the
        acknowledged pushes, or ``None`` when no source answered."""
        pushes = [
            (owner, self.node_addrs.get(node), pattern)
            for owner, node, pattern in destinations
        ]
        took: Dict[Any, int] = {}
        answered = False
        for owner, node, keep in sources:
            body = {"pattern": keep, "destinations": pushes}
            try:
                reply = node and await self._rpc_node(
                    node, "hand-off", body, owner, timeout=2 * self.config.rpc_timeout
                )
            except (ServiceRpcError, RemoteOpError):
                continue  # a stale-epoch refusal has demoted this replica
            if not reply:
                continue
            answered = True
            for (destination, _addr, _pattern), count in zip(pushes, reply["took"]):
                if count is not None:
                    took[destination] = took.get(destination, 0) + count
        for owner, node, pattern in destinations:
            if owner not in took and node is not None:
                try:
                    await self._rpc_node(node, "adopt", {"pattern": pattern}, owner)
                except (ServiceRpcError, RemoteOpError):
                    pass
        return took if answered else None

    # ------------------------------------------------------------------
    # Cross-shard merge: hand a whole prefix to the sibling shard.
    #
    # Fenced two-phase through BOTH shards' epochs: the initiator drains
    # its leaves with ops fenced by its own epoch (a deposed initiator
    # is refused by its nodes and aborts), and the absorbing side runs a
    # fenced op against its own nodes before acknowledging the commit (a
    # deposed absorber is refused by *its* nodes, demotes, and rejects)
    # -- so a stale primary on either side can never serialize the
    # hand-off, and the records land on exactly one shard's serve path.
    # Both sides are sagas: shard_merge_saga and shard_absorb_saga.
    # ------------------------------------------------------------------

    async def _op_shard_merge(self, body: Dict) -> Dict:
        """Driver/test trigger for :meth:`initiate_shard_merge`."""
        return await self.initiate_shard_merge(body.get("into"))

    async def initiate_shard_merge(self, into: Optional[int] = None) -> Dict:
        """Merge this whole shard's subtree into a sibling shard."""
        buddy = into if into is not None else self.shard ^ 1
        if self.shards < 2 or buddy == self.shard or not 0 <= buddy < self.shards:
            raise _Reject("precondition: no sibling shard to merge into")
        if self.role != "primary":
            raise _Reject(f"{NOT_PRIMARY}: {self.replica_name} is a standby")
        if self.owned != {self.shard}:
            raise _Reject(
                "precondition: shard already released or holding absorbed"
                f" prefixes ({sorted(self.owned)})"
            )
        return await self._step(shard_merge_saga(self, buddy))

    def _op_shard_merge_prepare(self, body: Dict) -> Dict:
        """Absorbing side, phase 1: record the pending hand-off."""
        from_shard = body["from_shard"]
        if from_shard == self.shard or not 0 <= from_shard < self.shards:
            raise _Reject(f"precondition: cannot absorb shard {from_shard}")
        if self.shard not in self.owned:
            raise _Reject(
                f"{WRONG_SHARD}: {self.replica_name} released its own prefix"
            )
        if self.tree is None:
            raise _Reject("precondition: absorbing shard not bootstrapped yet")
        self._xshard_grant = {
            "from_shard": from_shard,
            "epoch": body["epoch"],
            "buddy_epoch": self.epoch,
        }
        return {"status": OK, "epoch": self.epoch, "claimant": self.replica_name}

    async def _op_shard_merge_commit(self, body: Dict) -> Dict:
        """Absorbing side, phase 2: the grant is checked under the lock."""
        return await self._step(shard_absorb_saga(self, body))

    def _op_shard_release(self, body: Dict) -> Dict:
        """The absorbing shard tells this (initiator-side) replica its
        prefix was handed off -- idempotent, any role."""
        if body["from_shard"] == self.shard and self.shard in self.owned:
            self.apply_shard_release(body["into"])
        return {"status": OK, "owned": sorted(self.owned)}

    def apply_shard_release(self, into: int) -> None:
        """Durably mark this shard's prefix as served by ``into``."""
        self._commit(self.state.release_shard(into))

    # ------------------------------------------------------------------
    # Liveness monitoring and takeover
    # ------------------------------------------------------------------

    async def _monitor_loop(self) -> None:
        config = self.config
        while True:
            await asyncio.sleep(config.mechanism.report_interval)
            if self.store is not None:
                self.store.sync_due()
            if self.role != "primary":
                return  # demoted: the standby loop took over
            if self.tree is None or self.partitioned:
                continue
            now = self._now()
            for owner in list(self.iagent_nodes):
                last = self._last_report.get(owner, now)
                if now - last < LIVENESS_TIMEOUT:
                    continue
                alive = False
                for attempt in range(LIVENESS_PING_RETRIES):
                    try:
                        node = self.iagent_nodes.get(owner)
                        await self._rpc_node(node, "ping", None, owner, timeout=0.5)
                        alive = True
                        break
                    except (ServiceRpcError, RemoteOpError):
                        await asyncio.sleep(0.05 * (attempt + 1))
                if alive or await self._step(takeover_saga(self, owner)):
                    self._last_report[owner] = self._now()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _pick_node(self) -> str:
        self._spawn_round_robin += 1
        order = self.node_order
        return order[self._spawn_round_robin % len(order)]

    def _fenced(self, body: Optional[Dict]) -> Dict:
        """Stamp an outgoing coordinator op with this replica's epoch.

        The shard rides along so the receiving node checks the op
        against *this* shard's fence, not another coordinator's.
        """
        stamped = dict(body or {})
        stamped.setdefault("epoch", self.epoch)
        stamped.setdefault("claimant", self.replica_name)
        stamped.setdefault("shard", self.shard)
        return stamped

    async def _rpc_node(
        self,
        node: str,
        op: str,
        body: Optional[Dict],
        target: Any = "host",
        timeout: Optional[float] = None,
    ) -> Dict:
        """One fenced coordinator op to ``target`` on ``node`` (default:
        the node's own ``host`` endpoint). A node not in the book -- or
        ``None``, an IAgent with no known node -- fails like a timeout."""
        if self.partitioned:
            raise ServiceRpcError(
                f"{op} to {target} on {node} blocked:"
                f" {self.replica_name} is partitioned",
                op=op,
            )
        if self.config.coordinator_rpc_delay:
            await asyncio.sleep(self.config.coordinator_rpc_delay)
        addr = self.node_addrs.get(node)
        if addr is None:
            raise ServiceRpcError(f"{op} to {target}: no address for {node}", op=op)
        try:
            return await self.channel.call(
                addr,
                target,
                op,
                self._fenced(body),
                timeout=timeout if timeout is not None else self.config.rpc_timeout,
            )
        except RemoteOpError as error:
            if error.code == STALE_EPOCH:
                self._demote(f"fenced by {target} on {node}: {error}")
            raise

    def _publish(self, op: Dict) -> Any:
        """Apply ``op`` to the primary copy and journal it durably."""
        entry, outcome = self.state.publish(op)
        self._commit(entry)
        return outcome

    def _log(self, event: str, **fields: Any) -> None:
        entry = {"event": event, "version": self.version, **fields}
        self.rehash_log.append(entry)
        if self.tracer is not None:
            self.tracer.record_now(
                "rehash",
                event=event,
                iagents=len(self.tree) if self.tree else 0,
            )

    async def stop(self) -> None:
        await super().stop()
        if self.store is not None:
            self._snapshot()
            self.store.close()
        await self.channel.close()
