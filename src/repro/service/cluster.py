"""Boot and exercise a live localhost cluster.

:func:`run_cluster` is the acceptance harness behind
``python -m repro.harness.cli cluster``: it starts one
:class:`~repro.service.coordinator.HAgentServer` and N
:class:`~repro.service.server.NodeServer` processes-worth of endpoints
in a single event loop, registers a population of mobile agents, then
drives a register/locate/migrate workload through per-node
:class:`~repro.service.client.ServiceClient` instances -- every RPC a
real TCP round-trip through the wire codec.

The driver keeps its own ground-truth map of where every agent *should*
be, so each ``locate`` is checked, not just completed. With
``crash_iagent=True`` it kills the record-heaviest IAgent half way
through the run and relies on the recovery chain -- HAgent liveness
monitor, takeover re-hosting, journaled ``move``, soft-state
re-registration, client refresh-and-retry -- to keep the success rate
at 100%. Stale-secondary retries are expected and *counted*, never
hidden.

:func:`serve_cluster` boots the same topology and parks until
cancelled; it backs the ``serve`` subcommand for interactive poking.
"""

from __future__ import annotations

import asyncio
import random
from contextlib import asynccontextmanager
from dataclasses import dataclass, field, replace
from typing import AsyncIterator, Dict, List, Optional, Tuple

from repro.metrics.trace import Tracer, wall_clock
from repro.platform.chaos import ChaosSchedule
from repro.platform.naming import AgentId, AgentNamer
from repro.service.chaos import (
    LiveChaosDriver,
    live_chaos_palette,
    netem_chaos_palette,
)
from repro.service.client import (
    BACKOFF_BASE,
    ClientConfig,
    ClientCounters,
    RemoteOpError,
    ServiceClient,
    ServiceLocateError,
    ServiceRpcError,
)
from repro.service.coordinator import HAgentServer
from repro.service.netem import NetemController
from repro.service.replication import sharded_single_primary_violations
from repro.service.routing import validate_shards
from repro.service.server import REREGISTER_INTERVAL, NodeServer, ServiceConfig
from repro.workloads.scenarios import churn_schedule

__all__ = ["ClusterConfig", "ClusterReport", "run_cluster", "serve_cluster"]

Address = Tuple[str, int]

#: Workload mix of a run's operations; the remainder registers new agents.
LOCATE_FRACTION = 0.45
MIGRATE_FRACTION = 0.45


@dataclass(frozen=True)
class ClusterConfig:
    """One cluster run: topology, population, workload, faults."""

    nodes: int = 5
    agents: int = 20
    ops: int = 200
    seed: int = 1
    crash_iagent: bool = False
    #: Crash the record-heaviest IAgent mid-run, then warm-restart it in
    #: place from its WAL + snapshots (requires ``service.data_dir``).
    restart_iagent: bool = False
    #: HAgent replicas to run (rank 0 = initial primary, the rest are
    #: hot standbys tailing its journal).
    hagent_replicas: int = 1
    #: Kill the primary HAgent mid-run; a standby must promote within
    #: one heartbeat timeout and the run must still verify 100%.
    #: Requires ``hagent_replicas >= 2``.
    crash_hagent: bool = False
    #: Coordinator shards (a power of two): each runs its own HAgent
    #: replica set serializing the rehashing of its own id-prefix
    #: subtree (see :mod:`repro.service.routing`).
    shards: int = 1
    #: Seed of a live chaos schedule to run alongside the workload
    #: (None = no chaos). See :mod:`repro.service.chaos`.
    chaos_seed: Optional[int] = None
    #: Wall-clock length of the chaos schedule, settle tail included.
    chaos_duration: float = 6.0
    #: Seed of a hostile-network schedule (wire-level faults through a
    #: :class:`~repro.service.netem.NetemController`: latency/jitter,
    #: loss, slow-loris writes, resets, asymmetric partitions). None =
    #: clean network. Shares ``chaos_duration``.
    netem_seed: Optional[int] = None
    #: Seed of a node join/leave churn process (seeded
    #: ``partition-node``/``heal-node`` pairs from
    #: :func:`repro.workloads.scenarios.churn_schedule`). None = stable
    #: membership. Shares ``chaos_duration``.
    churn_seed: Optional[int] = None
    service: ServiceConfig = field(default_factory=ServiceConfig)
    client: ClientConfig = field(default_factory=ClientConfig)
    #: Trace the run, streaming its events to this JSON-lines file.
    trace_jsonl: Optional[str] = None


@dataclass
class ClusterReport:
    """What happened, with enough counters to judge it."""

    nodes: int = 0
    agents: int = 0
    ops: int = 0
    duration: float = 0.0
    locates: int = 0
    locate_failures: int = 0
    locate_mismatches: int = 0
    registers: int = 0
    updates: int = 0
    retries: int = 0
    refreshes: int = 0
    not_responsible: int = 0
    no_record_retries: int = 0
    transport_retries: int = 0
    #: Batched RPCs sent (host republish + any driver batching) and the
    #: items they settled without a single-op fallback.
    batch_rpcs: int = 0
    batched_ops: int = 0
    splits: int = 0
    merges: int = 0
    takeovers: int = 0
    iagents_final: int = 0
    hash_version: int = 0
    crashed: bool = False
    records_lost: int = 0
    final_verified: bool = False
    restarted: bool = False
    records_recovered: int = 0
    wal_replayed: int = 0
    recovery_s: float = 0.0
    #: True iff the restart came back with records from *disk* fast
    #: enough that soft-state republish cannot be the explanation.
    recovery_warm: bool = False
    restart_verified: bool = False
    #: HAgent replication / failover outcome.
    hagent_replicas: int = 1
    hagent_crashed: bool = False
    promotions: int = 0
    #: Wall seconds from the primary kill to the standby's promotion
    #: (None when no crash was injected).
    promotion_latency_s: Optional[float] = None
    #: The latency budget: one heartbeat timeout.
    promotion_budget_s: float = 0.0
    promoted_rank: Optional[int] = None
    epoch_final: int = 1
    fence_rejections: int = 0
    demotions: int = 0
    orphans_retired: int = 0
    #: The single-fenced-primary-per-epoch invariant held across every
    #: replica's claim history.
    single_primary_ok: bool = True
    #: Every live standby's tree copy converged to the primary's.
    replicas_converged: bool = True
    #: Chaos run summary (seed, digest, applied events), or None.
    chaos: Optional[Dict] = None
    #: Coordinator shards the deployment ran.
    shards: int = 1
    #: Cross-shard merges initiated / prefixes absorbed / aborts.
    xshard_merges: int = 0
    xshard_absorbs: int = 0
    xshard_aborts: int = 0
    #: Aggregated node-side routing-cache counters, or None (1 shard
    #: keeps reporting them too -- the cache exists either way).
    routing: Optional[Dict] = None
    #: Client ops re-resolved after a ``wrong-shard`` bounce.
    wrong_shard_retries: int = 0
    #: Hedged duplicate reads fired / won (zero on clean runs).
    hedges: int = 0
    hedge_wins: int = 0
    #: Hostile-network run summary (seed, schedule digest, the netem
    #: controller's fault-log digest -- the replay artifact -- and
    #: frame drop/delay counts), or None.
    netem: Optional[Dict] = None
    #: Churn run summary (seed, digest, applied events), or None.
    churn: Optional[Dict] = None

    @property
    def passed(self) -> bool:
        """Every locate succeeded, agreed with ground truth, and the
        post-run sweep re-located the whole population. A warm restart
        must additionally have recovered its records from disk within
        one re-registration interval and re-verified the population.
        A primary-HAgent crash must have promoted exactly one fenced
        standby within the heartbeat-timeout budget, and any replicated
        run must end with converged copies and the single-primary-per-
        epoch invariant intact."""
        replication_ok = self.single_primary_ok and self.replicas_converged
        failover_ok = not self.hagent_crashed or (
            self.promotions >= 1
            and self.promotion_latency_s is not None
            and self.promotion_latency_s <= self.promotion_budget_s
        )
        return (
            self.locate_failures == 0
            and self.locate_mismatches == 0
            and self.final_verified
            and (not self.restarted or (self.recovery_warm and self.restart_verified))
            and replication_ok
            and failover_ok
        )

    def to_dict(self) -> Dict:
        record = dict(self.__dict__)
        record["passed"] = self.passed
        return record

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"cluster run: {status}",
            f"  topology    {self.nodes} nodes, {self.iagents_final} IAgents "
            f"(hash v{self.hash_version}), {self.agents} mobile agents",
            f"  workload    {self.ops} ops in {self.duration:.2f}s "
            f"({self.locates} locates, {self.updates} updates, "
            f"{self.registers} registers)",
            f"  batching    {self.batch_rpcs} batched RPCs settling "
            f"{self.batched_ops} ops without fallback",
            f"  correctness {self.locate_failures} locate failures, "
            f"{self.locate_mismatches} mismatches, "
            f"final sweep {'ok' if self.final_verified else 'FAILED'}",
            f"  staleness   {self.retries} retries "
            f"({self.not_responsible} not-responsible, "
            f"{self.no_record_retries} no-record, "
            f"{self.transport_retries} transport), "
            f"{self.refreshes} secondary refreshes",
            f"  rehashing   {self.splits} splits, {self.merges} merges, "
            f"{self.takeovers} takeovers",
        ]
        if self.shards > 1:
            routing = self.routing or {}
            lines.append(
                f"  sharding    {self.shards} coordinator shards, "
                f"{routing.get('cached_hits', 0)} cached routes / "
                f"{routing.get('discoveries', 0)} discoveries, "
                f"{self.wrong_shard_retries} wrong-shard retries, "
                f"{self.xshard_merges} cross-shard merges "
                f"({self.xshard_absorbs} absorbed, {self.xshard_aborts} aborted)"
            )
        if self.crashed:
            lines.append(
                f"  fault       crashed 1 IAgent mid-run "
                f"({self.records_lost} records lost, all recovered)"
            )
        if self.restarted:
            lines.append(
                f"  fault       warm-restarted 1 IAgent mid-run: "
                f"{self.records_recovered}/{self.records_lost} records "
                f"recovered from disk in {self.recovery_s * 1000:.1f}ms "
                f"(wal replay {self.wal_replayed}, "
                f"{'warm' if self.recovery_warm else 'COLD'}, population "
                f"{'re-verified' if self.restart_verified else 'UNVERIFIED'})"
            )
        if self.hagent_replicas > 1:
            lines.append(
                f"  replication {self.hagent_replicas} HAgent replicas, "
                f"epoch {self.epoch_final}, {self.fence_rejections} fenced ops, "
                f"copies {'converged' if self.replicas_converged else 'DIVERGED'}, "
                f"single-primary {'ok' if self.single_primary_ok else 'VIOLATED'}"
            )
        if self.hagent_crashed:
            latency = (
                f"{self.promotion_latency_s * 1000:.0f}ms"
                if self.promotion_latency_s is not None
                else "NEVER"
            )
            lines.append(
                f"  failover    killed primary HAgent mid-run; rank "
                f"{self.promoted_rank} promoted in {latency} "
                f"(budget {self.promotion_budget_s * 1000:.0f}ms, "
                f"{self.promotions} promotions, {self.demotions} demotions)"
            )
        if self.chaos is not None:
            lines.append(
                f"  chaos       seed {self.chaos['seed']}, "
                f"{len(self.chaos['applied'])} events applied "
                f"(digest {self.chaos['digest'][:12]}...)"
            )
        if self.hedges:
            lines.append(
                f"  resilience  {self.hedges} hedges ({self.hedge_wins} won)"
            )
        if self.netem is not None:
            lines.append(
                f"  netem       seed {self.netem['seed']}, "
                f"{len(self.netem['applied'])} link faults applied, "
                f"{self.netem['frames_dropped']} frames dropped / "
                f"{self.netem['frames_delayed']} delayed "
                f"(fault log {self.netem['fault_log_digest'][:12]}...)"
            )
        if self.churn is not None:
            lines.append(
                f"  churn       seed {self.churn['seed']}, "
                f"{len(self.churn['applied'])} leave/join events "
                f"(digest {self.churn['digest'][:12]}...)"
            )
        return "\n".join(lines)


class _Cluster:
    """The booted topology plus the driver's ground truth."""

    def __init__(self, config: ClusterConfig) -> None:
        #: Wire-level fault injection, shared by every server and client
        #: in the topology (installed through the frozen configs below).
        self.netem: Optional[NetemController] = None
        if config.netem_seed is not None:
            self.netem = NetemController(config.netem_seed)
            config = replace(
                config,
                service=replace(config.service, netem=self.netem),
                client=replace(config.client, netem=self.netem),
            )
        self.config = config
        self.tracer: Optional[Tracer] = None
        if config.trace_jsonl:
            self.tracer = Tracer(clock=wall_clock())
            self.tracer.write_jsonl(config.trace_jsonl)
        validate_shards(config.shards)
        #: Live HAgent replicas per shard; killed ones move to
        #: :attr:`dead_hagents` (they remember their own shard).
        self.shard_hagents: Dict[int, List[HAgentServer]] = {
            shard: [
                HAgentServer(
                    config.service,
                    tracer=self.tracer,
                    rank=rank,
                    shard=shard,
                    shards=config.shards,
                )
                for rank in range(max(1, config.hagent_replicas))
            ]
            for shard in range(config.shards)
        }
        self.dead_hagents: List[HAgentServer] = []
        self.hagent_crashed_at: Optional[float] = None
        #: Every shard's replica address book, filled by :meth:`start`.
        self.shard_books: Dict[int, List[Address]] = {}
        self.nodes: List[NodeServer] = []
        self.clients: List[ServiceClient] = []
        self.rng = random.Random(config.seed)
        self.namer = AgentNamer(seed=config.seed)
        #: agent id -> (home node index, sequence number). The truth the
        #: protocol's answers are checked against.
        self.truth: Dict[AgentId, Tuple[int, int]] = {}

    @property
    def hagents(self) -> List[HAgentServer]:
        """Every live replica across every shard (flat view)."""
        return [h for replicas in self.shard_hagents.values() for h in replicas]

    def live_replicas(self, shard: int = 0) -> List[HAgentServer]:
        return self.shard_hagents[shard]

    def primary(self, shard: int = 0) -> HAgentServer:
        """The live replica currently acting as ``shard``'s primary
        (highest epoch), falling back to the lowest rank while an
        election is in flight."""
        replicas = self.shard_hagents[shard]
        primaries = [h for h in replicas if h.role == "primary"]
        if primaries:
            return max(primaries, key=lambda h: h.epoch)
        return min(replicas, key=lambda h: h.rank)

    def node_by_name(self, name: str) -> NodeServer:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    async def start(self) -> None:
        for shard, replicas in sorted(self.shard_hagents.items()):
            peers: Dict[int, Tuple[str, int]] = {}
            for hagent in replicas:
                peers[hagent.rank] = await hagent.start()
            for hagent in replicas:
                hagent.set_peers(peers)
            self.shard_books[shard] = [
                h.addr for h in replicas if h.addr is not None
            ]
        # Every replica learns every shard's address book so cross-shard
        # merges can find (and fence against) their buddy coordinator.
        for replicas in self.shard_hagents.values():
            for hagent in replicas:
                hagent.set_shard_peers(self.shard_books)
        primary_addr = self.shard_books[0][0]
        extra_books = {
            shard: addrs
            for shard, addrs in self.shard_books.items()
            if shard != 0
        }
        for index in range(self.config.nodes):
            node = NodeServer(
                f"node-{index}",
                primary_addr,
                self.config.service,
                tracer=self.tracer,
                hagent_addrs=self.shard_books[0],
                shards=self.config.shards,
                shard_addrs=extra_books or None,
            )
            await node.start()
            self.nodes.append(node)
            if self.netem is not None:
                assert node.addr is not None
                self.netem.bind(node.name, node.addr)
        # Bootstrap each shard's single-IAgent hash function (paper
        # §2.2); shard 0's bootstrap body is the pre-sharding one.
        await self.nodes[0].channel.call(
            primary_addr, "hagent", "bootstrap", {}
        )
        for shard in range(1, self.config.shards):
            await self.nodes[0].channel.call(
                self.shard_books[shard][0],
                "hagent",
                "bootstrap",
                {"shard": shard},
            )
        # Booted means replicated: a primary that died before a standby's
        # first sync would leave that standby first in line, and blind.
        await self.replicas_converged()
        for node in self.nodes:
            assert node.addr is not None
            self.clients.append(
                ServiceClient(
                    node.name,
                    node.addr,
                    config=self.config.client,
                    rng=random.Random(self.config.seed + 1),
                    tracer=self.tracer,
                )
            )

    async def stop(self) -> None:
        for client in self.clients:
            await client.close()
        for node in self.nodes:
            await node.stop()
        for hagent in self.hagents:
            await hagent.stop()
        if self.netem is not None:
            self.netem.shutdown()
        if self.tracer is not None:
            self.tracer.close_sink()

    # -- HAgent failover ------------------------------------------------

    async def crash_primary_hagent(self, shard: int = 0) -> Dict:
        """Kill ``shard``'s current primary abruptly; record the instant."""
        primary = self.primary(shard)
        crashed_at = primary._now()  # the clock promoted_at is stamped with
        await primary.kill()
        self.shard_hagents[shard].remove(primary)
        self.dead_hagents.append(primary)
        self.hagent_crashed_at = crashed_at
        return {"rank": primary.rank, "shard": shard, "crashed_at": crashed_at}

    async def restart_killed_hagent(self, shard: int = 0) -> Optional[HAgentServer]:
        """Bring ``shard``'s most recently killed replica back as a standby.

        Reuses the old rank and port, so every peer address book and
        node re-discovery list stays valid; durable state (if any) is
        recovered from the replica's own WAL + snapshots, and the
        standby sync loop pulls it level with the current primary.
        """
        dead: Optional[HAgentServer] = None
        for index in range(len(self.dead_hagents) - 1, -1, -1):
            if self.dead_hagents[index].shard == shard:
                dead = self.dead_hagents.pop(index)
                break
        if dead is None:
            return None
        assert dead.addr is not None
        replacement = HAgentServer(
            self.config.service,
            tracer=self.tracer,
            rank=dead.rank,
            role="standby",
            shard=shard,
            shards=self.config.shards,
        )
        peers = {
            h.rank: h.addr
            for h in self.shard_hagents[shard]
            if h.addr is not None
        }
        peers[dead.rank] = dead.addr
        await replacement.start(port=dead.addr[1])
        replacement.set_peers(peers)
        replacement.set_shard_peers(self.shard_books)
        self.shard_hagents[shard].append(replacement)
        return replacement

    async def await_promotion(
        self, deadline_s: float, shard: int = 0
    ) -> Optional[HAgentServer]:
        """Wait until a live replica of ``shard`` has promoted, or None."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + deadline_s
        while loop.time() < deadline:
            for hagent in self.shard_hagents[shard]:
                if hagent.role == "primary" and hagent.promoted_at is not None:
                    return hagent
            await asyncio.sleep(0.02)
        return None

    async def reannounce_primary(self, shard: int = 0) -> None:
        """Have ``shard``'s current primary re-broadcast ``new-primary``.

        Used after healing a partition so a deposed, still-convinced
        primary learns the cluster moved on and demotes at the fence.
        """
        primary = self.primary(shard)
        if primary.role == "primary" and primary.promoted_at is not None:
            await primary._announce_primary()

    async def replicas_converged(self, budget_s: float = 3.0) -> bool:
        """True iff every shard's live standbys reach their primary's
        (epoch, version, tree) within ``budget_s``."""
        results = await asyncio.gather(
            *(
                self._shard_converged(shard, budget_s)
                for shard in sorted(self.shard_hagents)
            )
        )
        return all(results)

    async def _shard_converged(self, shard: int, budget_s: float) -> bool:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + budget_s
        while True:
            primary = self.primary(shard)
            spec = primary.tree.to_spec() if primary.tree is not None else None
            diverged = [
                standby
                for standby in self.shard_hagents[shard]
                if standby is not primary
                and not standby.partitioned
                and (
                    standby.epoch != primary.epoch
                    or standby.version != primary.version
                    or (
                        standby.tree.to_spec()
                        if standby.tree is not None
                        else None
                    )
                    != spec
                )
            ]
            if not diverged:
                return True
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(self.config.service.heartbeat_interval)

    def epoch_claims(self) -> List[Tuple[int, str]]:
        """Every primary claim ever made, live and dead replicas alike."""
        claims: List[Tuple[int, str]] = []
        for hagent in self.hagents + self.dead_hagents:
            claims.extend(hagent.epoch_claims)
        return claims

    def epoch_claims_by_shard(self) -> Dict[int, List[Tuple[int, str]]]:
        """Claim histories grouped by shard (epochs are per-shard)."""
        claims: Dict[int, List[Tuple[int, str]]] = {}
        for hagent in self.hagents + self.dead_hagents:
            claims.setdefault(hagent.shard, []).extend(hagent.epoch_claims)
        return claims

    # -- driver operations ----------------------------------------------

    def client_for(self, node_index: int) -> ServiceClient:
        return self.clients[node_index]

    async def spawn_agent(
        self, capabilities: Optional[Dict] = None
    ) -> AgentId:
        """Create a mobile agent on a random home node and register it.

        ``capabilities``, when given, is the agent's typed capability
        set and registers atomically with the location record.
        """
        agent = self.namer.next_id()
        home = self.rng.randrange(len(self.nodes))
        self.truth[agent] = (home, 0)
        await self._notify_host(home, "agent-arrive", agent, 0)
        await self.client_for(home).register(
            agent, self.nodes[home].name, 0, capabilities
        )
        return agent

    async def migrate_agent(self, agent: AgentId) -> None:
        """Move an agent to a new node: arrive, update record, depart."""
        old_home, seq = self.truth[agent]
        new_home = self.rng.randrange(len(self.nodes))
        if new_home == old_home:
            new_home = (old_home + 1) % len(self.nodes)
        seq += 1
        # Arrive first so the new host's re-registration loop covers the
        # agent even if the explicit update below has to ride out a
        # takeover; the sequence number makes the orders equivalent.
        await self._notify_host(new_home, "agent-arrive", agent, seq)
        self.truth[agent] = (new_home, seq)
        await self.client_for(new_home).update(
            agent, self.nodes[new_home].name, seq
        )
        await self._notify_host(old_home, "agent-depart", agent, seq)

    async def locate_agent(self, agent: AgentId, requester: int) -> bool:
        """Locate from a random node; True iff the answer matches truth."""
        try:
            node = await self.client_for(requester).locate(agent)
        except ServiceLocateError:
            return False
        return node == self.nodes[self.truth[agent][0]].name

    async def _heaviest_iagent(self) -> Tuple[AgentId, Tuple[str, int], int]:
        """The reachable IAgent holding the most records, any shard."""
        heaviest, heaviest_node, heaviest_records = None, None, -1
        for shard in sorted(self.shard_hagents):
            primary = self.primary(shard)
            if primary.addr is None or not primary.owned:
                continue  # absorbed shards serve no subtree anymore
            listing = await self.nodes[0].channel.call(
                primary.addr, "hagent", "list-iagents", {}
            )
            for entry in listing["iagents"]:
                if entry["addr"] is None:
                    continue
                try:
                    ping = await self.nodes[0].channel.call(
                        tuple(entry["addr"]), entry["owner"], "ping", {}
                    )
                except (ServiceRpcError, RemoteOpError):
                    continue  # retired by a cross-shard drain, or down
                if ping["records"] > heaviest_records:
                    heaviest = entry["owner"]
                    heaviest_node = tuple(entry["addr"])
                    heaviest_records = ping["records"]
        if heaviest is None or heaviest_node is None:
            # Every listed IAgent was unreachable (partitions, a drain
            # in flight): the fault injector treats this as a skipped
            # event, exactly like a failed ping did pre-sharding.
            raise ServiceRpcError(
                "no reachable IAgent to target", op="list-iagents"
            )
        return heaviest, heaviest_node, heaviest_records

    async def crash_heaviest_iagent(self) -> int:
        """Kill the IAgent holding the most records; return that count."""
        heaviest, heaviest_node, _ = await self._heaviest_iagent()
        reply = await self.nodes[0].channel.call(
            heaviest_node, "host", "crash-iagent", {"owner": heaviest}
        )
        return reply["records_lost"]

    async def restart_heaviest_iagent(self) -> Dict:
        """Crash the record-heaviest IAgent, then warm-restart it in
        place from its own WAL + snapshots; return the recovery report.

        ``records_before`` (the table size the instant before the kill)
        is the ground truth the recovered count is judged against: a
        warm restart must bring *all* of it back from disk.
        """
        heaviest, heaviest_node, records_before = await self._heaviest_iagent()
        reply = await self.nodes[0].channel.call(
            heaviest_node, "host", "restart-iagent", {"owner": heaviest}
        )
        return {
            "records_before": records_before,
            "records_recovered": reply["records_recovered"],
            "wal_replayed": reply["wal_replayed"],
            "recovery_s": reply["recovery_s"],
        }

    async def _notify_host(
        self, node_index: int, op: str, agent: AgentId, seq: int
    ) -> None:
        """Tell a node's host that an agent arrived or left.

        On a real platform this is a node-local event; here it crosses
        the drill's (possibly lossy) wire. It is idempotent and
        seq-stamped, so a transport failure is retried inside the
        client's op deadline instead of killing the driver.
        """
        node = self.nodes[node_index]
        assert node.addr is not None
        client = self.config.client
        loop = asyncio.get_running_loop()
        deadline = loop.time() + client.op_deadline
        while True:
            try:
                await node.channel.call(
                    node.addr, "host", op, {"agent": agent, "seq": seq}
                )
                return
            except ServiceRpcError:
                if loop.time() >= deadline:
                    raise
                await asyncio.sleep(BACKOFF_BASE)

    def merged_counters(self) -> ClientCounters:
        merged = ClientCounters()
        for client in self.clients:
            merged.merge(client.counters)
        return merged


@asynccontextmanager
async def booted_cluster(
    config: Optional[ClusterConfig] = None,
) -> AsyncIterator[_Cluster]:
    """A started cluster as an async context manager.

    Boots the whole topology (HAgent replica sets per shard, node
    servers, per-node service clients) and guarantees teardown on any
    exit path -- the shared entry point for callers that drive their
    own workload against the live wire (the load generator, the RPC
    benchmarks) instead of the scripted :func:`run_cluster` drill.
    """
    cluster = _Cluster(config or ClusterConfig())
    try:
        await cluster.start()
        yield cluster
    finally:
        await cluster.stop()


async def run_cluster(config: Optional[ClusterConfig] = None) -> ClusterReport:
    """Boot, drive, verify, and tear down one cluster; never leaks tasks."""
    config = config or ClusterConfig()
    if config.nodes < 1 or config.agents < 1:
        raise ValueError("cluster needs at least one node and one agent")
    if config.restart_iagent and config.service.data_dir is None:
        raise ValueError("restart_iagent requires service.data_dir (durable state)")
    if config.crash_hagent and config.hagent_replicas < 2:
        raise ValueError("crash_hagent requires hagent_replicas >= 2")
    cluster = _Cluster(config)
    report = ClusterReport(nodes=config.nodes)
    report.shards = config.shards
    report.hagent_replicas = max(1, config.hagent_replicas)
    report.promotion_budget_s = config.service.heartbeat_timeout
    loop = asyncio.get_running_loop()
    started = loop.time()
    chaos_driver: Optional[LiveChaosDriver] = None
    extra_chaos: List[LiveChaosDriver] = []
    netem_driver: Optional[LiveChaosDriver] = None
    churn_driver: Optional[LiveChaosDriver] = None
    try:
        await cluster.start()
        agents: List[AgentId] = []
        for _ in range(config.agents):
            agents.append(await cluster.spawn_agent())

        if config.netem_seed is not None:
            # A pure wire-fault schedule over the node links; replaying
            # the same seed replays the same fault log bit for bit (the
            # controller's log digest is the artifact CI diffs).
            netem_schedule = ChaosSchedule.generate(
                config.netem_seed,
                config.chaos_duration,
                nodes=[node.name for node in cluster.nodes],
                kinds=netem_chaos_palette(),
            )
            netem_driver = LiveChaosDriver(cluster, netem_schedule)
            netem_driver.start()
        if config.churn_seed is not None:
            churn = churn_schedule(
                config.churn_seed,
                config.chaos_duration,
                nodes=[node.name for node in cluster.nodes],
            )
            churn_driver = LiveChaosDriver(cluster, churn)
            churn_driver.start()

        if config.chaos_seed is not None:
            # Shard 0's schedule is generated from exactly the inputs a
            # single-shard run uses, so its digest (and replay) is
            # byte-identical whatever ``shards`` is.
            schedule = ChaosSchedule.generate(
                config.chaos_seed,
                config.chaos_duration,
                nodes=[node.name for node in cluster.nodes],
                kinds=live_chaos_palette(config.service.data_dir is not None),
            )
            chaos_driver = LiveChaosDriver(cluster, schedule)
            chaos_driver.start()
            # Further shards get their own coordinator-fault schedules
            # (derived seeds); node/IAgent faults stay with shard 0's
            # driver -- they are topology-wide, not per-coordinator.
            # Partitions only: a crash+restart leaves a diskless replica
            # with an unsynced (empty) copy, and promoting *that* under
            # a follow-up partition is a known pre-sharding hazard --
            # shard 0's full palette already covers crash faults.
            if config.shards > 1 and config.hagent_replicas >= 2:
                for shard in range(1, config.shards):
                    extra = ChaosSchedule.generate(
                        config.chaos_seed + 7919 * shard,
                        config.chaos_duration,
                        nodes=[node.name for node in cluster.nodes],
                        kinds=["partition-hagent"],
                    )
                    driver = LiveChaosDriver(cluster, extra, shard=shard)
                    driver.start()
                    extra_chaos.append(driver)

        inject_fault = config.crash_iagent or config.restart_iagent
        crash_at = config.ops // 2 if inject_fault else -1
        crash_hagent_at = config.ops // 2 if config.crash_hagent else -1
        # In a sharded deployment the crash targets the highest shard's
        # primary -- the failover then runs entirely inside that shard's
        # own epoch sequence and `hagent-s<N>-<rank>` replica set.
        crash_shard = config.shards - 1
        for op_index in range(config.ops):
            if op_index == crash_hagent_at:
                crash_info = await cluster.crash_primary_hagent(
                    shard=crash_shard
                )
                report.hagent_crashed = True
                promoted = await cluster.await_promotion(
                    config.service.heartbeat_timeout + 2.0, shard=crash_shard
                )
                if promoted is not None and promoted.promoted_at is not None:
                    report.promoted_rank = promoted.rank
                    report.promotion_latency_s = (
                        promoted.promoted_at - crash_info["crashed_at"]
                    )
            if op_index == crash_at:
                if config.restart_iagent:
                    recovery = await cluster.restart_heaviest_iagent()
                    report.restarted = True
                    report.records_lost = recovery["records_before"]
                    report.records_recovered = recovery["records_recovered"]
                    report.wal_replayed = recovery["wal_replayed"]
                    report.recovery_s = recovery["recovery_s"]
                    # Warm = the shard came back from *disk* (every
                    # pre-crash record, recovered faster than the first
                    # republish interval could have refilled it).
                    report.recovery_warm = (
                        report.records_recovered >= report.records_lost
                        and report.records_recovered > 0
                        and report.recovery_s < REREGISTER_INTERVAL
                    )
                    # Recovered records must agree with ground truth
                    # *now*, before the workload resumes.
                    report.restart_verified = True
                    for agent in agents:
                        requester = cluster.rng.randrange(len(cluster.nodes))
                        if not await cluster.locate_agent(agent, requester):
                            report.restart_verified = False
                            report.locate_mismatches += 1
                else:
                    report.records_lost = await cluster.crash_heaviest_iagent()
                    report.crashed = True
            roll = cluster.rng.random()
            if roll < LOCATE_FRACTION:
                agent = cluster.rng.choice(agents)
                requester = cluster.rng.randrange(len(cluster.nodes))
                if not await cluster.locate_agent(agent, requester):
                    report.locate_mismatches += 1
            elif roll < LOCATE_FRACTION + MIGRATE_FRACTION:
                await cluster.migrate_agent(cluster.rng.choice(agents))
            else:
                agents.append(await cluster.spawn_agent())

        # Let the chaos schedule finish (faults and settle tail) before
        # judging anything: invariants are checked on a healed cluster.
        if chaos_driver is not None:
            await chaos_driver.drain()
            report.chaos = {
                "seed": chaos_driver.schedule.seed,
                "digest": chaos_driver.schedule.digest(),
                "applied": chaos_driver.applied,
            }
            if extra_chaos:
                for driver in extra_chaos:
                    await driver.drain()
                report.chaos["shards"] = [
                    {
                        "shard": driver.shard,
                        "seed": driver.schedule.seed,
                        "digest": driver.schedule.digest(),
                        "applied": driver.applied,
                    }
                    for driver in extra_chaos
                ]
        if netem_driver is not None:
            await netem_driver.drain()
            assert cluster.netem is not None
            report.netem = {
                "seed": netem_driver.schedule.seed,
                "schedule_digest": netem_driver.schedule.digest(),
                "applied": netem_driver.applied,
                "fault_log_digest": cluster.netem.log_digest(),
                "frames_dropped": cluster.netem.frames_dropped,
                "frames_delayed": cluster.netem.frames_delayed,
                "resets_injected": cluster.netem.resets_injected,
            }
        if churn_driver is not None:
            await churn_driver.drain()
            report.churn = {
                "seed": churn_driver.schedule.seed,
                "digest": churn_driver.schedule.digest(),
                "applied": churn_driver.applied,
            }

        # Final sweep: every agent in the population must still resolve
        # to its true node -- the crash must have healed completely.
        report.final_verified = True
        for agent in agents:
            requester = cluster.rng.randrange(len(cluster.nodes))
            if not await cluster.locate_agent(agent, requester):
                report.final_verified = False
                report.locate_mismatches += 1

        # Replication invariants: every live standby converged to the
        # primary, and no epoch was ever claimed by two primaries.
        if config.hagent_replicas > 1:
            report.replicas_converged = await cluster.replicas_converged()
        report.single_primary_ok = not sharded_single_primary_violations(
            cluster.epoch_claims_by_shard()
        )
        report.promotions = sum(
            len(h.promotions)
            for h in cluster.hagents + cluster.dead_hagents
        )
        report.demotions = sum(
            h.demotions for h in cluster.hagents + cluster.dead_hagents
        )
        report.fence_rejections = sum(
            node.fence_rejections for node in cluster.nodes
        )
        report.orphans_retired = sum(
            node.orphans_retired for node in cluster.nodes
        )

        for shard in sorted(cluster.shard_hagents):
            primary = cluster.primary(shard)
            assert primary.addr is not None
            stats = await cluster.nodes[0].channel.call(
                primary.addr, "hagent", "stats", {}
            )
            if shard == 0:
                report.epoch_final = stats["epoch"]
            report.splits += stats["splits"]
            report.merges += stats["merges"]
            report.takeovers += stats["takeovers"]
            report.hash_version = max(report.hash_version, stats["version"])
            report.xshard_merges += stats.get("xshard_merges", 0)
            report.xshard_absorbs += stats.get("xshard_absorbs", 0)
            report.xshard_aborts += stats.get("xshard_aborts", 0)
            if stats.get("owned", [shard]):
                report.iagents_final += stats["iagents"]
        report.agents = len(agents)
        report.ops = config.ops
        routing: Dict[str, int] = {}
        for node in cluster.nodes:
            for key, value in node.router.counters().items():
                routing[key] = routing.get(key, 0) + value
        report.routing = routing
        counters = cluster.merged_counters()
        report.locates = counters.locates
        report.locate_failures = counters.locate_failures
        report.registers = counters.registers
        report.updates = counters.updates
        report.retries = counters.retries
        report.refreshes = counters.refreshes
        report.not_responsible = counters.not_responsible
        report.no_record_retries = counters.no_record_retries
        report.transport_retries = counters.transport_retries
        report.wrong_shard_retries = counters.wrong_shard_retries
        report.hedges = counters.hedges
        report.hedge_wins = counters.hedge_wins
        # Batching happens in the node hosts' republish loops (their
        # clients are distinct from the driver's), so count both.
        for node_client in [n.client for n in cluster.nodes if n.client] + list(
            cluster.clients
        ):
            report.batch_rpcs += node_client.counters.batch_rpcs
            report.batched_ops += node_client.counters.batched_ops
    finally:
        report.duration = loop.time() - started
        await cluster.stop()
    return report


async def serve_cluster(config: Optional[ClusterConfig] = None) -> None:
    """Boot a cluster and park until cancelled (the ``serve`` command)."""
    config = config or ClusterConfig()
    cluster = _Cluster(config)
    await cluster.start()
    for hagent in cluster.hagents:
        assert hagent.addr is not None
        print(
            f"{hagent.replica_name} {hagent.addr[0]}:{hagent.addr[1]} "
            f"({hagent.role})"
        )
    for node in cluster.nodes:
        assert node.addr is not None
        print(f"{node.name:<9} {node.addr[0]}:{node.addr[1]}")
    print("serving; interrupt to stop")
    try:
        while True:
            await asyncio.sleep(3600)
    finally:
        await cluster.stop()
