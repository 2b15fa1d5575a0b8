"""The hash-based location mechanism, assembled (paper §2).

:class:`HashLocationMechanism` is the facade the platform and the
applications use. ``install`` deploys the infrastructure of §2.2 -- the
HAgent with the primary copy, one LHAgent per node, one initial IAgent
(optionally the backup HAgent and the placement policy of §7) -- and the
protocol methods implement §2.3:

* *agent movement*: ``register`` / ``report_move`` resolve the agent's
  IAgent through the local LHAgent and send the location update, and
* *locating an agent*: ``locate`` resolves and queries the IAgent,

both with the §4.3 recovery loop: a ``not-responsible`` bounce (or a
vanished IAgent) makes the caller refresh its LHAgent's secondary copy
from the HAgent and retry. That loop is :mod:`repro.core.requester`'s;
this class is its simulator driver (``_drive``): it performs each
request the saga yields as one ``runtime.rpc`` in virtual time and
answers ``None`` for one that failed.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.baselines.base import LocationMechanism
from repro.core.config import MAX_RETRIES, RETRY_BACKOFF, HashMechanismConfig
from repro.core.errors import CoreError, LocateFailedError
from repro.core.hagent import HAgent
from repro.core.iagent import IAgent, OK
from repro.core.lhagent import LHAgent
from repro.core.placement import PlacementPolicy
from repro.core.replication import BackupHAgent
from repro.core.requester import UNREACHABLE, UNRESOLVED, discover_saga, request_saga
from repro.platform.events import Timeout
from repro.platform.messages import AgentNotFound, RpcError, RpcTimeout
from repro.platform.naming import AgentId

__all__ = ["HashLocationMechanism"]

#: Time to create a new IAgent during a split (s); covers class loading
#: and context registration on the hosting node.
IAGENT_SPAWN_TIME = 0.005


class HashLocationMechanism(LocationMechanism):
    """The paper's two-tier, dynamically rehashed location mechanism."""

    name = "hash"

    def __init__(self, config: Optional[HashMechanismConfig] = None) -> None:
        super().__init__()
        self.config = config or HashMechanismConfig()
        self.hagent: Optional[HAgent] = None
        self.backup: Optional[BackupHAgent] = None
        self.lhagents: Dict[str, LHAgent] = {}
        self.iagents: Dict[AgentId, IAgent] = {}
        self.placement: Optional[PlacementPolicy] = None
        self._spawn_round_robin = 0

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def install(self, runtime) -> None:
        self.runtime = runtime
        nodes = runtime.node_names()
        if not nodes:
            raise CoreError("install the mechanism after creating nodes")

        # The HAgent is "a central static agent" (§2.1); it lives on the
        # first node. The optional backup goes to a different node.
        self.hagent = runtime.create_agent(
            HAgent, nodes[0], start=False, mechanism=self
        )
        if self.config.enable_backup_hagent:
            backup_node = nodes[1 % len(nodes)]
            self.backup = runtime.create_agent(
                BackupHAgent, backup_node, start=False, mechanism=self
            )

        # One LHAgent per node (§2.2).
        for node in nodes:
            self.lhagents[node] = runtime.create_agent(
                LHAgent, node, start=False, mechanism=self
            )

        # The system starts with a single IAgent covering the whole id
        # space; rehashing grows the population on demand.
        first_node = nodes[-1]
        first = runtime.create_agent(IAgent, first_node, mechanism=self)
        first.coverage = ""  # the empty pattern matches every id
        self.iagents[first.agent_id] = first

        self.hagent.function.bootstrap(
            first.agent_id, first_node, runtime.namer.width
        )
        self.on_primary_copy_changed()

        if self.config.enable_placement:
            self.placement = PlacementPolicy(self)
            self.placement.start()

    # -- directory of infrastructure agents -----------------------------

    @property
    def hagent_node(self) -> str:
        return self.hagent.node_name

    @property
    def hagent_id(self) -> AgentId:
        return self.hagent.agent_id

    @property
    def backup_node(self) -> Optional[str]:
        return self.backup.node_name if self.backup else None

    @property
    def backup_id(self) -> Optional[AgentId]:
        return self.backup.agent_id if self.backup else None

    def iagent_node(self, owner: AgentId) -> str:
        """Current node of a live IAgent (coordinator-side knowledge)."""
        iagent = self.iagents.get(owner)
        if iagent is None or iagent.node is None:
            raise CoreError(f"IAgent {owner} is not live")
        return iagent.node_name

    # ------------------------------------------------------------------
    # Hooks used by the HAgent during rehashing
    # ------------------------------------------------------------------

    def spawn_iagent(self) -> Generator:
        """Create a fresh IAgent on the next node round-robin; returns
        ``(owner_id, node_name)``."""
        nodes = self.runtime.node_names()
        self._spawn_round_robin += 1
        node = nodes[self._spawn_round_robin % len(nodes)]
        yield Timeout(IAGENT_SPAWN_TIME)
        iagent = self.runtime.create_agent(IAgent, node, mechanism=self)
        self.iagents[iagent.agent_id] = iagent
        return iagent.agent_id, node

    def retire_iagent(self, owner: AgentId) -> Generator:
        """Kill a merged-away IAgent."""
        iagent = self.iagents.pop(owner, None)
        if iagent is not None and iagent.alive:
            yield from iagent.die()

    def on_primary_copy_changed(self) -> None:
        """Push the new primary copy to the backup, if there is one."""
        if self.backup is None:
            return
        bundle = self.hagent.function.bundle()
        self.runtime.sim.spawn(self._sync_backup(bundle), name="backup-sync")

    def _sync_backup(self, bundle: Dict) -> Generator:
        try:
            yield self.runtime.rpc(
                self.hagent_node,
                self.backup_node,
                self.backup_id,
                "sync",
                bundle,
                timeout=self.config.rpc_timeout,
                size=self.hagent.function.snapshot_wire_size(),
            )
        except RpcError:
            # A down backup must not wedge the primary; the next change
            # carries a complete copy anyway (state, not a log).
            return

    # ------------------------------------------------------------------
    # The LocationMechanism contract (paper §2.3)
    # ------------------------------------------------------------------

    def register(self, agent) -> Generator:
        self.counters.registers += 1
        yield from self._update_op(
            agent.node_name, agent.agent_id, "register", agent.node_name
        )

    def report_move(self, agent) -> Generator:
        self.counters.updates += 1
        yield from self._update_op(
            agent.node_name, agent.agent_id, "update", agent.node_name
        )

    def deregister(self, agent) -> Generator:
        # An agent disposed in transit has no node; any context can
        # issue the farewell (the record must not leak either way).
        node = self.origin_node(agent)
        yield from self._update_op(node, agent.agent_id, "unregister", node)

    def locate(self, requester_node: str, agent_id: AgentId) -> Generator:
        self.counters.locates += 1
        reply = yield from self.iagent_request(
            requester_node,
            agent_id,
            "locate",
            {"agent": agent_id},
            tolerate_no_record=True,
        )
        if reply["status"] != OK:
            self.counters.locate_failures += 1
            raise LocateFailedError(
                f"could not locate {agent_id}: {reply['status']}"
            )
        return reply["node"]

    # ------------------------------------------------------------------
    # Discovery (similarity + capability, ROADMAP item 2)
    # ------------------------------------------------------------------

    def set_capabilities(
        self, requester_node: str, agent_id: AgentId, capabilities: Optional[Dict]
    ) -> Generator:
        """Attach (or with ``None`` clear) an agent's capability set."""
        reply = yield from self.iagent_request(
            requester_node,
            agent_id,
            "set-capabilities",
            {"agent": agent_id, "capabilities": capabilities},
            tolerate_no_record=True,
        )
        if reply["status"] != OK:
            raise CoreError(
                f"set-capabilities for {agent_id} failed: {reply['status']}"
            )

    def discover_similar(
        self, requester_node: str, agent_id: AgentId, d: int
    ) -> Generator:
        """All agents with ids within Hamming distance ``d`` of ``agent_id``.

        Returns merged match dicts (``agent``, ``node``, ``distance``),
        nearest first; the query agent itself is never included.
        """
        self.counters.bump("discover_similar")
        result = yield from self._discover(
            requester_node, "discover-similar", {"agent": agent_id, "d": d}
        )
        return result

    def discover_capability(
        self, requester_node: str, predicate: Dict
    ) -> Generator:
        """All agents whose capability set satisfies ``predicate``."""
        self.counters.bump("discover_capability")
        result = yield from self._discover(
            requester_node, "discover-capability", {"predicate": predicate}
        )
        return result

    def _discover(self, requester_node: str, op: str, body: Dict) -> Generator:
        reply = yield from self._drive(
            requester_node,
            discover_saga(self.counters, MAX_RETRIES, op, body),
        )
        if reply["status"] != OK:
            raise LocateFailedError(
                f"discovery {op} did not converge: {reply['status']}"
            )
        return reply["matches"]

    # ------------------------------------------------------------------
    # The requester sagas of repro.core.requester, in virtual time
    # ------------------------------------------------------------------

    def _update_op(
        self, node: str, agent_id: AgentId, op: str, location: str
    ) -> Generator:
        reply = yield from self.iagent_request(
            node, agent_id, op, {"agent": agent_id, "node": location}
        )
        if reply["status"] != OK:
            raise CoreError(f"{op} for {agent_id} failed: {reply['status']}")

    def iagent_request(
        self,
        requester_node: str,
        agent_id: AgentId,
        op: str,
        body: Dict,
        tolerate_no_record: bool = False,
    ) -> Generator:
        """Resolve the responsible IAgent and send ``op``, with the
        recovery of :func:`repro.core.requester.request_saga`."""
        reply = yield from self._drive(
            requester_node,
            request_saga(
                self.counters,
                MAX_RETRIES,
                agent_id,
                op,
                body,
                tolerate_no_record,
            ),
        )
        return reply

    def _drive(self, node: str, saga: Generator) -> Generator:
        """Step a requester saga from ``node``: each request is one RPC
        (or none) in virtual time; the saga's return value is ours."""
        reply = None
        while True:
            try:
                kind, *args = saga.send(reply)
            except StopIteration as done:
                return done.value
            if kind == "resolve":
                reply = yield from self._whois(node, *args)
            elif kind == "ask":
                reply = yield from self._ask(node, *args)
            elif kind == "pause":
                # With no answer a refresh follows, which costs a round
                # trip or a timeout itself; an IAgent that answered is
                # mid-hand-off, and only time helps.
                if args[1] not in (UNRESOLVED, UNREACHABLE):
                    yield Timeout(RETRY_BACKOFF)
                reply = True
            elif kind == "candidates":
                agent_id, d, stale_version = args
                body = {"agent": agent_id, "d": d, "stale_version": stale_version}
                reply = yield from self._lhagent(node, "discover-candidates", body)
                if reply is not None:
                    reply = reply["candidates"], reply["version"]
            else:  # "fan-out": one candidate at a time, up to the first bad reply
                op, candidates, bodies = args
                reply = []
                for cand, body in zip(candidates, bodies):
                    reply.append((yield from self._ask(node, cand, op, body)))
                    if reply[-1] is None or reply[-1]["status"] != OK:
                        break

    def _whois(
        self, node: str, agent_id: AgentId, stale_version: Optional[int] = None
    ) -> Generator:
        """The *resolve* hop: ``whois`` at the node's LHAgent, or
        ``refresh`` past ``stale_version``."""
        op, body = "whois", {"agent": agent_id}
        if stale_version is not None:
            op, body = "refresh", {"agent": agent_id, "stale_version": stale_version}
        return (yield from self._lhagent(node, op, body))

    def _lhagent(self, node: str, op: str, body: Dict) -> Generator:
        """One RPC to the local LHAgent; ``None`` if it failed in any
        way: down, slow, or its fetch of the primary copy failed."""
        target = self.lhagents[node].agent_id
        return (yield from self._rpc(node, node, target, op, body, RpcError))

    def _ask(self, node: str, mapping: Dict, op: str, body: Dict) -> Generator:
        """The *ask* hop. ``None``: the copy does not place the IAgent,
        or it is gone from there (moved, merged, crashed); a handler
        error still raises."""
        where, gone = mapping["node"], (AgentNotFound, RpcTimeout)
        if where is None:
            return None
        return (yield from self._rpc(node, where, mapping["iagent"], op, body, gone))

    def _rpc(
        self, node: str, dst_node: str, dst_agent: AgentId, op: str, body: Dict, absent
    ) -> Generator:
        try:
            reply = yield self.runtime.rpc(
                node, dst_node, dst_agent, op, body, timeout=self.config.rpc_timeout
            )
        except absent:
            return None
        return reply

    # ------------------------------------------------------------------
    # Introspection for tests / metrics
    # ------------------------------------------------------------------

    @property
    def iagent_count(self) -> int:
        return len(self.iagents)

    def describe(self) -> str:
        return (
            f"hash(t_max={self.config.t_max}, t_min={self.config.t_min}, "
            f"iagents={self.iagent_count})"
        )
