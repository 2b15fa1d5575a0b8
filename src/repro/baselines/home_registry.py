"""Ajanta-style HLR/VLR location scheme (paper §6).

Ajanta "implements an HLR/VLR scheme in which a registry keeps
information for the agents which are currently located in its domain. In
addition, each registry maintains the precise current location for the
agents which were created in its domain" -- the cellular-telephony Home
Location Register / Visitor Location Register pattern.

We partition the platform's nodes into ``domains`` round-robin; each
domain runs one registry agent. Every agent has a *home* registry (its
creation domain), which always knows its precise location, and is also
listed in the *visitor* register of whichever domain it currently sits
in. A locate tries the querier's local registry first (a VLR hit when
the target roams nearby) and falls back to the target's home registry.

The paper's criticism is also reproduced faithfully: "the name of each
agent contains information about the registry in which the agent was
created", i.e. resolvability of the home from the name is a *naming
assumption* -- here a ``home_of`` map the mechanism fills at creation,
standing in for the name-embedded registry id.

Scaling shape: update and query load spreads over the registries by
*creation domain*, regardless of the actual request distribution, so a
popular domain's registry is a hotspot that nothing ever splits.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.baselines.base import LocationMechanism
from repro.core.config import MAX_RETRIES, RETRY_BACKOFF, HashMechanismConfig
from repro.core.errors import CoreError, LocateFailedError
from repro.platform.agents import Agent
from repro.platform.events import Timeout
from repro.platform.messages import Request
from repro.platform.naming import AgentId

__all__ = ["HomeRegistryMechanism", "RegistryAgent"]


class RegistryAgent(Agent):
    """One domain's registry: HLR for natives, VLR for visitors."""

    def __init__(self, agent_id: AgentId, runtime, service_time: float) -> None:
        super().__init__(agent_id, runtime, tracked=False)
        self.service_time = service_time
        self.mailbox.set_service_time(service_time)
        #: HLR: precise location of agents created in this domain.
        self.home_records: Dict[AgentId, str] = {}
        #: VLR: agents currently visiting this domain.
        self.visitors: Dict[AgentId, str] = {}

    def handle(self, request: Request):
        body = request.body or {}
        op = request.op
        if op == "home-update":
            self.home_records[body["agent"]] = body["node"]
            return {"status": "ok"}
        if op == "home-remove":
            self.home_records.pop(body["agent"], None)
            return {"status": "ok"}
        if op == "visitor-add":
            self.visitors[body["agent"]] = body["node"]
            return {"status": "ok"}
        if op == "visitor-remove":
            self.visitors.pop(body["agent"], None)
            return {"status": "ok"}
        if op == "lookup":
            agent = body["agent"]
            node = self.visitors.get(agent) or self.home_records.get(agent)
            if node is None:
                return {"status": "unknown"}
            return {"status": "ok", "node": node}
        if op == "home-lookup":
            node = self.home_records.get(body["agent"])
            if node is None:
                return {"status": "unknown"}
            return {"status": "ok", "node": node}
        raise ValueError(f"registry does not understand {op!r}")


class HomeRegistryMechanism(LocationMechanism):
    """HLR/VLR over a fixed partition of the nodes into domains."""

    name = "home-registry"

    def __init__(
        self,
        config: Optional[HashMechanismConfig] = None,
        domains: int = 4,
    ) -> None:
        super().__init__()
        if domains < 1:
            raise ValueError(f"domains must be >= 1, got {domains}")
        self.config = config or HashMechanismConfig()
        self.domains = domains
        self.registries: List[RegistryAgent] = []
        self._domain_of_node: Dict[str, int] = {}
        #: Stand-in for Ajanta's name-embedded registry id.
        self.home_of: Dict[AgentId, int] = {}

    def install(self, runtime) -> None:
        self.runtime = runtime
        nodes = runtime.node_names()
        if not nodes:
            raise CoreError("install the mechanism after creating nodes")
        self.domains = min(self.domains, len(nodes))
        for index, node in enumerate(nodes):
            self._domain_of_node[node] = index % self.domains
        for domain in range(self.domains):
            host = nodes[domain]  # the first node assigned to the domain
            self.registries.append(
                runtime.create_agent(
                    RegistryAgent,
                    host,
                    start=False,
                    service_time=self.config.iagent_service_time,
                )
            )

    def domain_of(self, node: str) -> int:
        return self._domain_of_node[node]

    # ------------------------------------------------------------------

    def register(self, agent) -> Generator:
        self.counters.registers += 1
        node = agent.node_name
        home = self.domain_of(node)
        self.home_of[agent.agent_id] = home
        yield from self._registry_op(
            node, home, "home-update", agent.agent_id, node
        )
        yield from self._registry_op(
            node, home, "visitor-add", agent.agent_id, node
        )
        agent._hlr_previous_domain = home

    def report_move(self, agent) -> Generator:
        """Update the HLR, plus the VLRs on a domain crossing."""
        self.counters.updates += 1
        node = agent.node_name
        home = self.home_of[agent.agent_id]
        yield from self._registry_op(node, home, "home-update", agent.agent_id, node)
        new_domain = self.domain_of(node)
        old_domain = getattr(agent, "_hlr_previous_domain", None)
        if old_domain != new_domain:
            if old_domain is not None:
                yield from self._registry_op(
                    node, old_domain, "visitor-remove", agent.agent_id, node
                )
            yield from self._registry_op(
                node, new_domain, "visitor-add", agent.agent_id, node
            )
            agent._hlr_previous_domain = new_domain
        else:
            yield from self._registry_op(
                node, new_domain, "visitor-add", agent.agent_id, node
            )

    def deregister(self, agent) -> Generator:
        node = self.origin_node(agent)
        home = self.home_of.get(agent.agent_id)
        if home is None:
            return
        yield from self._registry_op(node, home, "home-remove", agent.agent_id, node)
        domain = getattr(agent, "_hlr_previous_domain", None)
        if domain is not None:
            yield from self._registry_op(
                node, domain, "visitor-remove", agent.agent_id, node
            )

    def locate(self, requester_node: str, agent_id: AgentId) -> Generator:
        self.counters.locates += 1
        local_domain = self.domain_of(requester_node)
        home = self.home_of.get(agent_id)
        if home is None:
            self.counters.locate_failures += 1
            raise LocateFailedError(f"no home registry known for {agent_id}")

        for _attempt in range(MAX_RETRIES):
            # VLR fast path: is the target roaming in our own domain?
            if local_domain != home:
                reply = yield from self._registry_query(
                    requester_node, local_domain, "lookup", agent_id
                )
                if reply["status"] == "ok":
                    self.counters.bump("vlr_hits")
                    return reply["node"]
            # HLR authoritative path.
            reply = yield from self._registry_query(
                requester_node, home, "home-lookup", agent_id
            )
            if reply["status"] == "ok":
                return reply["node"]
            self.counters.retries += 1
            yield Timeout(RETRY_BACKOFF)
        self.counters.locate_failures += 1
        raise LocateFailedError(f"registries do not know {agent_id}")

    # ------------------------------------------------------------------

    def _registry_op(
        self, from_node: str, domain: int, op: str, agent_id: AgentId, node: str
    ) -> Generator:
        registry = self.registries[domain]
        reply = yield self.runtime.rpc(
            from_node,
            registry.node_name,
            registry.agent_id,
            op,
            {"agent": agent_id, "node": node},
            timeout=self.config.rpc_timeout,
        )
        if reply["status"] != "ok":
            raise CoreError(f"registry {op} failed: {reply['status']}")

    def _registry_query(
        self, from_node: str, domain: int, op: str, agent_id: AgentId
    ) -> Generator:
        registry = self.registries[domain]
        reply = yield self.runtime.rpc(
            from_node,
            registry.node_name,
            registry.agent_id,
            op,
            {"agent": agent_id},
            timeout=self.config.rpc_timeout,
        )
        return reply
