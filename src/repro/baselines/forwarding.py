"""Voyager-style name service with forwarding pointers (paper §6).

The paper describes ObjectSpace Voyager's scheme: agents register with a
name service, and "under some circumstances" a request can be forwarded
along nodes the agent has visited "until the agent is reached". This
module implements the classic forwarding-pointer variant of that design:

* a *name service* records where each agent was **created**;
* every migration leaves a *forwarding pointer* at the departed node
  (``old node -> new node``) and marks the agent present at the new
  node -- both writes touch only the two nodes involved, so **updates
  are cheap and fully decentralized**;
* a locate asks the name service for the birth node and then chases the
  pointer chain hop by hop until it reaches the node that currently
  hosts the agent.

The trade-off against the paper's mechanism is the interesting part:
update cost is O(1) and local, but location time grows with the length
of the pointer chain, i.e. with how much the agent has moved since the
last chain compression. With ``compress=True`` a successful locate
reports the found location back to the name service, resetting the
chain start (Voyager's re-registration).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.baselines.base import LocationMechanism
from repro.core.config import LHAGENT_SERVICE_TIME, RETRY_BACKOFF, HashMechanismConfig
from repro.core.errors import CoreError, LocateFailedError
from repro.platform.agents import Agent
from repro.platform.events import Timeout
from repro.platform.messages import Request, RpcError
from repro.platform.naming import AgentId

__all__ = ["ForwardingPointersMechanism", "ForwarderAgent", "NameServiceAgent"]

#: A pointer value meaning "the agent is on this very node".
HERE = "<here>"


class ForwarderAgent(Agent):
    """Per-node keeper of the forwarding pointers left by departures."""

    def __init__(self, agent_id: AgentId, runtime, service_time: float) -> None:
        super().__init__(agent_id, runtime, tracked=False)
        self.service_time = service_time
        self.mailbox.set_service_time(service_time)
        #: agent id -> next node name, or HERE.
        self.pointers: Dict[AgentId, str] = {}

    def handle(self, request: Request):
        body = request.body or {}
        if request.op == "set-pointer":
            self.pointers[body["agent"]] = body["next"]
            return {"status": "ok"}
        if request.op == "set-here":
            self.pointers[body["agent"]] = HERE
            return {"status": "ok"}
        if request.op == "clear":
            self.pointers.pop(body["agent"], None)
            return {"status": "ok"}
        if request.op == "next-hop":
            pointer = self.pointers.get(body["agent"])
            if pointer is None:
                return {"status": "unknown"}
            if pointer == HERE:
                return {"status": "here"}
            return {"status": "forward", "next": pointer}
        raise ValueError(f"forwarder does not understand {request.op!r}")


class NameServiceAgent(Agent):
    """Records the chain-start node of every registered agent."""

    def __init__(self, agent_id: AgentId, runtime, service_time: float) -> None:
        super().__init__(agent_id, runtime, tracked=False)
        self.service_time = service_time
        self.mailbox.set_service_time(service_time)
        self.entries: Dict[AgentId, str] = {}

    def handle(self, request: Request):
        body = request.body or {}
        if request.op == "register":
            self.entries[body["agent"]] = body["node"]
            return {"status": "ok"}
        if request.op == "unregister":
            self.entries.pop(body["agent"], None)
            return {"status": "ok"}
        if request.op == "resolve":
            node = self.entries.get(body["agent"])
            if node is None:
                return {"status": "unknown"}
            return {"status": "ok", "node": node}
        raise ValueError(f"name service does not understand {request.op!r}")


class ForwardingPointersMechanism(LocationMechanism):
    """Cheap decentralized updates, chain-chasing locates."""

    name = "forwarding"

    def __init__(
        self,
        config: Optional[HashMechanismConfig] = None,
        compress: bool = True,
        max_hops: int = 128,
    ) -> None:
        super().__init__()
        self.config = config or HashMechanismConfig()
        self.compress = compress
        self.max_hops = max_hops
        self.name_service: Optional[NameServiceAgent] = None
        self.forwarders: Dict[str, ForwarderAgent] = {}
        #: Distribution of chain lengths observed by locates.
        self.hop_counts: Dict[int, int] = {}

    def install(self, runtime) -> None:
        self.runtime = runtime
        nodes = runtime.node_names()
        if not nodes:
            raise CoreError("install the mechanism after creating nodes")
        self.name_service = runtime.create_agent(
            NameServiceAgent,
            nodes[0],
            start=False,
            service_time=self.config.iagent_service_time,
        )
        for node in nodes:
            self.forwarders[node] = runtime.create_agent(
                ForwarderAgent,
                node,
                start=False,
                service_time=LHAGENT_SERVICE_TIME,
            )

    # ------------------------------------------------------------------

    def register(self, agent) -> Generator:
        self.counters.registers += 1
        node = agent.node_name
        agent._fw_previous_node = node
        yield from self._forwarder_op(node, node, "set-here", agent.agent_id)
        yield self.runtime.rpc(
            node,
            self.name_service.node_name,
            self.name_service.agent_id,
            "register",
            {"agent": agent.agent_id, "node": node},
            timeout=self.config.rpc_timeout,
        )

    def report_move(self, agent) -> Generator:
        """Leave a pointer behind; mark presence here. No central write."""
        self.counters.updates += 1
        new_node = agent.node_name
        origin = getattr(agent, "_fw_previous_node", None)
        yield from self._forwarder_op(new_node, new_node, "set-here", agent.agent_id)
        if origin is not None and origin != new_node:
            yield from self._forwarder_op(
                new_node, origin, "set-pointer", agent.agent_id, next_node=new_node
            )
        agent._fw_previous_node = new_node

    def deregister(self, agent) -> Generator:
        node = self.origin_node(agent)
        if agent.node is not None:
            # Only a resident agent has a live "here" marker to clear.
            yield from self._forwarder_op(node, node, "clear", agent.agent_id)
        yield self.runtime.rpc(
            node,
            self.name_service.node_name,
            self.name_service.agent_id,
            "unregister",
            {"agent": agent.agent_id},
            timeout=self.config.rpc_timeout,
        )

    def locate(self, requester_node: str, agent_id: AgentId) -> Generator:
        self.counters.locates += 1
        reply = yield self.runtime.rpc(
            requester_node,
            self.name_service.node_name,
            self.name_service.agent_id,
            "resolve",
            {"agent": agent_id},
            timeout=self.config.rpc_timeout,
        )
        if reply["status"] != "ok":
            self.counters.locate_failures += 1
            raise LocateFailedError(f"name service does not know {agent_id}")

        current = reply["node"]
        for hop in range(self.max_hops):
            forwarder = self.forwarders[current]
            answer = yield self.runtime.rpc(
                requester_node,
                current,
                forwarder.agent_id,
                "next-hop",
                {"agent": agent_id},
                timeout=self.config.rpc_timeout,
            )
            if answer["status"] == "here":
                self.hop_counts[hop] = self.hop_counts.get(hop, 0) + 1
                if self.compress and hop > 0:
                    yield from self._compress(requester_node, agent_id, current)
                return current
            if answer["status"] == "forward":
                self.counters.bump("forward_hops")
                current = answer["next"]
                continue
            # "unknown": the chain broke (e.g. the agent is mid-flight
            # between nodes). Back off and restart from the name service.
            self.counters.retries += 1
            yield Timeout(RETRY_BACKOFF)
            reply = yield self.runtime.rpc(
                requester_node,
                self.name_service.node_name,
                self.name_service.agent_id,
                "resolve",
                {"agent": agent_id},
                timeout=self.config.rpc_timeout,
            )
            if reply["status"] != "ok":
                break
            current = reply["node"]
        self.counters.locate_failures += 1
        raise LocateFailedError(
            f"forwarding chain for {agent_id} exceeded {self.max_hops} hops"
        )

    # ------------------------------------------------------------------

    def _compress(self, requester_node: str, agent_id: AgentId, node: str) -> Generator:
        """Report the found location, shortening future chains."""
        self.counters.bump("compressions")
        try:
            yield self.runtime.rpc(
                requester_node,
                self.name_service.node_name,
                self.name_service.agent_id,
                "register",
                {"agent": agent_id, "node": node},
                timeout=self.config.rpc_timeout,
            )
        except RpcError:
            return

    def _forwarder_op(
        self,
        from_node: str,
        at_node: str,
        op: str,
        agent_id: AgentId,
        next_node: Optional[str] = None,
    ) -> Generator:
        body = {"agent": agent_id}
        if next_node is not None:
            body["next"] = next_node
        yield self.runtime.rpc(
            from_node,
            at_node,
            self.forwarders[at_node].agent_id,
            op,
            body,
            timeout=self.config.rpc_timeout,
        )

    def mean_chain_length(self) -> float:
        """Average hops per successful locate (diagnostics)."""
        total = sum(self.hop_counts.values())
        if total == 0:
            return 0.0
        return sum(h * c for h, c in self.hop_counts.items()) / total
