"""Flooding locate: the no-directory strawman (paper §6 context).

The paper observes that most agent platforms of its era (Aglets, Mole,
D'Agents, Concordia, Grasshopper) "do not provide an agent location
mechanism" at all. What an application does in that world is *ask
everyone*: broadcast the query to every node and wait for whoever hosts
the agent to answer. This module implements that honestly:

* **updates are free** -- nobody tracks anything;
* **locates cost O(nodes)** -- a scatter-gather round to every node's
  resolver agent, finishing when a positive answer arrives (or all
  answers are negative).

On a small LAN this is embarrassingly effective, which is exactly why
it deserves to be in the comparison: the hash mechanism's advantage
appears as the deployment grows (per-locate message cost, NODES/COST
benches) and as query volume concentrates (every locate taxes *all*
nodes, not one IAgent).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.baselines.base import LocationMechanism
from repro.core.config import LHAGENT_SERVICE_TIME, MAX_RETRIES, RETRY_BACKOFF, HashMechanismConfig
from repro.core.errors import CoreError, LocateFailedError
from repro.platform.agents import Agent
from repro.platform.events import Timeout, gather
from repro.platform.messages import Request, RpcError
from repro.platform.naming import AgentId

__all__ = ["FloodingMechanism", "ResolverAgent"]


class ResolverAgent(Agent):
    """Per-node responder: 'is agent X here right now?'."""

    def __init__(self, agent_id: AgentId, runtime, service_time: float) -> None:
        super().__init__(agent_id, runtime, tracked=False)
        self.service_time = service_time
        self.mailbox.set_service_time(service_time)
        self.probes_answered = 0

    def handle(self, request: Request):
        if request.op != "probe":
            raise ValueError(f"resolver does not understand {request.op!r}")
        self.probes_answered += 1
        agent = self.node.find_agent(request.body["agent"])
        if agent is not None and agent.alive:
            return {"status": "here", "node": self.node_name}
        return {"status": "absent"}


class FloodingMechanism(LocationMechanism):
    """No directory: locate by asking every node in parallel."""

    name = "flooding"

    def __init__(self, config: Optional[HashMechanismConfig] = None) -> None:
        super().__init__()
        self.config = config or HashMechanismConfig()
        self.resolvers: Dict[str, ResolverAgent] = {}

    def install(self, runtime) -> None:
        self.runtime = runtime
        nodes = runtime.node_names()
        if not nodes:
            raise CoreError("install the mechanism after creating nodes")
        for node in nodes:
            self.resolvers[node] = runtime.create_agent(
                ResolverAgent,
                node,
                start=False,
                service_time=LHAGENT_SERVICE_TIME,
            )

    # ------------------------------------------------------------------
    # Updates cost nothing: there is nothing to keep current.
    # ------------------------------------------------------------------

    def register(self, agent) -> Generator:
        self.counters.registers += 1
        return
        yield  # pragma: no cover - generator protocol

    def report_move(self, agent) -> Generator:
        self.counters.updates += 1
        return
        yield  # pragma: no cover - generator protocol

    def deregister(self, agent) -> Generator:
        return
        yield  # pragma: no cover - generator protocol

    # ------------------------------------------------------------------

    def locate(self, requester_node: str, agent_id: AgentId) -> Generator:
        """Scatter a probe to every node; first positive answer wins."""
        self.counters.locates += 1
        for _attempt in range(MAX_RETRIES):
            futures = [
                self.runtime.rpc(
                    requester_node,
                    node,
                    resolver.agent_id,
                    "probe",
                    {"agent": agent_id},
                    timeout=self.config.rpc_timeout,
                )
                for node, resolver in self.resolvers.items()
            ]
            self.counters.bump("probes", len(futures))
            try:
                replies = yield gather(futures, name="flood")
            except RpcError:
                # A crashed node fails the whole wave; retry without it
                # is possible but the simple strawman just re-floods.
                self.counters.retries += 1
                yield Timeout(RETRY_BACKOFF)
                continue
            for reply in replies:
                if reply["status"] == "here":
                    return reply["node"]
            # Everyone says absent: the target was mid-flight between
            # nodes. Brief backoff, then flood again.
            self.counters.retries += 1
            yield Timeout(RETRY_BACKOFF)
        self.counters.locate_failures += 1
        raise LocateFailedError(f"no node admits to hosting {agent_id}")

    def describe(self) -> str:
        return f"flooding(nodes={len(self.resolvers)})"
