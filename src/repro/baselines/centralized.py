"""The centralized location scheme -- the paper's comparator (§5).

"In the centralized scheme, there is a single central agent that is
responsible for maintaining the current location of all mobile agents in
the system. This central agent performs the same functions as the
IAgents in our system."

The central agent therefore reuses the IAgent's record-table behaviour
(same per-message service time), but there is exactly one of it, its
coverage is the whole id space and nothing ever splits: every update of
every roaming agent and every location query serialises through one
mailbox. That queue is what the paper's Experiment I measures growing
linearly with the agent population.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.baselines.base import LocationMechanism
from repro.core.config import MAX_RETRIES, RETRY_BACKOFF, HashMechanismConfig
from repro.core.errors import CoreError, LocateFailedError
from repro.platform.agents import Agent
from repro.platform.events import Timeout
from repro.platform.messages import Request
from repro.platform.naming import AgentId

__all__ = ["CentralizedMechanism", "CentralLocationAgent"]


class CentralLocationAgent(Agent):
    """The single directory agent of the centralized scheme."""

    def __init__(self, agent_id: AgentId, runtime, service_time: float) -> None:
        super().__init__(agent_id, runtime, tracked=False)
        self.service_time = service_time
        self.mailbox.set_service_time(service_time)
        self.records = {}
        self.queries = 0
        self.updates = 0

    def handle(self, request: Request):
        body = request.body or {}
        if request.op in ("register", "update"):
            self.updates += 1
            self.records[body["agent"]] = body["node"]
            return {"status": "ok"}
        if request.op == "unregister":
            self.records.pop(body["agent"], None)
            return {"status": "ok"}
        if request.op == "locate":
            self.queries += 1
            node = self.records.get(body["agent"])
            if node is None:
                return {"status": "no-record"}
            return {"status": "ok", "node": node}
        raise ValueError(f"central agent does not understand {request.op!r}")


class CentralizedMechanism(LocationMechanism):
    """One central agent serving every update and query."""

    name = "centralized"

    def __init__(self, config: Optional[HashMechanismConfig] = None) -> None:
        super().__init__()
        # Reuse the hash mechanism's config for the shared knobs (service
        # time, timeouts) so comparisons hold everything else equal.
        self.config = config or HashMechanismConfig()
        self.central: Optional[CentralLocationAgent] = None

    def install(self, runtime) -> None:
        self.runtime = runtime
        nodes = runtime.node_names()
        if not nodes:
            raise CoreError("install the mechanism after creating nodes")
        self.central = runtime.create_agent(
            CentralLocationAgent,
            nodes[0],
            start=False,
            service_time=self.config.iagent_service_time,
        )

    # ------------------------------------------------------------------

    def register(self, agent) -> Generator:
        self.counters.registers += 1
        yield from self._send(
            agent.node_name, "register", agent.agent_id, agent.node_name
        )

    def report_move(self, agent) -> Generator:
        self.counters.updates += 1
        yield from self._send(
            agent.node_name, "update", agent.agent_id, agent.node_name
        )

    def deregister(self, agent) -> Generator:
        node = self.origin_node(agent)
        yield from self._send(node, "unregister", agent.agent_id, node)

    def locate(self, requester_node: str, agent_id: AgentId) -> Generator:
        self.counters.locates += 1
        for attempt in range(MAX_RETRIES):
            reply = yield self.runtime.rpc(
                requester_node,
                self.central.node_name,
                self.central.agent_id,
                "locate",
                {"agent": agent_id},
                timeout=self.config.rpc_timeout,
            )
            if reply["status"] == "ok":
                return reply["node"]
            # "no-record": a freshly created agent whose registration is
            # still queued at the saturated central agent.
            self.counters.retries += 1
            yield Timeout(RETRY_BACKOFF)
        self.counters.locate_failures += 1
        raise LocateFailedError(f"central agent has no record of {agent_id}")

    def _send(self, from_node: str, op: str, agent_id: AgentId, node: str) -> Generator:
        reply = yield self.runtime.rpc(
            from_node,
            self.central.node_name,
            self.central.agent_id,
            op,
            {"agent": agent_id, "node": node},
            timeout=self.config.rpc_timeout,
        )
        if reply["status"] != "ok":
            raise CoreError(f"central {op} failed: {reply['status']}")

    def describe(self) -> str:
        records = len(self.central.records) if self.central else 0
        return f"centralized(records={records})"
