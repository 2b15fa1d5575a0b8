"""A Chord-style consistent-hashing directory (paper §6).

The paper contrasts its goal with Chord's: "Consistent hashing
distributes data items to nodes so that each node receives roughly the
same number of items. However, in our case, our goal is to balance the
total workload received at each node as opposed to the number of items."

To make that contrast measurable, this module implements a small but
real Chord ring over the platform's nodes: every node runs a directory
agent with a position on a ``2**m`` identifier circle and a static
finger table (the deployment has no churn, so stabilization is out of
scope -- recorded in DESIGN.md). An agent's location record lives at the
``successor`` of the agent's key. Lookups and updates route iteratively
from the requester's local directory agent, halving the remaining
distance per hop as in the Chord paper -- O(log N) network hops each.

The shape this produces: per-record placement is balanced, but a *hot*
record (one heavily queried or rapidly moving agent) still lands on a
single successor that nothing ever splits -- exactly the imbalance the
paper's load-driven rehashing is designed to remove.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Generator, List, Optional, Tuple

from repro.baselines.base import LocationMechanism
from repro.core.config import MAX_RETRIES, RETRY_BACKOFF, HashMechanismConfig
from repro.core.errors import CoreError, LocateFailedError
from repro.platform.agents import Agent
from repro.platform.events import Timeout
from repro.platform.messages import Request
from repro.platform.naming import AgentId

__all__ = ["ChordMechanism", "ChordDirectoryAgent", "ring_hash"]

#: Identifier-circle size exponent (ids are in [0, 2**M)).
M = 32
RING = 1 << M


def ring_hash(text: str) -> int:
    """Deterministic position of ``text`` on the identifier circle."""
    digest = hashlib.sha1(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % RING


def in_interval(key: int, start: int, end: int) -> bool:
    """Whether ``key`` lies in the circular interval ``(start, end]``."""
    if start < end:
        return start < key <= end
    return key > start or key <= end  # the interval wraps through zero


class ChordDirectoryAgent(Agent):
    """One ring member: routes by finger table, stores its key range."""

    def __init__(
        self, agent_id: AgentId, runtime, ring_id: int, service_time: float
    ) -> None:
        super().__init__(agent_id, runtime, tracked=False)
        self.service_time = service_time
        self.mailbox.set_service_time(service_time)
        self.ring_id = ring_id
        self.predecessor_id: Optional[int] = None
        #: finger[i] = (ring_id, node_name) of successor(self + 2**i).
        self.fingers: List[Tuple[int, str]] = []
        self.records: Dict[AgentId, str] = {}

    # -- ring wiring (done by the mechanism at install time) -----------

    def set_ring(self, predecessor_id: int, fingers: List[Tuple[int, str]]) -> None:
        self.predecessor_id = predecessor_id
        self.fingers = fingers

    def owns(self, key: int) -> bool:
        """A node owns the keys in ``(predecessor, self]``."""
        return in_interval(key, self.predecessor_id, self.ring_id)

    def closest_preceding(self, key: int) -> Tuple[int, str]:
        """The finger closest before ``key`` (Chord's routing step)."""
        for finger_id, finger_node in reversed(self.fingers):
            if in_interval(finger_id, self.ring_id, key) and finger_id != key:
                return finger_id, finger_node
        return self.fingers[0]  # the immediate successor

    # -- protocol --------------------------------------------------------

    def handle(self, request: Request):
        body = request.body or {}
        op = request.op
        if op == "route":
            key = body["key"]
            if self.owns(key):
                return {"status": "owner", "node": self.node_name}
            _, next_node = self.closest_preceding(key)
            return {"status": "forward", "next": next_node}
        if op == "store":
            if not self.owns(body["key"]):
                return {"status": "wrong-owner"}
            self.records[body["agent"]] = body["node"]
            return {"status": "ok"}
        if op == "remove":
            self.records.pop(body["agent"], None)
            return {"status": "ok"}
        if op == "fetch":
            if not self.owns(body["key"]):
                return {"status": "wrong-owner"}
            node = self.records.get(body["agent"])
            if node is None:
                return {"status": "unknown"}
            return {"status": "ok", "node": node}
        raise ValueError(f"chord agent does not understand {op!r}")


class ChordMechanism(LocationMechanism):
    """Location records on a consistent-hashing ring."""

    name = "chord"

    def __init__(
        self,
        config: Optional[HashMechanismConfig] = None,
        directory_service_time: float = 0.001,
        max_hops: int = 2 * M,
    ) -> None:
        super().__init__()
        self.config = config or HashMechanismConfig()
        self.directory_service_time = directory_service_time
        self.max_hops = max_hops
        self.ring: Dict[str, ChordDirectoryAgent] = {}

    def install(self, runtime) -> None:
        self.runtime = runtime
        nodes = runtime.node_names()
        if not nodes:
            raise CoreError("install the mechanism after creating nodes")
        for node in nodes:
            self.ring[node] = runtime.create_agent(
                ChordDirectoryAgent,
                node,
                start=False,
                ring_id=ring_hash(node),
                service_time=self.directory_service_time,
            )
        self._wire_ring()

    def _wire_ring(self) -> None:
        """Compute predecessors and finger tables for the static ring."""
        members = sorted(
            ((agent.ring_id, node) for node, agent in self.ring.items())
        )
        count = len(members)
        position_of = {node: index for index, (_, node) in enumerate(members)}

        def successor_of(key: int) -> Tuple[int, str]:
            for ring_id, node in members:
                if ring_id >= key:
                    return ring_id, node
            return members[0]  # wrap around

        for node, agent in self.ring.items():
            index = position_of[node]
            predecessor_id = members[(index - 1) % count][0]
            fingers = [
                successor_of((agent.ring_id + (1 << i)) % RING) for i in range(M)
            ]
            agent.set_ring(predecessor_id, fingers)

    def agent_key(self, agent_id: AgentId) -> int:
        return ring_hash(agent_id.bits)

    # ------------------------------------------------------------------

    def register(self, agent) -> Generator:
        self.counters.registers += 1
        yield from self._write(agent.node_name, agent.agent_id, agent.node_name)

    def report_move(self, agent) -> Generator:
        self.counters.updates += 1
        yield from self._write(agent.node_name, agent.agent_id, agent.node_name)

    def deregister(self, agent) -> Generator:
        node = self.origin_node(agent)
        key = self.agent_key(agent.agent_id)
        owner = yield from self._route(node, key)
        yield from self._ring_rpc(
            node, owner, "remove", {"agent": agent.agent_id, "key": key}
        )

    def locate(self, requester_node: str, agent_id: AgentId) -> Generator:
        self.counters.locates += 1
        key = self.agent_key(agent_id)
        for _attempt in range(MAX_RETRIES):
            owner = yield from self._route(requester_node, key)
            reply = yield from self._ring_rpc(
                requester_node, owner, "fetch", {"agent": agent_id, "key": key}
            )
            if reply["status"] == "ok":
                return reply["node"]
            self.counters.retries += 1
            yield Timeout(RETRY_BACKOFF)
        self.counters.locate_failures += 1
        raise LocateFailedError(f"ring has no record of {agent_id}")

    # ------------------------------------------------------------------

    def _write(self, from_node: str, agent_id: AgentId, location: str) -> Generator:
        key = self.agent_key(agent_id)
        for _attempt in range(MAX_RETRIES):
            owner = yield from self._route(from_node, key)
            reply = yield from self._ring_rpc(
                from_node,
                owner,
                "store",
                {"agent": agent_id, "key": key, "node": location},
            )
            if reply["status"] == "ok":
                return
            self.counters.retries += 1
        raise CoreError(f"could not store record for {agent_id}")

    def _route(self, from_node: str, key: int) -> Generator:
        """Iteratively find the owner node of ``key`` (O(log N) hops)."""
        current = from_node
        for _hop in range(self.max_hops):
            reply = yield from self._ring_rpc(from_node, current, "route", {"key": key})
            if reply["status"] == "owner":
                return reply["node"]
            self.counters.bump("route_hops")
            current = reply["next"]
        raise LocateFailedError(f"routing for key {key} exceeded {self.max_hops} hops")

    def _ring_rpc(self, from_node: str, at_node: str, op: str, body: Dict) -> Generator:
        agent = self.ring[at_node]
        reply = yield self.runtime.rpc(
            from_node,
            at_node,
            agent.agent_id,
            op,
            body,
            timeout=self.config.rpc_timeout,
        )
        return reply
