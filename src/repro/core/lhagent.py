"""LHAgents: the per-node Local Hash Agents (paper §2.2, §4.3).

One LHAgent runs on every node and caches a *secondary copy* of the hash
function -- the hash tree plus the current IAgent locations. Copies "may
be temporarily out-of-date"; they are refreshed *on demand* only: when a
requester is bounced by an IAgent with NOT_RESPONSIBLE, it asks its
LHAgent to refresh. Holding a copy, the LHAgent asks the HAgent for
just the journaled rehash operations since its copy's version and
replays them onto the copy in place -- O(ops) instead of O(tree) per
refresh -- falling back to the full snapshot when the journal has been
truncated past its version (or on failover to the backup HAgent, which
serves snapshots only).

Wire protocol:

======================  ==========================================  =================
``whois``               ``{"agent": AgentId}``                      owner + node + version
``refresh``             ``{"stale_version": int, "agent": AgentId}``  fresh whois
``discover-candidates``  ``{"agent": AgentId?, "d": int?}``         candidate IAgents
``version``             --                                          current copy version
======================  ==========================================  =================
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.core.config import LHAGENT_SERVICE_TIME
from repro.core.hash_function import HashFunction
from repro.platform.agents import Agent
from repro.platform.messages import Request, RpcError
from repro.platform.naming import AgentId

__all__ = ["LHAgent", "HashFunctionCopy"]

#: A secondary copy is a :class:`HashFunction` without a journal.
HashFunctionCopy = HashFunction


class LHAgent(Agent):
    """The Local Hash Agent of one node."""

    def __init__(self, agent_id: AgentId, runtime, mechanism) -> None:
        super().__init__(agent_id, runtime, tracked=False)
        self.service_time = LHAGENT_SERVICE_TIME
        self.mailbox.set_service_time(self.service_time)
        self.mechanism = mechanism
        self.copy: Optional[HashFunctionCopy] = None
        #: Counters for the overhead accounting.
        self.refreshes = 0
        self.whois_served = 0
        self.delta_refreshes = 0
        self.full_refreshes = 0

    # ------------------------------------------------------------------

    def handle(self, request: Request) -> Any:
        if request.op == "whois":
            return self._whois(request.body)
        if request.op == "refresh":
            return self._refresh(request.body)
        if request.op == "discover-candidates":
            return self._discover_candidates(request.body)
        if request.op == "version":
            return {"version": self.copy.version if self.copy else -1}
        raise ValueError(f"LHAgent does not understand op {request.op!r}")

    def _whois(self, body: Dict) -> Generator:
        """Resolve an agent id with the cached copy, fetching one if absent."""
        if self.copy is None:
            yield from self._fetch_primary_copy()
        self.whois_served += 1
        owner, node = self.copy.resolve(body["agent"])
        return {"iagent": owner, "node": node, "version": self.copy.version}

    def _discover_candidates(self, body: Dict) -> Generator:
        """Candidate IAgents for a discovery query, from the cached copy."""
        if self.copy is None:
            yield from self._fetch_primary_copy()
        stale_version = body.get("stale_version")
        if stale_version is not None and self.copy.version <= stale_version:
            yield from self._fetch_primary_copy()
        self.whois_served += 1
        cands = self.copy.candidates(body.get("agent"), body.get("d"))
        return {"candidates": cands, "version": self.copy.version}

    def _refresh(self, body: Dict) -> Generator:
        """Refresh the copy if it is no newer than the requester's.

        The requester passes the version its stale mapping came from; if
        another request already refreshed past it, the fetch is skipped
        (the paper's on-demand propagation, with natural deduplication).
        """
        stale_version = body.get("stale_version", -1)
        if self.copy is None or self.copy.version <= stale_version:
            yield from self._fetch_primary_copy()
        owner, node = self.copy.resolve(body["agent"])
        return {"iagent": owner, "node": node, "version": self.copy.version}

    def _fetch_primary_copy(self) -> Generator:
        reply = yield from self._request_copy()
        if self.copy is not None and self.copy.absorb(reply) == "resync":
            # A journal the copy cannot replay (should not happen -- the
            # HAgent checks contiguity) degrades to a snapshot rather
            # than wedging the node.
            self.copy = None
            reply = yield from self._request_copy()
        if self.copy is None:
            self.copy = HashFunction.from_bundle(reply)
        if reply.get("mode") == "delta":
            self.delta_refreshes += 1
        else:
            self.full_refreshes += 1

    def _request_copy(self) -> Generator:
        """One refresh round trip: the delta since our copy when we hold
        one, the snapshot otherwise or from the backup on failover."""
        mechanism = self.mechanism
        config = mechanism.config
        timeout = (
            config.hagent_failover_timeout
            if config.enable_backup_hagent
            else config.rpc_timeout
        )
        if self.copy is not None:
            op, body, size = "get-hash-delta", {"since": self.copy.version}, 64
        else:
            op, body, size = "get-hash-function", None, 2048
        try:
            reply = yield self.rpc(
                mechanism.hagent_node, mechanism.hagent_id, op, body,
                timeout=timeout, size=size,
            )
        except RpcError:
            if not config.enable_backup_hagent or mechanism.backup_id is None:
                raise
            # The backup serves full snapshots only.
            reply = yield self.rpc(
                mechanism.backup_node,
                mechanism.backup_id,
                "get-hash-function",
                timeout=config.rpc_timeout,
                size=2048,
            )
        self.refreshes += 1
        return reply
