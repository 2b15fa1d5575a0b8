"""The HAgent: primary copy of the hash function and rehash coordinator.

The HAgent (paper §2.2) is "the agent that maintains the primary copy of
the hash function" and "is responsible for coordinating the splitting
and merging processes", ensuring "that only one such process is in
progress at each time". Coordination here is naturally serialised by
the agent's mailbox: a split or merge runs to completion inside one
message handler before the next report is examined.

IAgents report their window rates periodically; the HAgent reacts:

* ``rate > T_max`` -- :func:`repro.core.rehashing.split_saga`: plan a
  split, spawn the new IAgent, rewrite the tree, and move the affected
  location records between the IAgents involved;
* ``rate < T_min`` for ``merge_patience`` consecutive reports --
  :func:`repro.core.rehashing.merge_saga`: merge the IAgent into its
  sibling (or sibling subtree), redistribute its records and retire it.

Every change to the primary copy bumps the version; secondary copies at
the LHAgents catch up lazily (paper §4.3). With the replication
extension enabled, every change is also pushed synchronously to a backup
HAgent (primary-copy replication, addressing the vulnerability the paper
flags in §7).

The primary copy is a journaled
:class:`repro.core.hash_function.HashFunction`: every change is one
``publish(entry)`` -- mutation, version bump and journal entry together
-- and ``get-hash-delta`` serves the journal suffix since the
requester's version (``delta_since``), degrading to the full snapshot
when the copy predates the journal's horizon
(``SYNC_JOURNAL_CAPACITY``). Wire format: docs/PROTOCOLS.md §4b.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Any, Dict, Generator, List

from repro.core.config import HAGENT_SERVICE_TIME, SYNC_JOURNAL_CAPACITY
from repro.core.errors import CoreError
from repro.core.hash_function import HashFunction
from repro.core.iagent_state import merge_handoffs, route_handoff
from repro.core.rehashing import RehashPolicy, merge_saga, split_saga
from repro.platform.agents import Agent
from repro.platform.messages import Request, RpcError
from repro.platform.naming import AgentId

__all__ = ["HAgent", "RehashEvent"]


class RehashEvent(dict):
    """One entry of the rehash log (a dict with a stable key set)."""


class HAgent(Agent):
    """Keeper of the primary hash-function copy; rehash coordinator."""

    def __init__(self, agent_id: AgentId, runtime, mechanism) -> None:
        super().__init__(agent_id, runtime, tracked=False)
        self.service_time = HAGENT_SERVICE_TIME
        self.mailbox.set_service_time(self.service_time)
        self.mechanism = mechanism
        #: The primary copy: tree + IAgent directory + version, with the
        #: bounded journal served to LHAgents as deltas (module docstring).
        #: Bootstrapped by ``mechanism.install``.
        self.function = HashFunction(
            0, None, {}, deque(maxlen=SYNC_JOURNAL_CAPACITY)
        )
        self.policy = RehashPolicy(mechanism.config)
        #: Chronological log of splits/merges, read by the metrics layer.
        self.rehash_log: List[RehashEvent] = []
        self.splits = 0
        self.merges = 0

    # Read views of the primary copy.
    tree = property(attrgetter("function.tree"))
    iagent_nodes = property(attrgetter("function.iagent_nodes"))
    version = property(attrgetter("function.version"))
    journal = property(attrgetter("function.journal"))

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def handle(self, request: Request) -> Any:
        if request.op == "get-hash-function":
            reply = self.function.bundle()
            reply["_wire_size"] = self.function.snapshot_wire_size()
            return reply
        if request.op == "get-hash-delta":
            # Degrades to the full snapshot when the journal no longer
            # covers the gap (a copy older than the retention horizon,
            # or from before the non-journaled bootstrap bump).
            return self.function.delta_since(request.body.get("since", -1))
        if request.op == "load-report":
            return self._on_load_report(request.body)
        if request.op == "iagent-moved":
            return self._on_iagent_moved(request.body)
        if request.op == "ping":
            return {"status": "ok", "version": self.version}
        raise ValueError(f"HAgent does not understand op {request.op!r}")

    def _on_iagent_moved(self, body: Dict) -> Dict:
        owner, node = body["owner"], body["node"]
        if owner in self.iagent_nodes and self.iagent_nodes[owner] != node:
            self._publish({"op": "move", "owner": owner, "node": node})
        return {"status": "ok"}

    def _on_load_report(self, body: Dict) -> Generator:
        """Evaluate one IAgent's report; maybe rehash, inline and serial."""
        owner = body["owner"]
        if self.tree is None or not self.tree.has_owner(owner):
            return {"status": "stale"}
        # Read per report: ``mechanism.config`` may be replaced mid-run
        # (the step-response bench freezes the thresholds that way).
        self.policy.config = self.mechanism.config
        verdict = self.policy.decide(body, self.sim.now, len(self.tree) > 1)
        if verdict == "split":
            yield from self._split(owner)
        elif verdict == "merge":
            yield from self._merge(owner)
        return {"status": "ok"}

    # ------------------------------------------------------------------
    # Split (paper §4.1) and merge (paper §4.2): the choreography is
    # repro.core.rehashing's saga; this agent only performs its requests.
    # ------------------------------------------------------------------

    def _split(self, owner: AgentId) -> Generator:
        return self._step(split_saga(self, owner))

    def _merge(self, owner: AgentId) -> Generator:
        return self._step(merge_saga(self, owner))

    def _step(self, saga: Generator) -> Generator:
        """Drive one saga to completion in virtual time."""
        reply = None
        while True:
            try:
                kind, *args = saga.send(reply)
            except StopIteration:
                return
            try:
                if kind == "call":
                    # The mechanism's registry, not the primary copy's
                    # ``node``, knows where a migrating IAgent is now.
                    owner, _node, op, body = args
                    reply = yield from self._rpc_iagent(owner, op, body)
                elif kind == "hand-off":
                    reply = yield from self._relay(*args)
                elif kind == "spawn":
                    reply = yield from self.mechanism.spawn_iagent()
                else:
                    reply = yield from self.mechanism.retire_iagent(args[0])
            except (RpcError, CoreError):
                reply = None  # unreachable, or not live any more

    def _relay(self, sources: List, destinations: List) -> Generator:
        """Perform a hand-off through this agent: ``extract`` (or
        ``extract-all``) at each source, fold the replies, ``adopt`` at
        each destination -- a split's one new leaf takes the whole
        bundle, a merge's absorbers their share by the updated tree.
        Answers ``{destination: records taken}`` per acknowledged adopt.

        The live coordinator has the sources push instead; the simulator
        keeps the relay so that its runs stay message for message what
        they were (DESIGN.md §5d)."""
        replies = []
        for owner, _node, keep in sources:
            op, body = ("extract-all", {}) if keep is None else ("extract", {"pattern": keep})
            try:
                replies.append((yield from self._rpc_iagent(owner, op, body)))
            except (RpcError, CoreError):
                continue  # that source keeps its records
        bundle = merge_handoffs(replies)
        patterns = {owner: pattern for owner, _node, pattern in destinations}
        if any(keep is None for _owner, _node, keep in sources):
            routed = route_handoff(self.tree, bundle, patterns)
        else:
            (new_owner,) = patterns
            routed = {new_owner: bundle}
        took = {}
        for owner, handoff in routed.items():
            if owner in patterns:
                handoff["pattern"] = patterns[owner]
            try:
                yield from self._rpc_iagent(owner, "adopt", handoff)
            except (RpcError, CoreError):
                continue
            took[owner] = len(handoff.get("records", ()))
        return took

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _rpc_iagent(self, owner: AgentId, op: str, body: Dict = None) -> Generator:
        node = self.mechanism.iagent_node(owner)
        reply = yield self.rpc(
            node, owner, op, body or {}, timeout=self.mechanism.config.rpc_timeout,
            size=1024,
        )
        return reply

    def _now(self) -> float:
        return self.sim.now

    def _publish(self, op: Dict) -> Any:
        """Apply ``op`` to the primary copy -- mutation, version bump and
        journal entry in one step -- and push to the backup, if any."""
        outcome = self.function.publish(op)
        self.mechanism.on_primary_copy_changed()
        return outcome

    def _log(self, event: str, **fields) -> None:
        entry = RehashEvent(
            time=self.sim.now,
            event=event,
            iagents=len(self.tree),
            version=self.version,
        )
        entry.update(fields)
        self.rehash_log.append(entry)
        self.runtime.trace("rehash", event=event, iagents=len(self.tree))
