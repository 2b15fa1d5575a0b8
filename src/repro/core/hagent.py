"""The HAgent: primary copy of the hash function and rehash coordinator.

The HAgent (paper §2.2) is "the agent that maintains the primary copy of
the hash function" and "is responsible for coordinating the splitting
and merging processes", ensuring "that only one such process is in
progress at each time". Coordination here is naturally serialised by
the agent's mailbox: a split or merge runs to completion inside one
message handler before the next report is examined.

IAgents report their window rates periodically; the HAgent reacts:

* ``rate > T_max`` -- plan a split with :func:`repro.core.rehashing.plan_split`,
  spawn the new IAgent, rewrite the tree, and move the affected location
  records between the IAgents involved;
* ``rate < T_min`` for ``merge_patience`` consecutive reports -- merge
  the IAgent into its sibling (or sibling subtree), redistribute its
  records and retire it.

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
(``config.sync_journal_capacity``). Wire format: docs/PROTOCOLS.md §4b.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Any, Dict, Generator, List

from repro.core.hash_function import HashFunction
from repro.core.iagent_state import merge_handoffs, route_handoff
from repro.core.rehashing import RehashPolicy, plan_split
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
        self.service_time = mechanism.config.hagent_service_time
        self.mailbox.set_service_time(self.service_time)
        self.mechanism = mechanism
        #: The primary copy: tree + IAgent directory + version, with the
        #: bounded journal served to LHAgents as deltas (module docstring).
        #: Bootstrapped by ``mechanism.install``.
        self.function = HashFunction(
            0, None, {}, deque(maxlen=mechanism.config.sync_journal_capacity)
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
    # Split (paper §4.1)
    # ------------------------------------------------------------------

    def _split(self, owner: AgentId) -> Generator:
        config = self.mechanism.config
        loads_by_owner: Dict[AgentId, Dict[str, int]] = {}
        try:
            loads_by_owner[owner] = yield from self._fetch_loads(owner)
            if config.complex_split_scope == "path":
                yield from self._fetch_subtree_loads(owner, loads_by_owner)
        except RpcError:
            return  # the IAgent is unreachable; try again on the next report

        planned = plan_split(self.tree, owner, loads_by_owner, config)
        if planned is None:
            # Nothing divisible (e.g. a single red-hot agent): back off.
            self._set_cooldown(owner)
            return

        new_owner, new_node = yield from self.mechanism.spawn_iagent()
        outcome = self._publish(
            {
                "op": "split",
                "kind": planned.candidate.kind,
                "owner": owner,
                "bit": planned.candidate.bit_position,
                "new_owner": new_owner,
                "new_node": new_node,
            }
        )

        # Move the records: every affected owner shrinks to its new
        # coverage; everything evicted belongs to the new IAgent.
        replies = []
        for affected in outcome.affected_owners:
            pattern = self.tree.hyper_label(affected).pattern()
            try:
                reply = yield from self._rpc_iagent(
                    affected, "extract", {"pattern": pattern}
                )
            except RpcError:
                continue  # its agents re-register via NOT_RESPONSIBLE as they move
            replies.append(reply)
        bundle = merge_handoffs(replies)
        bundle["pattern"] = self.tree.hyper_label(new_owner).pattern()
        try:
            yield from self._rpc_iagent(new_owner, "adopt", bundle)
        except RpcError:
            pass  # the published function already routes to it

        self.splits += 1
        self._set_cooldown(owner)
        self._set_cooldown(new_owner)
        self._log(
            "split",
            owner=owner,
            new_owner=new_owner,
            kind=planned.candidate.kind,
            bit=planned.candidate.bit_position,
            even=planned.even,
            moved=len(bundle["records"]),
        )

    def _fetch_loads(self, owner: AgentId) -> Generator:
        reply = yield from self._rpc_iagent(owner, "get-loads")
        return dict(reply["loads"])

    def _fetch_subtree_loads(
        self, owner: AgentId, loads_by_owner: Dict
    ) -> Generator:
        """Gather the loads a path-scope plan may need (all candidates'
        affected owners)."""
        for candidate in self.tree.split_candidates(
            owner, scope="path", max_simple_m=self.mechanism.config.max_simple_m
        ):
            for affected in self.tree.affected_owners(candidate):
                if affected not in loads_by_owner:
                    loads_by_owner[affected] = yield from self._fetch_loads(affected)

    # ------------------------------------------------------------------
    # Merge (paper §4.2)
    # ------------------------------------------------------------------

    def _merge(self, owner: AgentId) -> Generator:
        outcome = self._publish({"op": "merge", "owner": owner})

        try:
            bundle = yield from self._rpc_iagent(owner, "extract-all")
        except RpcError:
            # The IAgent vanished; its agents will re-register via the
            # NOT_RESPONSIBLE path as they move.
            bundle = {}

        # Re-route every orphaned record through the updated tree.
        routed = route_handoff(self.tree, bundle, outcome.absorbers)
        for absorber, handoff in routed.items():
            handoff["pattern"] = self.tree.hyper_label(absorber).pattern()
            try:
                yield from self._rpc_iagent(absorber, "adopt", handoff)
            except RpcError:
                continue
            self._set_cooldown(absorber)

        yield from self.mechanism.retire_iagent(owner)
        self.merges += 1
        self._log(
            "merge",
            owner=owner,
            kind=outcome.kind,
            absorbers=list(outcome.absorbers),
            moved=len(bundle.get("records", ())),
        )

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

    def _set_cooldown(self, owner: AgentId) -> None:
        self.policy.set_cooldown(owner, self.sim.now)

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
