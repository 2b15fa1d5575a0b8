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

Delta sync
----------
Alongside the primary copy the HAgent keeps a bounded *journal* of the
rehash operations it has applied, one entry per version bump: ``split``
(kind + owner + promoted bit + new owner/node), ``merge`` (owner) and
``move`` (owner + node). A refreshing LHAgent sends ``get-hash-delta``
with the version its copy has; if the journal still covers every version
since then, the reply carries just those operations -- O(ops) on the
wire and to apply, instead of O(tree) -- and the LHAgent replays them
onto its existing copy. When the copy predates the journal's horizon
(bounded by ``config.sync_journal_capacity``) the reply degrades to the
full snapshot, so correctness never depends on journal retention. Wire
format details are in docs/PROTOCOLS.md.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional

from repro.core.hash_tree import HashTree
from repro.core.iagent_state import merge_handoffs, route_handoff
from repro.core.rehashing import plan_split
from repro.platform.agents import Agent
from repro.platform.messages import Request, RpcError
from repro.platform.naming import AgentId

__all__ = ["HAgent", "RehashEvent", "delta_reply"]


def delta_reply(
    journal: Iterable[Dict],
    version: int,
    since: int,
    bundle: Callable[[], Dict],
    snapshot_size: Callable[[], int],
) -> Dict:
    """Build the reply to a ``get-hash-delta`` request (paper §4.3).

    Shared by the simulator :class:`HAgent` and the live
    :class:`repro.service.server.HAgentServer`: serve the journal suffix
    newer than ``since`` when it covers the whole gap contiguously,
    otherwise degrade to the full snapshot produced by ``bundle`` --
    correctness never depends on journal retention. ``snapshot_size``
    supplies the modelled ``_wire_size`` of a full copy (the service
    layer pays real bytes but keeps the field for uniform accounting).
    """
    if since >= version:
        return {"version": version, "mode": "delta", "ops": [], "_wire_size": 64}
    ops = [entry for entry in journal if entry["version"] > since]
    if len(ops) == version - since and ops and ops[0]["version"] == since + 1:
        return {
            "version": version,
            "mode": "delta",
            "ops": ops,
            "_wire_size": 64 + 48 * len(ops),
        }
    reply = bundle()
    reply["mode"] = "full"
    reply["_wire_size"] = snapshot_size()
    return reply


class RehashEvent(dict):
    """One entry of the rehash log (a dict with a stable key set)."""


class HAgent(Agent):
    """Keeper of the primary hash-function copy; rehash coordinator."""

    def __init__(self, agent_id: AgentId, runtime, mechanism) -> None:
        super().__init__(agent_id, runtime, tracked=False)
        self.service_time = mechanism.config.hagent_service_time
        self.mailbox.set_service_time(self.service_time)
        self.mechanism = mechanism
        self.tree: Optional[HashTree] = None  # set by mechanism.install
        #: owner -> node currently hosting that IAgent.
        self.iagent_nodes: Dict[AgentId, str] = {}
        #: Monotone version of (tree, iagent_nodes); secondary copies
        #: compare against it.
        self.version = 0
        self._cooldown_until: Dict[AgentId, float] = {}
        self._merge_streak: Dict[AgentId, int] = {}
        #: Chronological log of splits/merges, read by the metrics layer.
        self.rehash_log: List[RehashEvent] = []
        #: Bounded journal of rehash operations, one per version bump,
        #: served to LHAgents as deltas (see module docstring).
        self.journal: Deque[Dict] = deque(
            maxlen=mechanism.config.sync_journal_capacity
        )
        self.splits = 0
        self.merges = 0

    # ------------------------------------------------------------------
    # Setup (called by the mechanism during install)
    # ------------------------------------------------------------------

    def adopt_tree(self, tree: HashTree, iagent_nodes: Dict[AgentId, str]) -> None:
        self.tree = tree
        self.iagent_nodes = dict(iagent_nodes)
        self.version += 1

    def bundle(self) -> Dict:
        """The wire form of the primary copy."""
        return {
            "version": self.version,
            "tree": self.tree.to_spec(),
            "iagent_nodes": dict(self.iagent_nodes),
        }

    def snapshot_wire_size(self) -> int:
        """Modelled bytes of a full primary-copy snapshot.

        Scales with the tree: roughly two encoded nodes plus one
        directory entry per leaf (see docs/PROTOCOLS.md).
        """
        return 64 + 96 * len(self.tree)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def handle(self, request: Request) -> Any:
        if request.op == "get-hash-function":
            reply = self.bundle()
            reply["_wire_size"] = self.snapshot_wire_size()
            return reply
        if request.op == "get-hash-delta":
            return self._on_get_delta(request.body)
        if request.op == "load-report":
            return self._on_load_report(request.body)
        if request.op == "iagent-moved":
            return self._on_iagent_moved(request.body)
        if request.op == "ping":
            return {"status": "ok", "version": self.version}
        raise ValueError(f"HAgent does not understand op {request.op!r}")

    def _on_get_delta(self, body: Dict) -> Dict:
        """Serve the journal suffix since the requester's version.

        Falls back to the full snapshot when the journal no longer
        covers the gap (the copy is older than the retention horizon, or
        a non-journaled bump such as the initial ``adopt_tree`` sits
        inside it).
        """
        return delta_reply(
            self.journal,
            self.version,
            body.get("since", -1),
            self.bundle,
            self.snapshot_wire_size,
        )

    def _on_iagent_moved(self, body: Dict) -> Dict:
        owner, node = body["owner"], body["node"]
        if owner in self.iagent_nodes and self.iagent_nodes[owner] != node:
            self.iagent_nodes[owner] = node
            self._publish({"op": "move", "owner": owner, "node": node})
        return {"status": "ok"}

    def _on_load_report(self, body: Dict) -> Generator:
        """Evaluate one IAgent's report; maybe rehash, inline and serial."""
        owner = body["owner"]
        rate = body["rate"]
        mature = body.get("mature", False)
        config = self.mechanism.config
        if self.tree is None or not self.tree.has_owner(owner):
            return {"status": "stale"}
        if not mature or self.sim.now < self._cooldown_until.get(owner, 0.0):
            return {"status": "ok"}

        t_max, t_min = self.thresholds_for(body)
        if rate > t_max:
            self._merge_streak.pop(owner, None)
            yield from self._split(owner)
            return {"status": "ok"}

        if config.enable_merge and rate < t_min and len(self.tree) > 1:
            streak = self._merge_streak.get(owner, 0) + 1
            self._merge_streak[owner] = streak
            if streak >= config.merge_patience:
                self._merge_streak.pop(owner, None)
                yield from self._merge(owner)
        else:
            self._merge_streak.pop(owner, None)
        return {"status": "ok"}

    def thresholds_for(self, report: Dict) -> tuple:
        """Effective (T_max, T_min) for one IAgent's report.

        ``"fixed"`` mode returns the configured pair. ``"adaptive"``
        mode -- the heuristic the paper defers to future work -- keeps
        each IAgent below ``target_utilization`` of its *measured*
        capacity: ``T_max = target_utilization / mean_service_time``.
        """
        config = self.mechanism.config
        if config.threshold_mode == "fixed":
            return config.t_max, config.t_min
        service = report.get("service_estimate") or 0.0
        if service <= 0.0:
            return config.t_max, config.t_min  # no measurement yet
        t_max = config.target_utilization / service
        return t_max, t_max * config.adaptive_t_min_fraction

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
        outcome = self.tree.apply_split(planned.candidate, new_owner)
        self.iagent_nodes[new_owner] = new_node

        # Move the records: every affected owner shrinks to its new
        # coverage; everything evicted belongs to the new IAgent.
        replies = []
        for affected in outcome.affected_owners:
            pattern = self.tree.hyper_label(affected).pattern()
            reply = yield from self._rpc_iagent(
                affected, "extract", {"pattern": pattern}
            )
            replies.append(reply)
        bundle = merge_handoffs(replies)
        bundle["pattern"] = self.tree.hyper_label(new_owner).pattern()
        yield from self._rpc_iagent(new_owner, "adopt", bundle)

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
        self._publish(
            {
                "op": "split",
                "kind": planned.candidate.kind,
                "owner": owner,
                "bit": planned.candidate.bit_position,
                "new_owner": new_owner,
                "new_node": new_node,
            }
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
        outcome = self.tree.apply_merge(owner)
        self.iagent_nodes.pop(owner, None)

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
            yield from self._rpc_iagent(absorber, "adopt", handoff)
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
        self._publish({"op": "merge", "owner": owner})

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
        self._cooldown_until[owner] = (
            self.sim.now + self.mechanism.config.cooldown
        )

    def _publish(self, op: Optional[Dict] = None) -> None:
        """Bump the version, journal ``op`` and push to the backup, if any.

        ``op`` is the delta-sync journal entry describing the change; it
        is stamped with the version it produced. A ``None`` op leaves a
        gap the delta protocol degrades around (full snapshot).
        """
        self.version += 1
        if op is not None:
            op["version"] = self.version
            self.journal.append(op)
        self.mechanism.on_primary_copy_changed(self.bundle())

    def _log(self, event: str, **fields) -> None:
        entry = RehashEvent(
            time=self.sim.now,
            event=event,
            iagents=len(self.tree),
            version=self.version + 1,  # the version _publish is about to set
        )
        entry.update(fields)
        self.rehash_log.append(entry)
        self.runtime.trace("rehash", event=event, iagents=len(self.tree))
