"""IAgents: the Information Agents that track mobile-agent locations.

Each IAgent maintains, "for each mobile agent it serves, its id and its
precise current location" (paper §2.2), plus the running load statistics
that drive rehashing. An IAgent knows its *coverage* -- the prefix
pattern derived from its leaf's hyper-label -- and refuses requests for
agents outside it with a ``not-responsible`` reply, which is what
triggers the lazy propagation of hash-function updates (§4.3).

IAgents are themselves mobile agents; with the placement extension
enabled (paper §7) they periodically migrate towards the node hosting
the plurality of the agents they serve.

Wire protocol (op -> body -> reply), the same for this simulator agent
and the live ``repro.service.server.IAgentEndpoint`` -- both are drivers
of the one record table in :mod:`repro.core.iagent_state`:

=======================  ==============================================  =======================
``register``/``update``  ``{"agent", "node"[, "seq", "capabilities"]}``  status
``unregister``           ``{"agent"[, "seq"]}``                          status
``locate``               ``{"agent"}``                                   status + node + seq
``set-capabilities``     ``{"agent", "capabilities": dict | None}``      status
``discover-similar``     ``{"agent", "d"[, "pattern"]}``                 status + matches
``discover-capability``  ``{"predicate"[, "pattern"]}``                  status + matches
``get-loads``            ``{"bits": [1-based id bit positions]}``        rate + [zero, one] load per bit
``extract``              ``{"pattern"}``                                 hand-off bundle
``extract-all``          --                                              hand-off bundle
``adopt``                bundle ``[+ "pattern"]``                        status
``set-coverage``         ``{"pattern"}``                                 status
=======================  ==============================================  =======================

``seq`` (default 0, which is all the simulator ever sends) makes writes
idempotent: a record only yields to an equal or newer sequence number. A
hand-off bundle is ``{"records", "loads", "capabilities"}`` keyed by
agent id; this agent adds ``"pending"`` (relay mail, below). Simulator
only: ``deposit-message``; live only: the ``*-batch`` forms and
``hand-off`` (``{"pattern": keep | None, "destinations": [[owner, addr,
pattern], ...]}`` -> status + ``took``: an ``extract`` / ``extract-all``
whose bundles this IAgent pushes to the destinations itself, one
``adopt`` each); ``ping`` answers on both with driver-specific fields.

Replies are dicts with a ``"status"`` key: ``"ok"``, ``"not-responsible"``
or ``"no-record"``. Using statuses instead of exceptions keeps the
NOT_RESPONSIBLE path a first-class protocol outcome, as in the paper.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.core.iagent_state import (
    NO_RECORD,
    NOT_RESPONSIBLE,
    OK,
    IAgentState,
    compile_coverage,
    pattern_matches,
    table_field,
)
from repro.core.load import GroupedLoadStatistics, LoadStatistics
from repro.platform.agents import MobileAgent
from repro.platform.events import Timeout
from repro.platform.messages import Request, RpcError
from repro.platform.naming import AgentId

__all__ = ["IAgent", "NO_RECORD", "NOT_RESPONSIBLE", "OK", "pattern_matches"]

#: IAgents serving fewer records than this never migrate (placement
#: extension) -- with a handful of records the "plurality" is noise and
#: the IAgent would chase its agents around (anti-flapping damper).
PLACEMENT_MIN_RECORDS = 4


class IAgent(MobileAgent):
    """An Information Agent: the directory shard for one hash-tree leaf.

    The simulator driver of :class:`~repro.core.iagent_state.IAgentState`:
    it owns what only exists in simulated time -- the serial mailbox, the
    report loop, the §6 relay mail and the §7 placement vote -- and hands
    every record-table op to the shared core (journal entries are
    dropped: the simulator has no disk).
    """

    size = 30_000  # carries its record table when migrating

    #: Coverage pattern; None until the HAgent hands one over.
    coverage = table_field("coverage")
    #: agent id -> [node name, seq] (the paper's "precise current
    #: location"; the simulator never sends a seq, so it is always 0).
    records = table_field("records")
    #: agent id -> typed capability set (the discovery subsystem).
    capabilities = table_field("capabilities")

    def __init__(self, agent_id: AgentId, runtime, mechanism) -> None:
        super().__init__(agent_id, runtime, tracked=False)
        self.service_time = mechanism.config.iagent_service_time
        self.mailbox.set_service_time(self.service_time)
        self.mechanism = mechanism
        config = mechanism.config
        if config.stats_granularity == "grouped":
            self.stats = GroupedLoadStatistics(
                config.rate_window, group_depth=config.stats_group_depth
            )
        else:
            self.stats = LoadStatistics(config.rate_window)
        self.state = IAgentState(None, self.stats)
        #: agent id -> list of undelivered relay messages (the messaging
        #: extension, :mod:`repro.core.messaging`): each entry is a dict
        #: with ``payload``, ``ack`` routing info and a ``deadline``. It
        #: rides extract/adopt under the bundle key ``pending``, which
        #: the core and the HAgent carry without interpreting.
        self.pending_messages: Dict[AgentId, list] = {}
        self._reporter_running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def main(self) -> Generator:
        """Periodically report the window rate to the HAgent."""
        self._reporter_running = True
        config = self.mechanism.config
        while self.alive:
            yield Timeout(config.report_interval)
            if not self.alive:
                break
            if self.node is None:
                continue  # mid-migration (placement move): skip a beat
            self._expire_pending_messages()
            try:
                yield self.rpc(
                    self.mechanism.hagent_node,
                    self.mechanism.hagent_id,
                    "load-report",
                    {
                        "owner": self.agent_id,
                        "rate": self.stats.rate(self.sim.now),
                        "mature": self.stats.total.mature(
                            self.sim.now, config.warmup_fraction
                        ),
                        "records": len(self.records),
                        # Measured mean service time, feeding the
                        # adaptive threshold heuristic at the HAgent.
                        "service_estimate": (
                            self.mailbox.busy_time
                            / max(self.mailbox.jobs_processed, 1)
                        ),
                    },
                    timeout=config.rpc_timeout,
                )
            except RpcError:
                # The HAgent may be crashed (failover experiments) or
                # mid-rehash; reporting is best-effort by design.
                continue

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def handle(self, request: Request) -> Any:
        handler = getattr(self, "_op_" + request.op.replace("-", "_"), None)
        if handler is None:
            raise ValueError(f"IAgent does not understand op {request.op!r}")
        return handler(request.body or {})

    def _op_register(self, body: Dict) -> Dict:
        return self.state.put(body, self.sim.now)[0]

    def _op_update(self, body: Dict) -> Dict:
        reply = self.state.put(body, self.sim.now)[0]
        # The messaging extension: an update is the moment a fast mover
        # is pinned down -- chase it with its relay mail.
        self._chase(body["agent"])
        return reply

    def _op_unregister(self, body: Dict) -> Dict:
        return self.state.unregister(body)[0]

    def _op_locate(self, body: Dict) -> Dict:
        return self.state.locate(body, self.sim.now)

    def _op_set_capabilities(self, body: Dict) -> Dict:
        return self.state.set_capabilities(body, self.sim.now)[0]

    def _op_discover_similar(self, body: Dict) -> Dict:
        return self.state.discover_similar(body)

    def _op_discover_capability(self, body: Dict) -> Dict:
        return self.state.discover_capability(body)

    def _op_get_loads(self, body: Dict) -> Dict:
        return self.state.get_loads(body, self.sim.now)

    def _op_extract(self, body: Dict) -> Dict:
        reply = self.state.extract(body, self.sim.now)[0]
        reply["pending"] = self._release_pending(body["pattern"])
        return reply

    def _op_extract_all(self, body: Dict) -> Dict:
        reply = self.state.extract_all()[0]
        reply["pending"] = self._release_pending(None)
        return reply

    def _op_adopt(self, body: Dict) -> Dict:
        reply = self.state.adopt(body)[0]
        for agent_id, entries in body.get("pending", {}).items():
            self.pending_messages.setdefault(agent_id, []).extend(entries)
            self._chase(agent_id)
        return reply

    def _op_set_coverage(self, body: Dict) -> Dict:
        return self.state.set_coverage(body)[0]

    def _op_ping(self, body: Dict) -> Dict:
        return {"status": OK, "node": self.node_name, "records": len(self.records)}

    # -- messaging extension (paper §6 future work) ----------------------

    def _op_deposit_message(self, body: Dict) -> Any:
        """Hold a message for a served agent; forwarded on its next
        update (or immediately if its location is already known)."""
        target = body["target"]
        if not self.state.covers(target):
            return {"status": NOT_RESPONSIBLE}
        entry = {
            "payload": body["payload"],
            "ack": body.get("ack"),
            "deadline": body["deadline"],
            "attempts": 0,
        }
        self.pending_messages.setdefault(target, []).append(entry)
        self._chase(target)
        return {"status": OK}

    def _chase(self, target: AgentId) -> None:
        """Forward ``target``'s relay mail, if it has any and we know
        where it is."""
        record = self.records.get(target)
        if record is not None and self.pending_messages.get(target):
            self.sim.spawn(
                self._forward_pending(target, record[0]),
                name=f"relay-{target.short()}",
            )

    def _release_pending(self, pattern: Optional[str]) -> Dict[AgentId, list]:
        """Relay mail leaves with its agent's id: everything outside
        ``pattern`` -- mail for agents that never registered here too."""
        covers = compile_coverage(pattern)
        return {
            agent_id: self.pending_messages.pop(agent_id)
            for agent_id in list(self.pending_messages)
            if not covers(agent_id)
        }

    def _forward_pending(self, target: AgentId, node: str) -> Generator:
        """Try to push every pending message for ``target`` to ``node``."""
        entries = self.pending_messages.get(target, [])
        for entry in list(entries):
            if entry not in entries:
                continue  # a concurrent forwarding pass delivered it
            if self.sim.now > entry["deadline"]:
                entries.remove(entry)
                continue
            try:
                yield self.rpc(
                    node,
                    target,
                    "user-message",
                    entry["payload"],
                    timeout=self.mechanism.config.rpc_timeout,
                )
            except RpcError:
                entry["attempts"] += 1
                continue  # it moved again; the next update retries
            if entry in entries:
                entries.remove(entry)
            yield from self._send_relay_ack(entry)
        if not entries:
            self.pending_messages.pop(target, None)

    def _send_relay_ack(self, entry: Dict) -> Generator:
        ack = entry.get("ack")
        if ack is None:
            return
        try:
            yield self.rpc(
                ack["node"],
                ack["agent"],
                "relay-ack",
                {"token": ack["token"], "attempts": entry["attempts"]},
                timeout=self.mechanism.config.rpc_timeout,
            )
        except RpcError:
            return  # the sender gave up; nothing to report to

    def _expire_pending_messages(self) -> None:
        now = self.sim.now
        for target in list(self.pending_messages):
            entries = [
                entry
                for entry in self.pending_messages[target]
                if entry["deadline"] >= now
            ]
            if entries:
                self.pending_messages[target] = entries
            else:
                del self.pending_messages[target]

    # ------------------------------------------------------------------
    # Placement extension (paper §7)
    # ------------------------------------------------------------------

    def plurality_node(self) -> Optional[str]:
        """The node hosting the largest share of this IAgent's agents.

        Returns ``None`` when the share does not reach the configured
        majority or there are too few records for the plurality to be
        signal rather than noise.
        """
        if len(self.records) < PLACEMENT_MIN_RECORDS:
            return None
        counts: Dict[str, int] = {}
        for node, _seq in self.records.values():
            counts[node] = counts.get(node, 0) + 1
        best_node = max(counts, key=lambda name: (counts[name], name))
        if counts[best_node] < self.mechanism.config.placement_majority * len(
            self.records
        ):
            return None
        return best_node
