"""The coordinator's durable state as one sans-IO state machine.

The paper gives the HAgent one job -- hold the primary copy and
serialise rehashing (§2.2) -- and names it the single vulnerability
point (§7). The live service answers with WAL-backed, epoch-fenced hot
standbys, so a coordinator's state must come out the same whichever way
it was reached: a live op, WAL replay, a snapshot, or a standby tailing
``replica-sync``. This module holds that state once -- the epoch, the
journaled :class:`~repro.core.hash_function.HashFunction`, the node
address book, the namer position and the shard-ownership row -- with no
clock, no sockets and no disk. Every mutation takes one path::

    build the journal entry -> ``apply(entry)`` -> return the entry

:meth:`CoordinatorState.apply` is the only code that performs a
coordinator transition, so a driver that journals the returned entries
and later replays them through the same ``apply`` rebuilds the state
exactly; a builder that changes nothing returns ``None``: nothing to
journal. The entries are the WAL records (``register-node``,
``bootstrap``, ``rehash``, ``epoch``, ``shard``; field table in
docs/PROTOCOLS.md §10). The namer position rides in ``bootstrap`` and
``rehash`` so a recovered or promoted coordinator never re-issues an
IAgent id a journaled op used. Role and promotion, fencing, the rehash
lock and every RPC stay with the driver
(``repro.service.coordinator.HAgentServer``); the multi-request
protocols that change this state are the :mod:`repro.core.rehashing`
sagas it steps.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.core.hash_function import UNREPLAYABLE, HashFunction

if TYPE_CHECKING:
    from repro.platform.naming import AgentNamer

__all__ = ["CoordinatorState"]

Entry = Dict[str, Any]


class CoordinatorState:
    """Everything a cold coordinator replica must rebuild."""

    def __init__(
        self, shard: int, epoch: int, namer: "AgentNamer", journal_capacity: int
    ) -> None:
        #: The highest epoch this replica has witnessed; its own when
        #: primary. 0 = a standby that has not synced yet.
        self.epoch = epoch
        #: This replica's copy of the hash function -- the primary copy
        #: on a primary, a journal-tailing one on a standby.
        self.function = HashFunction(0, None, {}, deque(maxlen=journal_capacity))
        #: name -> (host, port), in registration order: the order is the
        #: spawn round-robin's.
        self.node_addrs: Dict[str, Tuple[str, int]] = {}
        self.namer = namer
        #: The prefixes this replica set serves: its own, plus any
        #: sibling it absorbed through a cross-shard merge. Empty after
        #: *releasing* (the coordinator became a redirect stub).
        self.owned: Set[int] = {shard}
        #: Bumped whenever ownership changes; lets clients order maps.
        self.map_version = 1
        #: Set on release: the shard now serving this one's prefix.
        self.absorbed_by: Optional[int] = None

    # -- the one transition function ------------------------------------

    def apply(self, entry: Entry) -> Any:
        """Perform one journal entry's transition.

        Returns the tree's outcome for a ``rehash`` (replay ignores it).
        Replaying a suffix of the entries that led to this state changes
        nothing -- a ``rehash`` is gated by its version, an ``epoch`` by
        ``max``, the book and the shard row end on the same values -- so
        a WAL suffix may overlap the snapshot it follows.
        """
        kind = entry["op"]
        if kind == "register-node":
            # Re-registration keeps the node's place in the order.
            self.node_addrs[entry["name"]] = (entry["host"], entry["port"])
        elif kind == "bootstrap":
            self.function.bootstrap(entry["owner"], entry["node"], entry["width"])
            self.namer.state = entry["namer"]
        elif kind == "rehash":
            self.namer.state = entry["namer"]
            return self.function.apply(entry["entry"])
        elif kind == "epoch":
            # Durable, so a restarted replica can never claim an epoch
            # at or below one it already saw.
            self.epoch = max(self.epoch, entry["epoch"])
        elif kind == "shard":
            self.owned = set(entry["owned"])
            self.map_version = entry["map_version"]
            self.absorbed_by = entry.get("absorbed_by")
        else:  # pragma: no cover - would be a writer bug
            raise ValueError(f"unknown HAgent mutation {kind!r}")
        return None

    # -- mutations: build the entry -> apply -> return it ---------------

    def register_node(self, name: str, host: str, port: int) -> Optional[Entry]:
        if self.node_addrs.get(name) == (host, port):
            return None
        entry = {"op": "register-node", "name": name, "host": host, "port": port}
        self.apply(entry)
        return entry

    def bootstrap(self, owner: Any, node: str) -> Optional[Entry]:
        """Install the initial one-leaf function (paper §2.2); ``owner``
        is an id the driver drew from :attr:`namer`."""
        if self.function.tree is not None:
            return None
        entry = {
            "op": "bootstrap",
            "owner": owner,
            "node": node,
            "width": self.namer.width,
            "namer": self.namer.state,
        }
        self.apply(entry)
        return entry

    def publish(self, op: Entry) -> Tuple[Entry, Any]:
        """The rehash forward path: stamp ``op`` with the next version
        and this epoch, apply it; ``(entry, the tree's outcome)``."""
        op["version"] = self.function.version + 1
        op["epoch"] = self.epoch
        entry = {"op": "rehash", "entry": op, "namer": self.namer.state}
        return entry, self.apply(entry)

    def raise_epoch(self, epoch: int) -> Optional[Entry]:
        """Witness a peer's epoch, or claim one (a promotion passes
        ``next_epoch(self.epoch)``); ``None`` unless it is news."""
        if epoch <= self.epoch:
            return None
        entry = {"op": "epoch", "epoch": epoch}
        self.apply(entry)
        return entry

    def _shard_row(
        self, owned: Set[int], map_version: int, absorbed_by: Optional[int]
    ) -> Optional[Entry]:
        if (owned, map_version, absorbed_by) == (
            self.owned,
            self.map_version,
            self.absorbed_by,
        ):
            return None
        entry = {
            "op": "shard",
            "owned": sorted(owned),
            "map_version": map_version,
            "absorbed_by": absorbed_by,
        }
        self.apply(entry)
        return entry

    def absorb_shard(self, from_shard: int) -> Optional[Entry]:
        """This replica set now also serves ``from_shard``'s prefix."""
        if from_shard in self.owned:
            return None
        return self._shard_row(
            self.owned | {from_shard}, self.map_version + 1, self.absorbed_by
        )

    def release_shard(self, into: int) -> Optional[Entry]:
        """This shard's prefix is now served by ``into``."""
        if self.absorbed_by == into and not self.owned:
            return None
        return self._shard_row(set(), self.map_version + 1, into)

    # -- wire forms ------------------------------------------------------

    def book(self) -> Dict[str, List]:
        """The node address book in wire form."""
        return {name: list(addr) for name, addr in self.node_addrs.items()}

    def context(self) -> Dict[str, Any]:
        """What a standby needs beyond the function to *become* the
        coordinator; with :meth:`HashFunction.delta_since` it is the
        ``replica-sync`` reply."""
        return {
            "epoch": self.epoch,
            "namer": self.namer.state,
            "node_addrs": self.book(),
            # For readers from before the book was ordered.
            "node_order": list(self.node_addrs),
            "owned": sorted(self.owned),
            "map_version": self.map_version,
            "absorbed_by": self.absorbed_by,
        }

    def bundle(self) -> Dict[str, Any]:
        """The snapshot: function, context and the function's journal."""
        return {
            **self.function.bundle(),
            **self.context(),
            "journal": list(self.function.journal),
        }

    def install(self, state: Dict[str, Any]) -> None:
        """Replace this state with a snapshot's (:meth:`bundle`)."""
        # Pre-replication snapshots carry no epoch; keep the boot one.
        self.epoch = state.get("epoch", self.epoch)
        self.function.install(state)
        self.function.journal.extend(state["journal"])
        self.node_addrs = {}
        for name, addr in state["node_addrs"].items():
            self.register_node(name, *addr)
        self.namer.state = state["namer"]
        # Pre-sharding snapshots carry no ownership row; keep the boot
        # one (this replica's own prefix).
        if "owned" in state:
            self._shard_row(
                set(state["owned"]),
                state.get("map_version", self.map_version),
                state.get("absorbed_by"),
            )

    def absorb(self, reply: Dict[str, Any]) -> Tuple[str, List[Entry]]:
        """Fold one ``replica-sync`` reply into a standby's state;
        ``(mode, the entries it applied)``.

        On ``"delta"`` the entries are the whole change, so a standby's
        WAL rebuilds what the standby holds in memory. Otherwise the
        function was replaced wholesale -- ``"full"``: the snapshot was
        installed; ``"resync"``: a delta that does not fit emptied the
        copy, and the next pull draws the snapshot -- which no entry
        describes: the driver snapshots. The namer position reaches a
        tailing standby through the ``rehash`` entries only, as it
        reaches the primary's own WAL.
        """
        function = self.function
        applied: List[Optional[Entry]] = []
        mode = reply.get("mode")
        if mode == "delta":
            try:
                for op in reply["ops"]:
                    if op["version"] > function.version:
                        entry = {"op": "rehash", "entry": op, "namer": reply["namer"]}
                        self.apply(entry)
                        applied.append(entry)
            except UNREPLAYABLE:
                function.forget()
                mode = "resync"
        else:
            # Versions are not comparable across epochs.
            rebase = reply.get("epoch", self.epoch) != self.epoch
            mode = function.absorb(reply, rebase)
            self.namer.state = reply["namer"]
        for name, addr in reply.get("node_addrs", {}).items():
            applied.append(self.register_node(name, *addr))
        if "owned" in reply and reply.get("map_version", 0) >= self.map_version:
            applied.append(
                self._shard_row(
                    set(reply["owned"]), reply["map_version"], reply.get("absorbed_by")
                )
            )
        applied.append(self.raise_epoch(reply.get("epoch", self.epoch)))
        return mode, [entry for entry in applied if entry is not None]
