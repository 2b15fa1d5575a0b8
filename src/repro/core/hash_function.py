"""The hash function -- tree + IAgent directory -- as one sans-IO object.

The paper has one hash function: a *primary copy* at the HAgent and
lazily refreshed *secondary copies* at the LHAgents (§2.2, §4.3). Both
are a :class:`HashFunction`; the primary is the same object with a
bounded *journal* of the rehash entries it applied. Every holder -- the
simulator HAgent and LHAgent, the live coordinator (as primary, as
standby and as WAL replay reducer) and the live per-shard LHAgent
copies -- changes its copy through one path::

    validate -> build the entry -> ``publish(entry)`` = stamp + ``apply``

and every other holder catches up by feeding the same entries to the
same :meth:`HashFunction.apply`, which is the only code that performs a
rehash transition. An entry is a plain dict stamped with the version it
produced at the primary:

=========  ==========================================================
``split``  ``kind``, ``owner``, ``bit``, ``new_owner``, ``new_node``
``merge``  ``owner``
``move``   ``owner``, ``node``
=========  ==========================================================

No clock, no sockets, no simulator: who is RPC'd around a transition,
which failures are tolerated, locks, fences and epochs stay with the
drivers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.errors import CoreError
from repro.core.hash_tree import HashTree, SplitCandidate

__all__ = ["HashFunction", "SecondaryCopies", "UNREPLAYABLE"]

#: What the tree raises for an entry that does not fit the copy: unknown
#: owner (KeyError), duplicate new owner (ValueError), a split bit that
#: does not fit the owner's path (SplitFailedError).
UNREPLAYABLE = (CoreError, KeyError, ValueError)


class HashFunction:
    """One versioned copy of the hash tree + IAgent directory.

    ``tree`` is ``None`` until the function is bootstrapped (or, on a
    copy, after :meth:`absorb` gave up on an un-replayable delta).
    ``journal`` is a bounded deque on a primary copy and ``None`` on a
    secondary. Plain slots: :meth:`resolve` sits under every ``whois``.
    """

    __slots__ = ("version", "tree", "iagent_nodes", "journal")

    #: Typed for the read paths, which all need a bootstrapped function;
    #: the empty state is tested explicitly with ``tree is None``.
    tree: HashTree

    def __init__(
        self,
        version: int,
        tree: Optional[HashTree],
        iagent_nodes: Dict,
        journal: Optional[Deque[Dict]] = None,
    ) -> None:
        self.version = version
        self.tree = tree  # type: ignore[assignment]
        self.iagent_nodes = dict(iagent_nodes)
        self.journal = journal

    # -- the one transition function ------------------------------------

    def apply(self, entry: Dict) -> Any:
        """Perform one journaled rehash transition on this copy.

        Returns the tree's ``SplitOutcome`` / ``MergeOutcome`` (``None``
        for a move). An entry at or below this copy's version was
        already seen (duplicate delivery, WAL overlap) and is a no-op,
        so replay is idempotent; after replay the copy is bit-identical
        to the primary at the last entry's version.
        """
        version = entry["version"]
        if version <= self.version:
            return None
        kind = entry["op"]
        outcome = None
        if kind == "split":
            outcome = self.tree.apply_split(
                SplitCandidate(entry["owner"], entry["kind"], entry["bit"]),
                entry["new_owner"],
            )
            self.iagent_nodes[entry["new_owner"]] = entry["new_node"]
        elif kind == "merge":
            outcome = self.tree.apply_merge(entry["owner"])
            self.iagent_nodes.pop(entry["owner"], None)
        elif kind == "move":
            self.iagent_nodes[entry["owner"]] = entry["node"]
        else:
            raise CoreError(f"unknown journal op {kind!r}")
        self.version = version
        if self.journal is not None:
            self.journal.append(entry)
        return outcome

    def apply_ops(self, ops: List[Dict]) -> None:
        """Replay a run of journal entries in place."""
        for entry in ops:
            self.apply(entry)

    def publish(self, op: Dict) -> Any:
        """The forward path: stamp ``op`` with the next version, apply it.

        Mutation, version bump and journal entry are one step, so no
        reader can see the new tree under the old version.
        """
        op["version"] = self.version + 1
        return self.apply(op)

    def bootstrap(self, owner: Any, node: str, width: int) -> None:
        """Install the initial one-leaf function (paper §2.2).

        A version bump with no journal entry: a copy from before it is
        served the full snapshot.
        """
        self.tree = HashTree(owner, width=width)
        self.iagent_nodes = {owner: node}
        self.version += 1

    # -- wire forms ------------------------------------------------------

    def bundle(self) -> Dict:
        """The full copy in wire form."""
        return {
            "version": self.version,
            "tree": self.tree.to_spec() if self.tree is not None else None,
            "iagent_nodes": dict(self.iagent_nodes),
        }

    def install(self, bundle: Dict) -> None:
        """Replace this copy with ``bundle``'s. The journal restarts:
        older suffixes belong to state the full copy replaced."""
        tree: Any = bundle["tree"]
        if tree is not None:
            tree = HashTree.from_spec(tree)
        self.version = bundle["version"]
        self.tree = tree
        self.iagent_nodes = dict(bundle["iagent_nodes"])
        if self.journal is not None:
            self.journal.clear()

    def forget(self) -> None:
        """Empty this copy (``tree is None``, version -1): the holder's
        next request draws the snapshot."""
        self.install({"version": -1, "tree": None, "iagent_nodes": {}})

    @classmethod
    def from_bundle(
        cls, bundle: Dict, journal: Optional[Deque[Dict]] = None
    ) -> "HashFunction":
        """Decode the wire form produced by :meth:`bundle`."""
        copy = cls(-1, None, {}, journal)
        copy.install(bundle)
        return copy

    def snapshot_wire_size(self) -> int:
        """Modelled bytes of a full snapshot: roughly two encoded nodes
        plus one directory entry per leaf (docs/PROTOCOLS.md)."""
        return 64 + 96 * len(self.tree) if self.tree is not None else 64

    def delta_since(self, since: Optional[int]) -> Dict:
        """The reply to a holder whose copy is at version ``since``.

        The journal suffix newer than ``since`` when it covers the whole
        gap contiguously, otherwise the full snapshot -- correctness
        never depends on journal retention. ``since=None`` says the
        holder's version is not comparable with ours (another epoch's
        numbering) and always gets the snapshot.
        """
        version = self.version
        journal = self.journal
        assert journal is not None, "only a journaled (primary) copy serves deltas"
        if since is not None:
            if since >= version:
                return {"version": version, "mode": "delta", "ops": [], "_wire_size": 64}
            ops = [entry for entry in journal if entry["version"] > since]
            if len(ops) == version - since and ops[0]["version"] == since + 1:
                return {
                    "version": version,
                    "mode": "delta",
                    "ops": ops,
                    "_wire_size": 64 + 48 * len(ops),
                }
        reply = self.bundle()
        reply["mode"] = "full"
        reply["_wire_size"] = self.snapshot_wire_size()
        return reply

    def absorb(self, reply: Dict, rebase: bool = False) -> str:
        """Fold a ``get-hash-function`` / ``get-hash-delta`` /
        ``replica-sync`` reply into this copy; says what happened.

        ``"delta"``: the ops were replayed. ``"full"``: the snapshot was
        installed -- unless it is older than this copy (a slow response
        must not clobber a newer one), which ``rebase`` overrides when
        the sender's numbering restarted. ``"resync"``: the delta does
        not fit this copy; the copy is now empty (``tree is None``,
        version -1), so the holder's next request draws the snapshot
        instead of the same failing delta.
        """
        if reply.get("mode") == "delta":
            try:
                self.apply_ops(reply["ops"])
            except UNREPLAYABLE:
                self.forget()
                return "resync"
            return "delta"
        if rebase or reply["version"] >= self.version:
            self.install(reply)
        return "full"

    # -- reads -----------------------------------------------------------

    def resolve(self, agent_id: Any) -> Tuple[Any, Optional[str]]:
        """Map an agent id to ``(iagent_id, node_name)`` via this copy."""
        owner = self.tree.lookup_id(agent_id)
        return owner, self.iagent_nodes.get(owner)

    def candidates(self, agent_id: Optional[Any], d: Optional[int]) -> List[Dict]:
        """Candidate IAgents for a discovery query, best bound first.

        With a radius ``d``, the prefix-pruned Hamming walk selects only
        the IAgents whose region intersects the ball around ``agent_id``
        (``bound`` is the exact minimum distance to the region). With
        ``d=None`` (capability discovery) every IAgent is a candidate at
        bound 0 -- capabilities are not clustered by id prefix.
        """
        if d is None:
            bounds = {owner: 0 for owner in self.tree.owners()}
        else:
            if agent_id is None:
                raise CoreError("similarity discovery requires an agent id")
            bounds = self.tree.find_within_hamming(agent_id, d)
        out = [
            {
                "iagent": owner,
                "node": self.iagent_nodes.get(owner),
                "bound": bound,
                # The coverage pattern this copy believes the candidate
                # serves. The candidate echoes NOT_RESPONSIBLE when its
                # actual coverage differs, which is the staleness signal
                # driving the §4.3 refresh loop for multi-result queries
                # (there is no single queried id to bounce on).
                "pattern": self.tree.coverage(owner),
            }
            for owner, bound in bounds.items()
        ]
        out.sort(key=lambda c: (c["bound"], str(c["iagent"])))
        return out


class SecondaryCopies:
    """What a holder of secondary copies keeps, and how it is fed.

    One copy per shard, the *origin* -- ``(serving shard, epoch)`` --
    each copy's versions belong to, and the node address book. The live
    LHAgent (fed by the coordinators) and the live requester (fed by its
    node's LHAgent) differ only in whom they send :meth:`request` to.
    Versions are comparable within one origin only: a promoted standby
    may number below the dead primary, and a prefix re-pointed by a
    cross-shard merge is served out of another coordinator's function.
    """

    __slots__ = ("copies", "origins", "node_addrs", "journal_capacity")

    def __init__(self, journal_capacity: Optional[int] = None) -> None:
        self.copies: Dict[int, HashFunction] = {}
        self.origins: Dict[int, Tuple[int, int]] = {}
        self.node_addrs: Dict[str, Tuple[str, int]] = {}
        #: Bound of each copy's journal, for a holder that serves deltas on.
        self.journal_capacity = journal_capacity

    def request(self, shard: int) -> Dict:
        """The ``get-hash-delta`` body that brings ``shard``'s copy forward."""
        copy = self.copies.get(shard)
        if copy is None:
            return {"since": -1, "epoch": None, "shard": shard}
        return {"since": copy.version, "epoch": self.origins[shard][1], "shard": shard}

    def absorb(self, shard: int, reply: Dict) -> bool:
        """Fold a copy reply into ``shard``'s copy and the address book.

        False when the reply is a delta that does not fit -- un-replayable,
        or numbered by another origin: the copy is dropped, so the next
        :meth:`request` draws the snapshot instead of the same delta.
        """
        known = self.origins.get(shard, (shard, 0))
        origin = (reply.get("shard", known[0]), reply.get("epoch", known[1]))
        delta = reply.get("mode") == "delta"
        copy = self.copies.get(shard)
        if copy is None:
            if delta:
                return False
            capacity = self.journal_capacity
            journal = deque(maxlen=capacity) if capacity is not None else None
            self.copies[shard] = HashFunction.from_bundle(reply, journal)
        elif (delta and origin != known) or (
            copy.absorb(reply, rebase=origin != known) == "resync"
        ):
            del self.copies[shard]
            return False
        self.origins[shard] = origin
        for name, addr in reply.get("node_addrs", {}).items():
            self.node_addrs[name] = (addr[0], addr[1])
        return True

    def resolve(self, shard: int, agent_id: Any) -> Optional[Dict]:
        """The mapping a requester acts on, or None with no copy of ``shard``."""
        copy = self.copies.get(shard)
        if copy is None:
            return None
        return self.mapping(copy, copy.tree.lookup_id(agent_id))

    def mapping(self, copy: HashFunction, owner: Any) -> Dict:
        """What :meth:`resolve` answers for every id ``copy`` routes to
        ``owner``."""
        node = copy.iagent_nodes.get(owner)
        addr = self.node_addrs.get(node)
        return {
            "iagent": owner,
            "node": node,
            "addr": list(addr) if addr is not None else None,
            "version": copy.version,
        }
