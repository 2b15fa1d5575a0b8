"""Prefix-sharded coordinator routing (the shard map).

The hash tree partitions the agent-id space by bit prefixes; this
module partitions the *coordinators* the same way. A deployment runs
``shards`` (a power of two) independent HAgent replica sets, and every
agent id is routed to exactly one of them by its top ``log2(shards)``
bits -- Kademlia-style prefix routing layered over the paper's hash
tree, so each shard serializes only its own subtree's rehashing.

Three pieces:

* :func:`shard_of` / :func:`shard_of_bits` -- the pure routing
  function. Total over *any* id width (an id narrower than the prefix
  is padded with zero bits), so every id maps to exactly one shard for
  every legal shard count -- the invariant the hypothesis suite pins.
  ``shard_of`` (with ``validate_shards`` / ``prefix_bits``) is defined
  beside :class:`~repro.platform.naming.AgentId`, so the core layer
  routes an id without this package; ``shard_of_bits`` is the
  bit-string reference form the tests compare it against.
* :class:`ShardMap` -- the versioned id-prefix -> coordinator-endpoints
  table. Membership (which replica addresses form each shard) is fixed
  per deployment; *ownership* (which shard currently serves a prefix)
  can move when a cross-shard merge absorbs an idle shard into its
  buddy, bumping :attr:`ShardMap.version`.
* :class:`ShardRouter` -- the client-side cache. Remembers the
  last-known-good primary per shard so a ``stale-epoch`` blip does not
  trigger a full replica scan; only when the cached coordinator
  *refuses* does the caller fall back to discovery (counted, so the
  cache's effectiveness is observable in the client stats).

Everything here is transport-free: servers and clients own the RPCs,
this module owns the pure state, which keeps it trivially testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.platform.naming import AgentId, prefix_bits, shard_of, validate_shards

__all__ = [
    "WRONG_SHARD",
    "ShardMap",
    "ShardRouter",
    "prefix_bits",
    "shard_of",
    "shard_of_bits",
    "shard_prefix",
    "validate_shards",
]

Address = Tuple[str, int]

#: Error code a coordinator replies with when addressed about a prefix
#: it does not own -- either a mis-routed request or a shard map that
#: predates a cross-shard merge. The client invalidates its cached
#: route and re-resolves (see ``repro.service.client``).
WRONG_SHARD = "wrong-shard"


def shard_of_bits(bits: str, shards: int) -> int:
    """The shard owning an MSB-first bit string.

    Ids shorter than the prefix are padded with trailing zero bits, so
    the function is total over every width -- each id lands in exactly
    one shard no matter how the deployment sized ``shards``.
    """
    k = prefix_bits(shards)
    if k == 0:
        return 0
    prefix = bits[:k]
    if len(prefix) < k:
        prefix = prefix.ljust(k, "0")
    return int(prefix, 2)


def shard_prefix(shard: int, shards: int) -> str:
    """The bit-string prefix shard ``shard`` is responsible for."""
    k = prefix_bits(shards)
    if not 0 <= shard < shards:
        raise ValueError(f"shard {shard} out of range for {shards} shards")
    return format(shard, f"0{k}b") if k else ""


@dataclass
class ShardMap:
    """The versioned id-prefix -> coordinator-endpoints table.

    ``replicas[s]`` is shard ``s``'s full replica address book (every
    rank, primary included) -- fixed for the deployment. ``owner[s]``
    is the shard *currently serving* prefix ``s``: initially identity,
    re-pointed (with a version bump) when a cross-shard merge absorbs
    shard ``s`` into its buddy.
    """

    shards: int = 1
    version: int = 1
    replicas: Dict[int, List[Address]] = field(default_factory=dict)
    owner: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_shards(self.shards)
        for s in range(self.shards):
            self.replicas.setdefault(s, [])
            self.owner.setdefault(s, s)

    def shard_for(self, agent_id: AgentId) -> int:
        """The shard *serving* ``agent_id`` (absorptions followed)."""
        return self.owner[shard_of(agent_id, self.shards)]

    def replicas_of(self, shard: int) -> List[Address]:
        """Shard ``shard``'s replica address book (the live list object)."""
        return self.replicas.setdefault(shard, [])

    def absorb(self, shard: int, into: int) -> int:
        """Re-point prefix ``shard`` at coordinator ``into``; new version."""
        if self.owner.get(shard) != into:
            self.owner[shard] = into
            self.version += 1
        return self.version

    def to_wire(self) -> Dict:
        return {
            "shards": self.shards,
            "version": self.version,
            "owner": {str(s): o for s, o in self.owner.items()},
            "replicas": {
                str(s): [list(addr) for addr in addrs]
                for s, addrs in self.replicas.items()
            },
        }

    @classmethod
    def from_wire(cls, payload: Dict) -> "ShardMap":
        return cls(
            shards=payload["shards"],
            version=payload["version"],
            replicas={
                int(s): [(a[0], a[1]) for a in addrs]
                for s, addrs in payload.get("replicas", {}).items()
            },
            owner={int(s): o for s, o in payload.get("owner", {}).items()},
        )


class ShardRouter:
    """Last-known-good coordinator cache, one per client/node.

    The pre-sharding client re-scanned the whole replica book after any
    coordinator hiccup; the router instead keeps the last primary that
    answered per shard and hands it straight back (a *cached hit*).
    Callers invalidate on ``stale-epoch`` / ``wrong-shard`` and fall
    back to a full scan -- a *discovery* -- only when the cached
    coordinator actually refused. Both outcomes are counted so the
    client stats show what re-discovery really costs.
    """

    def __init__(self, shard_map: Optional[ShardMap] = None) -> None:
        self.map = shard_map or ShardMap()
        self._primaries: Dict[int, Address] = {}
        self.cached_hits = 0
        self.discoveries = 0
        self.invalidations = 0
        self.wrong_shard_redirects = 0

    @property
    def shards(self) -> int:
        return self.map.shards

    def shard_for(self, agent_id: AgentId) -> int:
        return self.map.shard_for(agent_id)

    def primary(self, shard: int) -> Optional[Address]:
        """The cached last-known-good primary, counted as a hit."""
        addr = self._primaries.get(shard)
        if addr is not None:
            self.cached_hits += 1
        return addr

    def peek(self, shard: int) -> Optional[Address]:
        """The cached primary without touching the hit counter."""
        return self._primaries.get(shard)

    def set_primary(self, shard: int, addr: Address) -> None:
        """Install a known-good primary (announcement or discovery)."""
        self._primaries[shard] = addr
        book = self.map.replicas_of(shard)
        if addr not in book:
            book.append(addr)

    def invalidate(self, shard: int) -> None:
        """Drop a cached primary that refused (stale-epoch/wrong-shard)."""
        if self._primaries.pop(shard, None) is not None:
            self.invalidations += 1

    def candidates(self, shard: int) -> List[Address]:
        """Full-discovery scan order: cached first, then the whole book."""
        ordered: List[Address] = []
        cached = self._primaries.get(shard)
        if cached is not None:
            ordered.append(cached)
        for addr in self.map.replicas_of(shard):
            if addr not in ordered:
                ordered.append(addr)
        return ordered

    def record_discovery(self) -> None:
        self.discoveries += 1

    def record_redirect(self) -> None:
        self.wrong_shard_redirects += 1

    def counters(self) -> Dict[str, int]:
        return {
            "cached_hits": self.cached_hits,
            "discoveries": self.discoveries,
            "invalidations": self.invalidations,
            "wrong_shard_redirects": self.wrong_shard_redirects,
        }
