"""Hamming-similarity primitives shared by the simulator and the live service.

The query pipeline has two stages, mirroring cutespamtk's
``find_all_hamming_distance`` split between tree walk and bucket scan:

1. *candidates* -- a prefix-pruned walk over the hash tree returns the
   IAgents whose region intersects the Hamming ball (the walk itself is
   :meth:`repro.core.hash_tree.HashTree.find_within_hamming`);
2. *exact filter* -- each candidate IAgent scans its own record table
   with :func:`ids_within`, keeping ids at distance 1..d (the query id
   itself is excluded, matching cutespamtk's semantics).

Partial results from the candidates (and, sharded, from the shards whose
prefix can still reach the ball -- :func:`shards_within`) are merged at
the querying side with :func:`merge_matches`, newest sequence winning
when the same agent is reported twice mid-move.
"""

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.platform.naming import AgentId, shard_of

__all__ = [
    "hamming_distance",
    "ids_within",
    "merge_matches",
    "shards_within",
]


def hamming_distance(a: str, b: str) -> int:
    """Number of positions at which two equal-length bit strings differ."""
    if len(a) != len(b):
        raise ValueError(f"bit strings differ in length: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


def ids_within(
    ids: Iterable[AgentId], query: AgentId, d: int
) -> List[Tuple[AgentId, int]]:
    """Ids at Hamming distance 1..``d`` of ``query``, nearest first.

    The query id itself is excluded: discovering neighbours of X should
    never return X. Ties are broken by id so the output is deterministic
    regardless of input order.
    """
    qv = query.value
    out: List[Tuple[AgentId, int]] = []
    for other in ids:
        dist = bin(other.value ^ qv).count("1")
        if 1 <= dist <= d:
            out.append((other, dist))
    out.sort(key=lambda pair: (pair[1], pair[0]))
    return out


def merge_matches(
    partials: Iterable[Sequence[Dict[str, object]]],
) -> List[Dict[str, object]]:
    """Merge per-candidate (or per-shard) match lists into one result set.

    Each match is a dict with at least ``agent`` and ``seq``; when the
    same agent appears in several partials (a move settling across two
    IAgents), the record with the highest ``seq`` wins. The merged list
    is sorted by ``(distance, agent)`` when distances are present, else
    by agent, so equal result *sets* compare equal however the partials
    arrived.
    """
    best: Dict[AgentId, Dict[str, object]] = {}
    for partial in partials:
        for match in partial:
            agent = match["agent"]
            assert isinstance(agent, AgentId)
            prev = best.get(agent)
            if prev is None or int(match["seq"]) > int(prev["seq"]):  # type: ignore[arg-type]
                best[agent] = dict(match)
    merged = list(best.values())
    merged.sort(key=lambda m: (int(m.get("distance", 0)), m["agent"]))  # type: ignore[arg-type]
    return merged


def shards_within(agent: AgentId, d: int, shards: int) -> List[int]:
    """Shards whose prefix can still hold an id within distance ``d``
    of ``agent``.

    Shard assignment takes the top ``log2(shards)`` id bits, an id
    narrower than that padded with zero bits (``shard_of``); an id
    inside the ball differs from the query in at most ``d`` positions
    total, so only shards whose prefix is within ``d`` of the query's
    prefix can contain ball members. With one shard (or a radius
    covering every prefix) this is simply all shards.
    """
    home = shard_of(agent, shards)
    return [shard for shard in range(shards) if bin(shard ^ home).count("1") <= d]
