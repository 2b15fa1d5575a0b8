"""Rehashing: when (§4.1-§4.2), which split (§4.1), and how it is carried out.

Sans-IO, so all of it can be tested without a simulation or a socket.
:class:`RehashPolicy` is the T_max / T_min / patience / cooldown trigger
both coordinators feed their load reports to, each with its own clock.
The candidate walk (``_walk``) takes the candidate list in the paper's
order -- complex splits first (left-most multi-bit label, then the first
bit after the valid bit), then simple splits with growing ``m`` -- and
returns the first candidate whose load division is *even*. It is
written once, over a ``division_of(owner, bit)`` lookup, and has two
callers. :func:`split_saga` plans where the loads are: it sends each
owner a candidate touches the bit positions that involve it
(``get-loads {"bits"}``) and walks over the two sums per bit each IAgent
answers, so no per-agent table leaves an IAgent to plan a split.
:func:`plan_split` answers the same walk from whole ``{id bits: load}``
tables, for a caller that holds them (tests, the planner benchmark).
:func:`split_saga` and :func:`merge_saga` are the choreography -- "the
splitting and merging processes" the paper's HAgent coordinates (§2.2)
-- written once for the simulator ``HAgent`` and the live
``HAgentServer`` (see *The sagas* below). The live coordinator's other
multi-request protocols are sagas in the same idiom, stepped by the same
``HAgentServer._step``: :func:`takeover_saga` (re-host a dead IAgent's
leaf) and the two sides of the cross-shard merge,
:func:`shard_merge_saga` and :func:`shard_absorb_saga`.

If no candidate is even, the paper's text keeps incrementing ``m``
"until m is sufficiently large to produce an even split"; that loop need
not terminate (one agent can carry all the load), so the tree's
candidates stop at ``hash_tree.MAX_SIMPLE_M`` and we fall back to the
most balanced division seen that moves a non-zero load, or give up
(``None``) when every division is degenerate. The deviation is recorded
in DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import HashMechanismConfig
from repro.core.hash_tree import HashTree, SplitCandidate
from repro.core.iagent_state import OK, merge_handoffs, route_handoff
from repro.core.load import is_even_split, split_loads

__all__ = [
    "PlannedSplit",
    "Refused",
    "RehashPolicy",
    "merge_saga",
    "plan_split",
    "shard_absorb_saga",
    "shard_merge_saga",
    "split_saga",
    "takeover_saga",
]

#: One owner's load on the (zero, one) side of an id bit; None if unknown.
Division = Optional[Sequence[int]]

#: A split is *even* when the lighter side receives at least this
#: fraction of the load being divided (paper §4.1's "even split").
BALANCE_TOLERANCE = 0.25

#: Utilization ceiling the adaptive threshold heuristic aims at per IAgent.
TARGET_UTILIZATION = 0.4

#: Adaptive T_min as a fraction of the effective T_max.
ADAPTIVE_T_MIN_FRACTION = 0.1


class RehashPolicy:
    """The rehash trigger: thresholds, per-owner cooldown, merge streaks.

    Sans-IO: the driver passes its own clock reading (virtual seconds in
    the simulator, ``time.monotonic()`` live) and runs the verdict.
    """

    def __init__(self, config: HashMechanismConfig) -> None:
        config.validate()
        self.config = config
        self._cooldown_until: Dict[Any, float] = {}
        self._merge_streak: Dict[Any, int] = {}

    def thresholds_for(self, report: Mapping[str, Any]) -> Tuple[float, float]:
        """Effective (T_max, T_min) for one IAgent's report.

        ``"fixed"`` mode returns the configured pair. ``"adaptive"``
        mode -- the heuristic the paper defers to future work -- keeps
        each IAgent below ``TARGET_UTILIZATION`` of its *measured*
        capacity: ``T_max = TARGET_UTILIZATION / mean_service_time``.
        """
        config = self.config
        service = report.get("service_estimate") or 0.0
        if config.threshold_mode == "fixed" or service <= 0.0:
            return config.t_max, config.t_min  # configured, or no measurement yet
        t_max = TARGET_UTILIZATION / service
        return t_max, t_max * ADAPTIVE_T_MIN_FRACTION

    def set_cooldown(self, owner: Any, now: float) -> None:
        self._cooldown_until[owner] = now + self.config.cooldown

    def cooling(self, owner: Any, now: float) -> bool:
        return now < self._cooldown_until.get(owner, 0.0)

    def decide(
        self, report: Mapping[str, Any], now: float, mergeable: bool
    ) -> Optional[str]:
        """``"split"``, ``"merge"`` or ``None`` for one load report.

        Split above T_max; merge after ``merge_patience`` consecutive
        reports below T_min, counted only while ``mergeable`` (the
        driver knows whether anything is left to merge with). Immature
        reports and owners in cooldown decide nothing.
        """
        owner = report["owner"]
        if not report.get("mature") or self.cooling(owner, now):
            return None
        t_max, t_min = self.thresholds_for(report)
        rate = report["rate"]
        # Put back below only if this report continues the streak.
        streak = self._merge_streak.pop(owner, 0) + 1
        if rate > t_max:
            return "split"
        if not (self.config.enable_merge and rate < t_min and mergeable):
            return None
        if streak >= self.config.merge_patience:
            return "merge"
        self._merge_streak[owner] = streak
        return None


@dataclass(frozen=True)
class PlannedSplit:
    """A chosen split and its projected load division."""

    candidate: SplitCandidate
    load_zero_side: int
    load_one_side: int
    even: bool

    @property
    def total_load(self) -> int:
        return self.load_zero_side + self.load_one_side


def plan_split(
    tree: HashTree,
    owner: Hashable,
    loads_by_owner: Mapping[Hashable, Mapping[str, int]],
    config: HashMechanismConfig,
) -> Optional[PlannedSplit]:
    """Choose the split for ``owner``, or ``None`` if none is worthwhile.

    Parameters
    ----------
    loads_by_owner:
        Per-owner mapping of agent-id bits to accumulated load. Must
        contain at least ``owner``; candidates whose affected owners are
        missing from the mapping are skipped (the caller controls how
        much load information it gathers).
    """

    def division_of(affected: Hashable, position: int) -> Division:
        loads = loads_by_owner.get(affected)
        if loads is None:
            return None
        try:
            return split_loads(loads.items(), position)
        except ValueError:
            # Grouped statistics: the candidate bit lies deeper than the
            # group prefixes record, so the division cannot be evaluated.
            return None

    return _walk(tree, _candidates(tree, owner, config), division_of)


def _candidates(
    tree: HashTree, owner: Hashable, config: HashMechanismConfig
) -> Iterator[SplitCandidate]:
    """The admissible candidates for ``owner``, in the paper's order,
    each built when it is tried."""
    candidates = tree.iter_split_candidates(owner, scope=config.complex_split_scope)
    if not config.enable_complex_split:
        return (cand for cand in candidates if cand.kind == "simple")
    return candidates


def _walk(
    tree: HashTree,
    candidates: Iterable[SplitCandidate],
    division_of: Callable[[Hashable, int], Division],
) -> Optional[PlannedSplit]:
    """The candidate walk: the first even division wins, else the most
    balanced one that moves a non-zero load, else ``None``.

    ``division_of(owner, position)`` is one affected owner's load on
    either side of id bit ``position``, or ``None`` if unknown; a
    candidate's division is the sum over the owners it affects, and a
    candidate with an unknown part is skipped. Asked lazily, in order.
    """
    best_fallback: Optional[PlannedSplit] = None
    best_lighter = 0  # the fallback must move a non-zero load
    for candidate in candidates:
        zero_side = one_side = 0
        for affected in tree.affected_owners(candidate):
            division = division_of(affected, candidate.bit_position)
            if division is None:
                break
            zero_side += division[0]
            one_side += division[1]
        else:
            if is_even_split(zero_side, one_side, BALANCE_TOLERANCE):
                return PlannedSplit(candidate, zero_side, one_side, even=True)
            lighter = min(zero_side, one_side)
            if lighter > best_lighter:
                best_lighter = lighter
                best_fallback = PlannedSplit(candidate, zero_side, one_side, even=False)
    return best_fallback


# ----------------------------------------------------------------------
# The sagas: one split / merge / takeover / cross-shard merge, start to
# finish
#
# A saga is a generator over a *coordinator* -- anything with the
# journaled primary copy ``function``, the ``policy``, the ``splits`` /
# ``merges`` counters, ``_now()`` (its clock), ``_publish(entry)`` (apply
# to the primary copy and make it durable / replicated; returns the
# tree's outcome) and ``_log(event, **fields)``; the takeover and
# cross-shard sagas also read its node book, epoch and shard row (see
# each). Everything that needs a network or another process it *yields*
# to the driver stepping it:
#
#   ("call", target, node, op, body)  ->  the reply dict of an IAgent, or
#                                         of the node's "host" endpoint
#   ("hand-off", sources, destinations)
#                                     ->  {destination owner: records it took}
#                                         for the destinations that
#                                         acknowledged
#   ("spawn",)                        ->  (new_owner, new_node), hosted and empty
#   ("retire", owner, node)           ->  anything
#   ("restore", owner, node, bundle)  ->  the IAgent's reply to an *unfenced*
#                                         adopt
#   ("shard", shard, op, body)        ->  the reply of that shard's current
#                                         primary coordinator
#   ("broadcast", shard, op, body)    ->  None: sent to every replica of the
#                                         shard, best effort
#
# ``node`` is where the primary copy places the IAgent (``None`` when it
# does not know). A hand-off's ``sources`` are ``(owner, node,
# keep_pattern)`` -- each source shrinks to its pattern, or with
# ``None`` gives everything up -- and its ``destinations`` ``(owner,
# node, pattern)``: what the sources displace goes to the destination
# that covers it, and every destination adopts its pattern. The live
# driver has each source push its records straight to the destinations;
# the simulator's relays them through the coordinator (DESIGN.md §5d).
# A request the driver could not perform is answered
# with ``None``; the saga, not the driver, decides what that means: a
# failure *before* the publish abandons the rehash untouched, a failure
# *after* it is skipped -- the published function already routes to the
# new leaves, and records that missed their hand-off re-converge through
# the §4.3 NOT_RESPONSIBLE path as their agents next move. The publish
# itself is one step (mutation, version bump, journal entry), so the
# primary copy is never torn whichever request fails. The one decision
# that needs more than "no answer" is the cross-shard commit's, so a
# ``shard`` request the peer *refused* is answered with a
# :class:`Refused`; a saga raises :class:`Refused` to refuse the op it
# serves.
# ----------------------------------------------------------------------

Saga = Generator[Tuple[Any, ...], Any, Any]


class Refused(Exception):
    """A definite no, ``"code: message"`` -- unlike ``None``, which says
    only that no answer came."""


def _call(coord: Any, owner: Any, op: str, body: Dict) -> Tuple:
    return ("call", owner, coord.function.iagent_nodes.get(owner), op, body)


def _placed(coord: Any, owner: Any) -> Tuple[Any, Any, str]:
    """``(owner, node, pattern)``: a leaf, where it is, what it covers."""
    function = coord.function
    return owner, function.iagent_nodes.get(owner), function.tree.coverage(owner)


def _ready(coord: Any, owner: Any) -> bool:
    """Re-check the verdict's preconditions: the driver may have queued
    this saga behind another rehash that consumed or cooled ``owner``."""
    tree = coord.function.tree
    return (
        tree is not None
        and tree.has_owner(owner)
        and not coord.policy.cooling(owner, coord._now())
    )


def split_saga(coord: Any, owner: Any) -> Saga:
    """Split ``owner``'s leaf (paper §4.1): plan on gathered loads, spawn
    the new IAgent, publish, then move the evicted records to it."""
    if not _ready(coord, owner):
        return
    policy, tree = coord.policy, coord.function.tree
    # One request per owner a candidate touches, the overloaded one
    # first: the id bits whose load division the plan needs from it. The
    # requests name every candidate's bit, so the walk gets them all.
    candidates = list(_candidates(tree, owner, policy.config))
    asked: Dict[Any, List[int]] = {owner: []}
    for candidate in candidates:
        for affected in tree.affected_owners(candidate):
            asked.setdefault(affected, []).append(candidate.bit_position)
    divisions: Dict[Any, Mapping[int, Division]] = {}
    for each, bits in asked.items():
        reply = yield _call(coord, each, "get-loads", {"bits": bits})
        if reply is None:
            return  # unreachable IAgent; try again on the next report
        divisions[each] = reply["divisions"]

    planned = _walk(tree, candidates, lambda each, bit: divisions[each].get(bit))
    if planned is None:
        # Nothing divisible (e.g. a single red-hot agent): back off.
        policy.set_cooldown(owner, coord._now())
        return
    spawned = yield ("spawn",)
    if spawned is None:
        return
    new_owner, new_node = spawned
    kind, bit = planned.candidate.kind, planned.candidate.bit_position
    outcome = coord._publish(
        {
            "op": "split",
            "kind": kind,
            "owner": owner,
            "bit": bit,
            "new_owner": new_owner,
            "new_node": new_node,
        }
    )
    coord.splits += 1

    # Every affected owner shrinks to its new coverage; everything
    # evicted belongs to the new IAgent.
    took = yield (
        "hand-off",
        [_placed(coord, affected) for affected in outcome.affected_owners],
        [_placed(coord, new_owner)],
    )

    now = coord._now()
    policy.set_cooldown(owner, now)
    policy.set_cooldown(new_owner, now)
    coord._log(
        "split",
        owner=owner,
        new_owner=new_owner,
        kind=kind,
        bit=bit,
        even=planned.even,
        moved=sum((took or {}).values()),
    )


def merge_saga(coord: Any, owner: Any) -> Saga:
    """Merge ``owner``'s leaf away (paper §4.2): publish, re-route its
    records through the updated tree to the absorbers, retire it."""
    if not _ready(coord, owner) or len(coord.function.tree) <= 1:
        return
    node = coord.function.iagent_nodes.get(owner)
    outcome = coord._publish({"op": "merge", "owner": owner})
    coord.merges += 1

    # Everything goes; each absorber gets its widened pattern, with
    # records or without.
    took = yield (
        "hand-off",
        [(owner, node, None)],
        [_placed(coord, absorber) for absorber in outcome.absorbers],
    )
    for absorber in took or ():
        coord.policy.set_cooldown(absorber, coord._now())
    yield ("retire", owner, node)
    coord._log(
        "merge",
        owner=owner,
        kind=outcome.kind,
        absorbers=list(outcome.absorbers),
        moved=sum((took or {}).values()),
    )


def takeover_saga(coord: Any, owner: Any) -> Saga:
    """Re-host a dead IAgent's leaf on a live node, then publish the
    ``move``; returns the new node, or ``None`` when nothing moved.

    The replacement gets the leaf's exact coverage and an empty table (a
    same-node re-host may warm-recover it from its own disk); the node
    hosts' re-registration refills it and secondary copies learn the new
    address by delta refresh. Also reads ``node_addrs``, ``_pick_node()``
    and ``takeovers``.
    """
    old_node = coord.function.iagent_nodes.get(owner)
    if old_node is None:
        return None
    for _ in range(len(coord.node_addrs)):
        new_node = coord._pick_node()
        if new_node != old_node or len(coord.node_addrs) == 1:
            break
    pattern = coord.function.tree.coverage(owner)
    body = {"owner": owner, "pattern": pattern, "recover": new_node == old_node}
    if (yield ("call", "host", new_node, "host-iagent", body)) is None:
        return None  # that node is sick too; the liveness monitor retries
    coord._publish({"op": "move", "owner": owner, "node": new_node})
    coord.takeovers += 1
    coord._log("takeover", owner=owner, node=new_node, old_node=old_node)
    return new_node


def shard_merge_saga(coord: Any, buddy: int) -> Saga:
    """Hand this shard's whole prefix to shard ``buddy``, the initiator's
    side (docs/PROTOCOLS.md §12): prepare, drain every leaf through this
    shard's own epoch fence, commit, then release and retire -- or put
    the drained records back. Returns the ``shard-merge`` reply.

    The commit's answer decides. Refused: the buddy took nothing, so
    restore. Unanswered: *in doubt* -- the buddy may have absorbed -- so
    never restore; complete once this shard's row shows the release the
    buddy sends before it answers, else re-send the same commit to the
    buddy's current primary. Also reads ``shard``, ``epoch``,
    ``replica_name``, ``owned`` (the shard row; ``apply_shard_release``
    changes it) and the ``xshard_*`` counters.
    """
    coord.xshard_merges += 1
    grant = yield (
        "shard",
        buddy,
        "shard-merge-prepare",
        {"from_shard": coord.shard, "epoch": coord.epoch, "claimant": coord.replica_name},
    )
    if grant is None:
        return _abandon(coord, f"no answer from shard {buddy}'s primary")
    if isinstance(grant, Refused):
        return _abandon(coord, f"prepare refused: {grant}")

    tree = coord.function.tree
    drained: Dict[Any, Dict[str, Any]] = {}
    for owner in list(coord.function.iagent_nodes):
        reply = yield _call(coord, owner, "extract-all", {})
        drained[owner] = merge_handoffs([] if reply is None else [reply])
        drained[owner]["pattern"] = tree.coverage(owner)
        if reply is None:
            # Fenced off (a deposed initiator) or unreachable: nothing
            # has left this shard, and that leaf gets its coverage back.
            yield from _restore(coord, drained)
            return _abandon(coord, f"drain fenced off or unanswered at {owner}")

    bundle = merge_handoffs(drained.values())
    commit = {
        "from_shard": coord.shard,
        "epoch": coord.epoch,
        "buddy_epoch": grant["epoch"],
        **bundle,
    }
    while True:
        reply = yield ("shard", buddy, "shard-merge-commit", commit)
        if isinstance(reply, Refused):
            yield from _restore(coord, drained)
            return _abandon(coord, f"commit refused: {reply}")
        if reply is not None or coord.shard not in coord.owned:
            break

    # Idempotent: the buddy's broadcast may have released it already.
    coord.apply_shard_release(buddy)
    for owner in drained:
        yield ("retire", owner, coord.function.iagent_nodes.get(owner))
    moved = len(bundle["records"])
    coord._log("xshard-release", into=buddy, moved=moved)
    return {"status": OK, "into": buddy, "moved": moved}


def _restore(coord: Any, drained: Dict[Any, Dict[str, Any]]) -> Saga:
    """The abort path: each drained leaf adopts its records and coverage
    back, *unfenced* -- even a just-deposed initiator may (and must) undo
    its drain; seq-gated records in coverage its successor inherited
    unchanged can never roll anything forward."""
    for owner, bundle in drained.items():
        yield ("restore", owner, coord.function.iagent_nodes.get(owner), bundle)


def _abandon(coord: Any, reason: str) -> Dict[str, Any]:
    coord.xshard_aborts += 1
    coord._log("xshard-abort", reason=reason)
    return {"status": "aborted", "reason": reason}


def shard_absorb_saga(coord: Any, body: Dict[str, Any]) -> Saga:
    """Take the prefix of shard ``body["from_shard"]``, the buddy's side
    of :func:`shard_merge_saga`'s commit: check the grant, prove this
    primary is not deposed, route the records through this shard's tree
    to the leaves that cover them, take the prefix, and tell every
    replica of the released shard. Returns the commit's reply; raises
    :class:`Refused` (``stale-epoch``) when there is no live grant or
    this primary's own nodes fenced it off.

    The proof is a fenced adopt that carries no record, so a refused or
    unanswered one has moved nothing; after it, an unanswered adopt is
    skipped -- those records re-register, as §6's. Also reads
    ``_xshard_grant`` (the prepare's; voided when this replica demotes),
    ``owned``, ``epoch``, ``shard``, ``map_version``, ``replica_name``,
    ``state`` + ``_commit`` and ``xshard_absorbs``.
    """
    from_shard = body["from_shard"]
    if from_shard in coord.owned:
        return {"status": OK, "absorbed": from_shard}  # a re-sent commit
    grant = coord._xshard_grant
    live = {"from_shard": from_shard, "epoch": body["epoch"], "buddy_epoch": coord.epoch}
    if grant != live or body.get("buddy_epoch") != coord.epoch:
        raise Refused(
            f"stale-epoch: no live grant for shard {from_shard}"
            f" at epoch {body.get('buddy_epoch')}"
            f" ({coord.replica_name} is at epoch {coord.epoch})"
        )
    first = next(iter(coord.function.iagent_nodes))
    if (yield _call(coord, first, "adopt", {"records": {}, "loads": {}})) is None:
        coord._xshard_grant = None
        raise Refused(f"stale-epoch: absorb fenced off at {coord.replica_name}'s nodes")
    for absorber, bucket in route_handoff(coord.function.tree, body).items():
        yield _call(coord, absorber, "adopt", bucket)
    if coord._xshard_grant is not grant:
        # A later adopt was refused: this replica demoted, and the grant
        # died with its epoch.
        raise Refused(f"stale-epoch: {coord.replica_name} was deposed mid-absorb")
    coord._xshard_grant = None
    coord._commit(coord.state.absorb_shard(from_shard))
    coord.xshard_absorbs += 1
    coord._log("xshard-absorb", from_shard=from_shard, moved=len(body.get("records", ())))
    # Every replica of the released shard learns it, so an initiator
    # deposed since its drain cannot leave its successor serving it.
    yield (
        "broadcast",
        from_shard,
        "shard-release",
        {"from_shard": from_shard, "into": coord.shard, "map_version": coord.map_version},
    )
    return {"status": OK, "absorbed": from_shard}
