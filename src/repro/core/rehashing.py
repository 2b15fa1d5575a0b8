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
``HAgentServer`` (see *The saga* below).

If no candidate is even, the paper's text keeps incrementing ``m``
"until m is sufficiently large to produce an even split"; that loop need
not terminate (one agent can carry all the load), so we bound it at
``config.max_simple_m`` and fall back to the most balanced division seen
that moves a non-zero load, or give up (``None``) when every division is
degenerate. The deviation is recorded in DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import HashMechanismConfig
from repro.core.hash_tree import HashTree, SplitCandidate
from repro.core.iagent_state import merge_handoffs, route_handoff
from repro.core.load import is_even_split, split_loads

__all__ = ["PlannedSplit", "RehashPolicy", "merge_saga", "plan_split", "split_saga"]

#: One owner's load on the (zero, one) side of an id bit; None if unknown.
Division = Optional[Sequence[int]]


class RehashPolicy:
    """The rehash trigger: thresholds, per-owner cooldown, merge streaks.

    Sans-IO: the driver passes its own clock reading (virtual seconds in
    the simulator, ``time.monotonic()`` live) and runs the verdict.
    """

    def __init__(self, config: HashMechanismConfig) -> None:
        self.config = config
        self._cooldown_until: Dict[Any, float] = {}
        self._merge_streak: Dict[Any, int] = {}

    def thresholds_for(self, report: Mapping[str, Any]) -> Tuple[float, float]:
        """Effective (T_max, T_min) for one IAgent's report.

        ``"fixed"`` mode returns the configured pair. ``"adaptive"``
        mode -- the heuristic the paper defers to future work -- keeps
        each IAgent below ``target_utilization`` of its *measured*
        capacity: ``T_max = target_utilization / mean_service_time``.
        """
        config = self.config
        service = report.get("service_estimate") or 0.0
        if config.threshold_mode == "fixed" or service <= 0.0:
            return config.t_max, config.t_min  # configured, or no measurement yet
        t_max = config.target_utilization / service
        return t_max, t_max * config.adaptive_t_min_fraction

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

    return _walk(tree, _candidates(tree, owner, config), division_of, config)


def _candidates(
    tree: HashTree, owner: Hashable, config: HashMechanismConfig
) -> List[SplitCandidate]:
    """The admissible candidates for ``owner``, in the paper's order."""
    candidates = tree.split_candidates(
        owner,
        scope=config.complex_split_scope,
        max_simple_m=config.max_simple_m,
    )
    if not config.enable_complex_split:
        candidates = [cand for cand in candidates if cand.kind == "simple"]
    return candidates


def _walk(
    tree: HashTree,
    candidates: List[SplitCandidate],
    division_of: Callable[[Hashable, int], Division],
    config: HashMechanismConfig,
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
            if is_even_split(zero_side, one_side, config.balance_tolerance):
                return PlannedSplit(candidate, zero_side, one_side, even=True)
            lighter = min(zero_side, one_side)
            if lighter > best_lighter:
                best_lighter = lighter
                best_fallback = PlannedSplit(candidate, zero_side, one_side, even=False)
    return best_fallback


# ----------------------------------------------------------------------
# The saga: one split / one merge, start to finish
#
# A saga is a generator over a *coordinator* -- anything with the
# journaled primary copy ``function``, the ``policy``, the ``splits`` /
# ``merges`` counters, ``_now()`` (its clock), ``_publish(entry)`` (apply
# to the primary copy and make it durable / replicated; returns the
# tree's outcome) and ``_log(event, **fields)``. Everything that needs a
# network or another process it *yields* to the driver stepping it:
#
#   ("call", owner, node, op, body)  ->  the IAgent's reply dict
#   ("spawn",)                       ->  (new_owner, new_node), hosted and empty
#   ("retire", owner, node)          ->  anything
#
# ``node`` is where the primary copy places the IAgent (``None`` when it
# does not know). A request the driver could not perform is answered
# with ``None``; the saga, not the driver, decides what that means: a
# failure *before* the publish abandons the rehash untouched, a failure
# *after* it is skipped -- the published function already routes to the
# new leaves, and records that missed their hand-off re-converge through
# the §4.3 NOT_RESPONSIBLE path as their agents next move. The publish
# itself is one step (mutation, version bump, journal entry), so the
# primary copy is never torn whichever request fails.
# ----------------------------------------------------------------------

Saga = Generator[Tuple[Any, ...], Any, None]


def _call(coord: Any, owner: Any, op: str, body: Dict) -> Tuple:
    return ("call", owner, coord.function.iagent_nodes.get(owner), op, body)


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
    config = policy.config
    # One request per owner a candidate touches, the overloaded one
    # first: the id bits whose load division the plan needs from it.
    candidates = _candidates(tree, owner, config)
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

    planned = _walk(
        tree, candidates, lambda each, bit: divisions[each].get(bit), config
    )
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
    replies = []
    for affected in outcome.affected_owners:
        pattern = tree.hyper_label(affected).pattern()
        reply = yield _call(coord, affected, "extract", {"pattern": pattern})
        if reply is not None:
            replies.append(reply)
    bundle = merge_handoffs(replies)
    bundle["pattern"] = tree.hyper_label(new_owner).pattern()
    yield _call(coord, new_owner, "adopt", bundle)

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
        moved=len(bundle["records"]),
    )


def merge_saga(coord: Any, owner: Any) -> Saga:
    """Merge ``owner``'s leaf away (paper §4.2): publish, re-route its
    records through the updated tree to the absorbers, retire it."""
    if not _ready(coord, owner) or len(coord.function.tree) <= 1:
        return
    tree = coord.function.tree
    node = coord.function.iagent_nodes.get(owner)
    outcome = coord._publish({"op": "merge", "owner": owner})
    coord.merges += 1

    bundle = yield ("call", owner, node, "extract-all", {})
    if bundle is None:
        bundle = {}  # the IAgent vanished, and its table with it
    routed = route_handoff(tree, bundle, outcome.absorbers)
    for absorber, handoff in routed.items():
        handoff["pattern"] = tree.hyper_label(absorber).pattern()
        reply = yield _call(coord, absorber, "adopt", handoff)
        if reply is not None:
            coord.policy.set_cooldown(absorber, coord._now())
    yield ("retire", owner, node)
    coord._log(
        "merge",
        owner=owner,
        kind=outcome.kind,
        absorbers=list(outcome.absorbers),
        moved=len(bundle.get("records", ())),
    )
