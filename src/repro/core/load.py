"""Load statistics: the signal that drives rehashing (paper §4).

Each IAgent maintains "running statistics of the requests received" --
both the aggregate rate compared against ``T_max``/``T_min`` and, per
served agent, "the accumulated rate of update and query requests" used to
judge whether a candidate split divides the load evenly.

:class:`RateWindow` is a sliding-window event-rate estimator;
:class:`LoadStatistics` combines the aggregate window with per-agent
accumulators and answers the split-evaluation query the rehashing
policy asks (:meth:`LoadStatistics.divide`: the load on either side of
each candidate id bit).
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Any, Deque, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

__all__ = ["RateWindow", "LoadStatistics", "split_loads"]

#: ``divide``'s answer: per asked bit position the ``[zero_side,
#: one_side]`` load sums, or ``None`` where the statistics cannot tell.
Divisions = Dict[int, Optional[List[int]]]


class RateWindow:
    """Sliding-window estimator of an event rate in events/second.

    Timestamps are recorded with :meth:`record`; :meth:`rate` divides
    the number of events inside the last ``window`` seconds by the
    window length. :meth:`mature` reports whether the window has been
    observed long enough for the estimate to mean anything (protects
    the rehashing policy from reacting to startup transients).
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._events: Deque[float] = deque()
        self._started_at: Optional[float] = None

    def record(self, now: float, count: int = 1) -> None:
        """Record ``count`` events at time ``now``."""
        if self._started_at is None:
            self._started_at = now
        self._events.extend(repeat(now, count))
        self._evict(now)

    def rate(self, now: float) -> float:
        """Events per second over the trailing window."""
        self._evict(now)
        return len(self._events) / self.window

    def count(self, now: float) -> int:
        """Events inside the trailing window."""
        self._evict(now)
        return len(self._events)

    def mature(self, now: float, fraction: float = 1.0) -> bool:
        """Whether at least ``fraction * window`` seconds were observed."""
        if self._started_at is None:
            return False
        return now - self._started_at >= self.window * fraction

    def reset(self, now: float) -> None:
        """Forget history; the window starts maturing again from ``now``."""
        self._events.clear()
        self._started_at = now

    def _evict(self, now: float) -> None:
        horizon = now - self.window
        events = self._events
        while events and events[0] <= horizon:
            events.popleft()


class LoadStatistics:
    """Aggregate + per-agent request accounting for one IAgent."""

    def __init__(self, window: float) -> None:
        self.total = RateWindow(window)
        #: Accumulated requests per served agent since the agent was
        #: assigned here (the paper's "accumulated rate of update and
        #: query requests" per agent).
        self.per_agent: Dict[Hashable, int] = {}
        self.queries = 0
        self.updates = 0

    def record_query(self, agent_key: Hashable, now: float) -> None:
        self.queries += 1
        self._record(agent_key, now)

    def record_update(self, agent_key: Hashable, now: float) -> None:
        self.updates += 1
        self._record(agent_key, now)

    def record_updates(self, agents: Sequence[Hashable], now: float) -> None:
        """``record_update`` for each of ``agents`` (no repeats: a batch's
        rows), with one window append and one pass over the table."""
        if not agents:
            return
        self.updates += len(agents)
        self.total.record(now, len(agents))
        per_agent = self.per_agent
        bumped = {agent: per_agent[agent] + 1 for agent in per_agent.keys() & agents}
        per_agent.update(dict.fromkeys(agents, 1))
        per_agent.update(bumped)

    def _record(self, agent_key: Hashable, now: float) -> None:
        self.total.record(now)
        self.per_agent[agent_key] = self.per_agent.get(agent_key, 0) + 1

    def forget_agent(self, agent_key: Hashable) -> None:
        """Drop an agent's accumulator when it is transferred away."""
        self.per_agent.pop(agent_key, None)

    def adopt_agent(self, agent_key: Hashable, load: int = 0) -> None:
        """Start tracking a transferred-in agent, seeding its load."""
        self.per_agent[agent_key] = self.per_agent.get(agent_key, 0) + load

    def release(self, agents: Iterable[Hashable]) -> Dict[Hashable, int]:
        """``load_of`` then ``forget_agent`` for each of ``agents``: the
        accumulators a hand-off takes with it."""
        pop = self.per_agent.pop
        return {agent: pop(agent, 0) for agent in agents}

    def absorb(self, loads: Dict[Hashable, int]) -> None:
        """``adopt_agent`` for each of ``loads``' agents."""
        per_agent = self.per_agent
        held = per_agent.keys() & loads.keys()
        summed = {agent: per_agent[agent] + loads[agent] for agent in held}
        per_agent.update(loads)
        per_agent.update(summed)

    def rate(self, now: float) -> float:
        return self.total.rate(now)

    def loads(self) -> Dict[str, int]:
        """Accumulated loads keyed by id bit strings (full ids here)."""
        return _render(self.per_agent)

    def load_of(self, agent_key: Hashable) -> int:
        """One agent's accumulated load."""
        return self.per_agent.get(agent_key, 0)

    def divide(self, positions: Sequence[int]) -> Divisions:
        """The load on either side of each asked id bit (1-based) --
        :func:`split_loads` of :meth:`loads` at every position."""
        return _divide(self.per_agent, positions)


def _render(table: Dict[Any, int]) -> Dict[str, int]:
    """A ``(value, width)``-keyed load table keyed by bit strings."""
    return {format(value, f"0{width}b"): load for (value, width), load in table.items()}


def _divide(table: Dict[Any, int], positions: Sequence[int]) -> Divisions:
    """:func:`split_loads` of ``_render(table)`` at every position, in
    one pass and with no bit string built: loads are pooled by the id
    bits the asked positions span, and each position's two sides are
    read off the pool. A position beyond some key's width answers
    ``None`` (``split_loads`` raises there)."""
    if not positions:
        return {}
    last = max(positions)
    mask = (1 << (last - min(positions) + 1)) - 1
    narrowest = last
    pool: Dict[int, int] = {}
    for (value, width), load in table.items():
        drop = width - last
        if drop >= 0:
            key = value >> drop & mask
        else:  # every position this key lacks answers None below
            key = value << -drop & mask
            narrowest = min(narrowest, width)
        pool[key] = pool.get(key, 0) + load
    total = sum(pool.values())
    divisions: Divisions = {}
    for position in positions:
        if position > narrowest:
            divisions[position] = None
            continue
        bit = 1 << (last - position)
        one_side = sum(load for key, load in pool.items() if key & bit)
        divisions[position] = [total - one_side, one_side]
    return divisions


def split_loads(
    loads: Iterable[Tuple[str, int]], bit_position: int
) -> Tuple[int, int]:
    """Divide per-agent loads by the bit at ``bit_position`` (1-based).

    ``loads`` yields ``(id_bits, load)`` pairs. Returns the summed load
    of the ``0`` side and the ``1`` side -- the quantity the evenness
    criterion of paper §4.1 inspects.

    With *grouped* statistics the bit strings are truncated group
    prefixes; a ``bit_position`` beyond a prefix raises ``ValueError``
    (the information simply is not there), which the split planner
    treats as "cannot evaluate this candidate".
    """
    zero_side = one_side = 0
    for bits, load in loads:
        if bit_position > len(bits):
            raise ValueError(
                f"bit position {bit_position} beyond id width {len(bits)}"
            )
        if bits[bit_position - 1] == "0":
            zero_side += load
        else:
            one_side += load
    return zero_side, one_side


class GroupedLoadStatistics:
    """Prefix-group request accounting (paper §4.1's coarse option).

    "The statistics maintained may vary in their level of detail ...
    For example, we may maintain the exact number of update and query
    requests received per agent or for groups of agents (e.g., all
    agents with a specific prefix)."

    This variant buckets agents by the first ``group_depth`` bits of
    their id: memory is bounded by ``2**group_depth`` counters per
    IAgent regardless of how many agents it serves, at the price that
    splits deeper than ``group_depth`` cannot be load-evaluated (the
    planner skips them and the ablation ABL-G quantifies the damage).

    Interface-compatible with :class:`LoadStatistics` as used by the
    IAgent: ``record_query``/``record_update`` take the agent id, whose
    top ``group_depth`` bits key its group as a ``(prefix value,
    group_depth)`` pair (an id narrower than that is its own group,
    ``(value, width)``); ``loads()`` returns ``{group_prefix: load}``
    and ``divide()`` sums over the same prefixes, and transfers move
    *approximate* per-agent shares (``load_of``: a group's load divided
    by its member count).
    """

    def __init__(self, window: float, group_depth: int = 8) -> None:
        if group_depth <= 0:
            raise ValueError(f"group_depth must be positive, got {group_depth}")
        self.total = RateWindow(window)
        self.group_depth = group_depth
        #: group prefix -> accumulated load.
        self.group_loads: Dict[Tuple[int, int], int] = {}
        #: group prefix -> number of member agents (for share estimates).
        self.group_members: Dict[Tuple[int, int], int] = {}
        self._member_group: Dict[Hashable, Tuple[int, int]] = {}
        self.queries = 0
        self.updates = 0

    def _ensure_member(self, agent_id: Any) -> Tuple[int, int]:
        group = self._member_group.get(agent_id)
        if group is None:
            value, width = agent_id
            depth = self.group_depth
            group = (value >> (width - depth), depth) if width >= depth else (value, width)
            self._member_group[agent_id] = group
            self.group_members[group] = self.group_members.get(group, 0) + 1
        return group

    def record_query(self, agent_id: Hashable, now: float) -> None:
        self.queries += 1
        self._record(agent_id, now)

    def record_update(self, agent_id: Hashable, now: float) -> None:
        self.updates += 1
        self._record(agent_id, now)

    def record_updates(self, agents: Sequence[Hashable], now: float) -> None:
        """``record_update`` for each of ``agents``."""
        for agent in agents:
            self.record_update(agent, now)

    def _record(self, agent_id: Hashable, now: float) -> None:
        self.total.record(now)
        group = self._ensure_member(agent_id)
        self.group_loads[group] = self.group_loads.get(group, 0) + 1

    def forget_agent(self, agent_id: Hashable) -> None:
        """Remove an agent, releasing its *estimated* share of the load."""
        group = self._member_group.pop(agent_id, None)
        if group is None:
            return
        members = self.group_members.get(group, 0)
        if members <= 1:
            self.group_members.pop(group, None)
            self.group_loads.pop(group, None)
            return
        share = self.group_loads.get(group, 0) // members
        self.group_members[group] = members - 1
        self.group_loads[group] = self.group_loads.get(group, 0) - share

    def adopt_agent(self, agent_id: Hashable, load: int = 0) -> None:
        group = self._ensure_member(agent_id)
        self.group_loads[group] = self.group_loads.get(group, 0) + load

    def release(self, agents: Iterable[Hashable]) -> Dict[Hashable, int]:
        """:meth:`LoadStatistics.release` agent by agent: each share is
        estimated after the agents before it have left its group."""
        loads = {}
        for agent in agents:
            loads[agent] = self.load_of(agent)
            self.forget_agent(agent)
        return loads

    def absorb(self, loads: Dict[Hashable, int]) -> None:
        for agent, load in loads.items():
            self.adopt_agent(agent, load)

    def load_of(self, agent_id: Hashable) -> int:
        """An agent's share estimate: its group's load over its members."""
        group = self._member_group.get(agent_id)
        if group is None:
            return 0
        members = self.group_members.get(group, 1)
        return self.group_loads.get(group, 0) // max(members, 1)

    def rate(self, now: float) -> float:
        return self.total.rate(now)

    def loads(self) -> Dict[str, int]:
        """Group-prefix keyed loads (prefixes are ``group_depth`` bits)."""
        return _render(self.group_loads)

    def divide(self, positions: Sequence[int]) -> Divisions:
        """:meth:`LoadStatistics.divide` over the group prefixes: a
        position past ``group_depth`` answers ``None`` -- the counters
        do not record that bit."""
        return _divide(self.group_loads, positions)

    @property
    def tracked_entries(self) -> int:
        """Counter entries held -- the memory the grouping bounds."""
        return len(self.group_loads)


def is_even_split(zero_side: int, one_side: int, tolerance: float) -> bool:
    """The evenness criterion: the lighter side gets >= ``tolerance``.

    A split of a zero total is never even (nothing to balance).
    """
    total = zero_side + one_side
    if total <= 0:
        return False
    return min(zero_side, one_side) >= tolerance * total
