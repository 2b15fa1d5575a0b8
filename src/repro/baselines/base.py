"""The contract every location mechanism implements.

The platform calls these hooks at the relevant points of a tracked
agent's life: ``register`` on creation, ``report_move`` after each
migration, ``deregister`` on death. Applications (and the measurement
harness) call ``locate``. All hooks are generators so every step they
take -- RPCs, retries, refreshes -- runs under simulated time and is
charged to the caller, exactly like the synchronous calls of the Aglets
implementation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from repro.platform.naming import AgentId

__all__ = ["LocationMechanism", "LocateResult", "MechanismCounters"]


@dataclass
class LocateResult:
    """Outcome of one locate call."""

    agent_id: AgentId
    node: Optional[str]
    #: Simulated seconds between issuing the query and the answer --
    #: the paper's "location time".
    elapsed: float
    #: How many NOT_RESPONSIBLE / stale bounces the query survived.
    retries: int = 0
    found: bool = True


@dataclass
class MechanismCounters:
    """Message accounting shared by all mechanisms (overhead bench)."""

    registers: int = 0
    updates: int = 0
    locates: int = 0
    locate_failures: int = 0
    retries: int = 0
    refreshes: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, amount: int = 1) -> None:
        """Count under the named field when there is one, else ``extra``."""
        if key in vars(self):
            setattr(self, key, getattr(self, key) + amount)
        else:
            self.extra[key] = self.extra.get(key, 0) + amount


class LocationMechanism(ABC):
    """Abstract base of the five location mechanisms."""

    #: Human-readable name used by the harness's tables.
    name: str = "abstract"

    def __init__(self) -> None:
        self.runtime = None
        self.counters = MechanismCounters()

    @abstractmethod
    def install(self, runtime) -> None:
        """Deploy infrastructure agents; called once, after node setup."""

    @abstractmethod
    def register(self, agent) -> Generator:
        """Record a newly created tracked agent's initial location."""

    @abstractmethod
    def report_move(self, agent) -> Generator:
        """Record a tracked agent's new location after a migration."""

    @abstractmethod
    def deregister(self, agent) -> Generator:
        """Remove a dying agent from the directory."""

    @abstractmethod
    def locate(self, requester_node: str, agent_id: AgentId) -> Generator:
        """Resolve ``agent_id`` to a node name; returns a node string.

        Raises :class:`repro.core.errors.LocateFailedError` after the
        mechanism's retry budget is exhausted.
        """

    # ------------------------------------------------------------------

    def origin_node(self, agent) -> str:
        """The node a protocol message about ``agent`` is issued from.

        Normally the agent's own node; an agent disposed *in transit*
        has none, in which case any platform node serves as the issuing
        context (the message only carries the agent's id).
        """
        if agent.node is not None:
            return agent.node.name
        return next(iter(self.runtime.nodes))

    def timed_locate(self, requester_node: str, agent_id: AgentId) -> Generator:
        """Run :meth:`locate` and wrap the outcome with timing."""
        from repro.core.errors import LocateFailedError

        start = self.runtime.sim.now
        retries_before = self.counters.retries
        try:
            node = yield from self.locate(requester_node, agent_id)
            found = True
        except LocateFailedError:
            node = None
            found = False
        return LocateResult(
            agent_id=agent_id,
            node=node,
            elapsed=self.runtime.sim.now - start,
            retries=self.counters.retries - retries_before,
            found=found,
        )

    def describe(self) -> str:
        """One line for reports; subclasses may extend."""
        return self.name
