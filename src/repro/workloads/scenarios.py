"""Packaged experiment scenarios, including the paper's two experiments.

The constants below are the paper's §5 parameters; values whose digits
the OCR lost are reconstructed as justified in DESIGN.md §7 (and marked
``# reconstructed`` here). Everything is overridable per scenario so
the ablation benches can sweep around the paper's point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Sequence

from repro.core.config import HashMechanismConfig
from repro.platform.chaos import ChaosEvent, ChaosSchedule
from repro.workloads.mobility import ConstantResidence, ResidenceModel

__all__ = [
    "PAPER_T_MAX",
    "PAPER_T_MIN",
    "PAPER_QUERY_TOTAL",
    "PAPER_RESIDENCE_EXP1",
    "EXP1_AGENT_COUNTS",
    "EXP2_AGENT_COUNT",
    "EXP2_RESIDENCE_TIMES_MS",
    "Scenario",
    "churn_schedule",
    "exp1_scenario",
    "exp2_scenario",
]

#: "The T_max and T_min values were set at 50 and 5 messages per second"
PAPER_T_MAX = 50.0  # reconstructed: OCR shows "5_"
PAPER_T_MIN = 5.0

#: "The total number of queries is 200 in each case."
PAPER_QUERY_TOTAL = 200  # reconstructed: OCR shows "2__"

#: Experiment I: "Each TAgent stays at each node for 0.5 sec."
PAPER_RESIDENCE_EXP1 = 0.5

#: Experiment I population sweep (x-axis of Figure 7).
EXP1_AGENT_COUNTS = (10, 20, 30, 50, 100)  # reconstructed

#: Experiment II: "a small number of TAgents (20)".
EXP2_AGENT_COUNT = 20  # reconstructed

#: Experiment II residence sweep in msec (x-axis of Figure 8).
EXP2_RESIDENCE_TIMES_MS = (100, 200, 500, 1000, 2000)  # reconstructed

#: The testbed was "a LAN network using Sun Blade" machines; the exact
#: node count is not stated. Eight nodes is a plausible lab LAN and
#: gives the mechanism room to spread IAgents.
DEFAULT_NODE_COUNT = 8


@dataclass(frozen=True)
class Scenario:
    """Everything one experiment run needs, minus the mechanism choice.

    The mechanism is supplied separately by the harness so one scenario
    can be replayed, seed for seed, against every mechanism under test.
    """

    name: str
    num_nodes: int = DEFAULT_NODE_COUNT
    num_agents: int = 20
    residence: ResidenceModel = field(
        default_factory=lambda: ConstantResidence(PAPER_RESIDENCE_EXP1)
    )
    #: Optional itinerary override (``None`` = uniform node choice).
    itinerary: object = None
    #: Optional hook ``(runtime) -> None`` run right after node creation;
    #: topology experiments override link models here.
    network_setup: object = None
    #: Nodes hosting the query clients (``None`` = spread over all).
    client_nodes: object = None
    #: Optional query skew: ``callable(num_agents) -> weights`` feeding
    #: :class:`~repro.workloads.queries.QueryWorkload` (hot-agent
    #: workloads; ``None`` = uniform target choice).
    target_weights_fn: object = None
    total_queries: int = PAPER_QUERY_TOTAL
    query_clients: int = 4
    #: Mean think time between a client's queries (s).
    think_time: float = 0.05
    #: Seconds the system runs before measurement starts; lets rehashing
    #: reach steady state ("statistically normalized averages").
    warmup: float = 4.0
    #: Hard wall for one run (simulated seconds), a hang safety-valve.
    max_sim_time: float = 600.0
    seed: int = 1
    config: HashMechanismConfig = field(
        default_factory=lambda: HashMechanismConfig(
            t_max=PAPER_T_MAX, t_min=PAPER_T_MIN
        )
    )

    def with_overrides(self, **overrides) -> "Scenario":
        return replace(self, **overrides)


def churn_schedule(
    seed: int,
    duration: float,
    nodes: Sequence[str],
    rate_hz: float = 1.5,
    min_live_fraction: float = 0.5,
    min_outage: float = 0.3,
    max_outage_fraction: float = 0.2,
    settle_fraction: float = 0.3,
) -> ChaosSchedule:
    """A seeded node join/leave churn process as a replayable schedule.

    Each leave/rejoin is a ``partition-node``/``heal-node`` pair -- the
    live analogue of a MANET node drifting out of range and back
    (Neogy et al. study exactly this regime). The process is generated
    chronologically so it can guarantee an invariant plain uniform
    sampling cannot: at most ``floor((1 - min_live_fraction) * n)``
    nodes are ever gone at once, keeping a quorum of the population
    reachable through the whole run. Every outage heals before the
    settle tail, so post-run verification judges a whole cluster.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    node_palette = sorted(nodes)
    if not node_palette:
        raise ValueError("churn needs a non-empty node list")
    rng = random.Random(f"churn-schedule:{seed}:{duration}")
    horizon = duration * (1.0 - settle_fraction)
    max_outage = max(min_outage, duration * max_outage_fraction)
    max_down = max(1, int(len(node_palette) * (1.0 - min_live_fraction)))
    events: List[ChaosEvent] = []
    #: node -> heal time, for the concurrently-down invariant.
    down_until: dict = {}
    now = 0.0
    while True:
        now += rng.expovariate(rate_hz)
        if now >= horizon:
            break
        down_until = {k: t for k, t in down_until.items() if t > now}
        candidates = [n for n in node_palette if n not in down_until]
        if len(down_until) >= max_down or not candidates:
            continue  # churn arrival suppressed: too few nodes live
        target = rng.choice(candidates)
        outage = min(rng.uniform(min_outage, max_outage), horizon - now)
        events.append(ChaosEvent(at=now, kind="partition-node", target=target))
        events.append(
            ChaosEvent(at=now + outage, kind="heal-node", target=target)
        )
        down_until[target] = now + outage
    events.sort(key=lambda event: (event.at, event.kind, event.target))
    return ChaosSchedule(seed=seed, duration=duration, events=tuple(events))


def exp1_scenario(num_agents: int, seed: int = 1, **overrides) -> Scenario:
    """One point of Experiment I (Figure 7): vary the population."""
    base = Scenario(
        name=f"exp1-n{num_agents}",
        num_agents=num_agents,
        residence=ConstantResidence(PAPER_RESIDENCE_EXP1),
        seed=seed,
    )
    return base.with_overrides(**overrides) if overrides else base


def exp2_scenario(residence_ms: float, seed: int = 1, **overrides) -> Scenario:
    """One point of Experiment II (Figure 8): vary the mobility rate."""
    base = Scenario(
        name=f"exp2-r{int(residence_ms)}ms",
        num_agents=EXP2_AGENT_COUNT,
        residence=ConstantResidence(residence_ms / 1000.0),
        seed=seed,
    )
    return base.with_overrides(**overrides) if overrides else base
