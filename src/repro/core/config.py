"""Configuration of the hash-based location mechanism.

The defaults are the paper's experimental setting (§5) with the OCR-lost
digits reconstructed as documented in DESIGN.md §7: ``T_max = 50`` and
``T_min = 5`` messages per second, measured over a sliding window. The
paper explicitly defers threshold-selection heuristics to future work
("Developing heuristics for setting these values is part of our plans").
A field of :class:`HashMechanismConfig` is a choice some caller makes --
an experiment, an ablation bench, the live service's wall-clock
rescaling; `bench_ablation_thresholds` sweeps the important ones. A
value no caller chooses is a module constant read where it is used:
the ones several modules share are below, the rest sit beside their one
reader (``repro.core.rehashing``, ``repro.core.mechanism``,
``repro.core.iagent``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

__all__ = [
    "HAGENT_SERVICE_TIME",
    "HashMechanismConfig",
    "LHAGENT_SERVICE_TIME",
    "MAX_RETRIES",
    "RETRY_BACKOFF",
    "SYNC_JOURNAL_CAPACITY",
]

#: Per-message service time of an LHAgent (a local table lookup), s.
LHAGENT_SERVICE_TIME = 0.0003

#: Per-message service time of the HAgent (and of its backup), s.
HAGENT_SERVICE_TIME = 0.002

#: How many NOT_RESPONSIBLE refresh-and-retry rounds a simulated locate
#: or update attempts before giving up.
MAX_RETRIES = 6

#: Back-off before retrying a simulated locate that hit ``no-record``
#: while a record transfer was in flight (s).
RETRY_BACKOFF = 0.02

#: How many rehash operations a coordinator's journal retains (the
#: simulator HAgent's and the live ``HAgentServer``'s alike). A copy
#: staler than the journal's horizon falls back to a full snapshot.
SYNC_JOURNAL_CAPACITY = 64


@dataclass(frozen=True)
class HashMechanismConfig:
    """Tunables of :class:`repro.core.mechanism.HashLocationMechanism`."""

    #: Split an IAgent when its request rate exceeds this (messages/s).
    t_max: float = 50.0

    #: Merge an IAgent when its request rate falls below this (messages/s).
    t_min: float = 5.0

    #: How the thresholds are chosen (paper §5: "Developing heuristics
    #: for setting these values is part of our plans for future work"):
    #: ``"fixed"`` uses ``t_max``/``t_min`` as given; ``"adaptive"``
    #: derives an effective T_max per IAgent from its *measured* mean
    #: service time so that each IAgent is kept below
    #: ``repro.core.rehashing.TARGET_UTILIZATION`` -- the heuristic
    #: tracks the hardware instead of requiring manual calibration per
    #: deployment.
    threshold_mode: str = "fixed"

    #: Length of the sliding window over which rates are estimated (s).
    rate_window: float = 2.0

    #: An IAgent reports its load to the HAgent this often (s). The
    #: paper keeps "running statistics"; periodic reporting is how they
    #: reach the coordinator in a distributed deployment.
    report_interval: float = 0.5

    #: Minimum window coverage before a rate is trusted (fractions of
    #: ``rate_window``); prevents rehashing on startup noise.
    warmup_fraction: float = 1.0

    #: Cool-down after an IAgent takes part in a rehash before it may
    #: trigger another (s). Anti-flapping hysteresis.
    cooldown: float = 1.0

    #: Detail level of the per-IAgent request statistics (paper §4.1:
    #: "the statistics maintained may vary in their level of detail"):
    #: ``"per-agent"`` keeps an exact counter per served agent;
    #: ``"grouped"`` buckets agents by the first ``stats_group_depth``
    #: id bits, bounding memory at the price of blind deep splits
    #: (ablation ABL-G).
    stats_granularity: str = "per-agent"

    #: Prefix depth of the grouped statistics' buckets.
    stats_group_depth: int = 8

    #: ``"path"`` (the default, and the paper's procedure: "the
    #: left-most multi-bit label of the hyper-label") allows complex
    #: splits of ancestor edges, re-routing part of the subtree below
    #: them. ``"leaf"`` restricts complex splits to the leaf's own
    #: incoming edge; since simple splits and complex merges only ever
    #: put multi-bit labels on internal edges, that variant almost
    #: never finds a candidate -- it exists as the conservative arm of
    #: ablation ABL-S.
    complex_split_scope: str = "path"

    #: Disable complex splits entirely (ablation ABL-S: simple-only).
    enable_complex_split: bool = True

    #: Enable merging of under-loaded IAgents.
    enable_merge: bool = True

    #: Require this many consecutive under-threshold reports before
    #: merging (merges are more disruptive than splits).
    merge_patience: int = 3

    #: Per-message service time of an IAgent (s). One location record
    #: lookup or update in a paper-era Java agent platform (message
    #: dispatch + table operation). 8 ms makes a single central agent
    #: saturate near 125 requests/s -- inside the range the paper's
    #: Experiment I sweeps, which is what produces its linear growth.
    iagent_service_time: float = 0.008

    #: RPC timeout of the simulator's mechanism-internal calls (s); the
    #: live service times out on ``ServiceConfig.rpc_timeout``.
    rpc_timeout: float = 5.0

    #: EXTENSION (paper §7): move IAgents towards the plurality node of
    #: the agents they serve.
    enable_placement: bool = False

    #: How often the placement policy reconsiders IAgent locations (s).
    placement_interval: float = 2.0

    #: Fraction of an IAgent's tracked agents that must sit on one node
    #: before it migrates there.
    placement_majority: float = 0.5

    #: EXTENSION (paper §7): run a backup HAgent and fail over to it.
    enable_backup_hagent: bool = False

    #: Seconds an LHAgent waits for the HAgent before consulting the
    #: backup (only with ``enable_backup_hagent``).
    hagent_failover_timeout: float = 0.5

    def with_overrides(self, **overrides: Any) -> "HashMechanismConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    def validate(self) -> None:
        """Sanity-check field combinations; raises ``ValueError``."""
        if self.t_max <= self.t_min:
            raise ValueError(
                f"t_max ({self.t_max}) must exceed t_min ({self.t_min})"
            )
        if self.complex_split_scope not in ("leaf", "path"):
            raise ValueError(
                f"complex_split_scope must be 'leaf' or 'path', "
                f"got {self.complex_split_scope!r}"
            )
        if self.threshold_mode not in ("fixed", "adaptive"):
            raise ValueError(
                f"threshold_mode must be 'fixed' or 'adaptive', "
                f"got {self.threshold_mode!r}"
            )
        if self.stats_granularity not in ("per-agent", "grouped"):
            raise ValueError(
                f"stats_granularity must be 'per-agent' or 'grouped', "
                f"got {self.stats_granularity!r}"
            )
        if self.stats_group_depth <= 0:
            raise ValueError("stats_group_depth must be positive")
        if self.rate_window <= 0 or self.report_interval <= 0:
            raise ValueError("rate_window and report_interval must be positive")
