"""Configuration of the hash-based location mechanism.

The defaults are the paper's experimental setting (§5) with the OCR-lost
digits reconstructed as documented in DESIGN.md §7: ``T_max = 50`` and
``T_min = 5`` messages per second, measured over a sliding window. The
paper explicitly defers threshold-selection heuristics to future work
("Developing heuristics for setting these values is part of our plans"),
so everything here is a knob and `bench_ablation_thresholds` sweeps the
important ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["HashMechanismConfig"]


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
    #: ``target_utilization`` -- the heuristic tracks the hardware
    #: instead of requiring manual calibration per deployment.
    threshold_mode: str = "fixed"

    #: Utilization ceiling the adaptive heuristic aims at per IAgent.
    target_utilization: float = 0.4

    #: Adaptive T_min as a fraction of the effective T_max.
    adaptive_t_min_fraction: float = 0.1

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

    #: A split is *even* when the lighter side receives at least this
    #: fraction of the load being divided (paper §4.1's "even split").
    balance_tolerance: float = 0.25

    #: Largest ``m`` tried by simple split before accepting the best
    #: uneven division found.
    max_simple_m: int = 8

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

    #: Where new IAgents are placed: ``"round-robin"``, ``"random"`` or
    #: ``"colocate"`` (on the overloaded IAgent's node).
    iagent_placement: str = "round-robin"

    #: Time to create a new IAgent during a split (s); covers class
    #: loading and context registration on the hosting node.
    iagent_spawn_time: float = 0.005

    #: Back-off before retrying a locate that hit ``no-record`` while a
    #: record transfer was in flight (s).
    retry_backoff: float = 0.02

    #: Per-message service time of an IAgent (s). One location record
    #: lookup or update in a paper-era Java agent platform (message
    #: dispatch + table operation). 8 ms makes a single central agent
    #: saturate near 125 requests/s -- inside the range the paper's
    #: Experiment I sweeps, which is what produces its linear growth.
    iagent_service_time: float = 0.008

    #: Per-message service time of an LHAgent (a local table lookup).
    lhagent_service_time: float = 0.0003

    #: Per-message service time of the HAgent.
    hagent_service_time: float = 0.002

    #: RPC timeout used by mechanism-internal calls (s).
    rpc_timeout: float = 5.0

    #: How many NOT_RESPONSIBLE refresh-and-retry rounds a locate or
    #: update attempts before giving up.
    max_retries: int = 6

    #: EXTENSION (paper §7): move IAgents towards the plurality node of
    #: the agents they serve.
    enable_placement: bool = False

    #: How often the placement policy reconsiders IAgent locations (s).
    placement_interval: float = 2.0

    #: Fraction of an IAgent's tracked agents that must sit on one node
    #: before it migrates there.
    placement_majority: float = 0.5

    #: IAgents serving fewer records than this never migrate -- with a
    #: handful of records the "plurality" is noise and the IAgent would
    #: chase its agents around (anti-flapping damper).
    placement_min_records: int = 4

    #: Secondary copies refresh by replaying the HAgent's journal of
    #: rehash operations instead of re-fetching the whole tree (delta
    #: sync, DESIGN.md); ``False`` restores full-snapshot refreshes. A
    #: simulator ablation: the live service always fetches by delta.
    delta_sync: bool = True

    #: How many rehash operations the HAgent's journal retains. A copy
    #: staler than the journal's horizon falls back to a full snapshot.
    sync_journal_capacity: int = 64

    #: EXTENSION (paper §7): run a backup HAgent and fail over to it.
    enable_backup_hagent: bool = False

    #: Backup synchronisation: every primary-copy change is pushed to
    #: the backup immediately (primary-copy replication).
    backup_sync: bool = True

    #: Seconds an LHAgent waits for the HAgent before consulting the
    #: backup (only with ``enable_backup_hagent``).
    hagent_failover_timeout: float = 0.5

    def with_overrides(self, **overrides) -> "HashMechanismConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    def validate(self) -> None:
        """Sanity-check field combinations; raises ``ValueError``."""
        if self.t_max <= self.t_min:
            raise ValueError(
                f"t_max ({self.t_max}) must exceed t_min ({self.t_min})"
            )
        if not 0 < self.balance_tolerance <= 0.5:
            raise ValueError(
                f"balance_tolerance must be in (0, 0.5], got {self.balance_tolerance}"
            )
        if self.complex_split_scope not in ("leaf", "path"):
            raise ValueError(
                f"complex_split_scope must be 'leaf' or 'path', "
                f"got {self.complex_split_scope!r}"
            )
        if self.iagent_placement not in ("round-robin", "random", "colocate"):
            raise ValueError(
                f"unknown iagent_placement {self.iagent_placement!r}"
            )
        if self.threshold_mode not in ("fixed", "adaptive"):
            raise ValueError(
                f"threshold_mode must be 'fixed' or 'adaptive', "
                f"got {self.threshold_mode!r}"
            )
        if not 0 < self.target_utilization < 1:
            raise ValueError("target_utilization must be in (0, 1)")
        if not 0 < self.adaptive_t_min_fraction < 1:
            raise ValueError("adaptive_t_min_fraction must be in (0, 1)")
        if self.stats_granularity not in ("per-agent", "grouped"):
            raise ValueError(
                f"stats_granularity must be 'per-agent' or 'grouped', "
                f"got {self.stats_granularity!r}"
            )
        if self.stats_group_depth <= 0:
            raise ValueError("stats_group_depth must be positive")
        if self.rate_window <= 0 or self.report_interval <= 0:
            raise ValueError("rate_window and report_interval must be positive")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if self.sync_journal_capacity < 1:
            raise ValueError("sync_journal_capacity must be at least 1")
