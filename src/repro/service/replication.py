"""Pure epoch-fencing and failure-detection logic for HAgent failover.

The live servers in :mod:`repro.service.server` stay thin: every
decision that must be *provably* right -- when a standby may promote
itself, which epoch a promotion claims, and whether a coordinator-issued
operation is stale -- lives here as plain, clock-fed, I/O-free objects
so property tests can drive arbitrary interleavings through them.

The model is classic primary/backup with fencing tokens:

* The cluster runs one primary HAgent and N hot-standby replicas,
  ranked by their fixed ``rank`` (0 = the initial primary).
* Authority is an **epoch**: a monotonically increasing integer. Every
  rehash operation the primary serializes carries its epoch; nodes keep
  an :class:`EpochFence` and refuse anything older than the highest
  epoch they have witnessed. A partitioned, deposed primary can
  therefore never serialize a conflicting split/merge after the cluster
  has moved on -- its ops are fenced at every node.
* A standby promotes only after its :class:`FailureDetector` has
  declared the primary dead, claims ``next_epoch(everything seen)`` and
  announces it. Ranks stagger the detectors, so the lowest-ranked live
  standby wins deterministically; a higher rank that raced anyway loses
  at the fence (its epoch claim is identical, but announcements carry
  the claimant, and nodes admit the first claimant of a given epoch --
  see :meth:`EpochFence.admit`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "EpochFence",
    "FailureDetector",
    "FenceDecision",
    "next_epoch",
    "sharded_single_primary_violations",
    "single_primary_violations",
]

#: Consecutive connection-refused sync failures (scaled by rank) that
#: make a standby promote without waiting out the silence window: a
#: refused connect means the primary's process is *gone*, not slow.
FAST_FAIL_THRESHOLD = 3


def next_epoch(*seen: int) -> int:
    """The epoch a promotion must claim: strictly above everything seen.

    Feeding it every epoch a replica has witnessed (its own, the ones in
    synced journal entries, the ones in announcements) guarantees global
    strict monotonicity: a claim is always greater than any epoch that
    could have serialized an operation the claimant knows about.
    """
    return max(seen, default=0) + 1


@dataclass(frozen=True)
class FenceDecision:
    """The fence's verdict on one epoch-carrying operation."""

    admitted: bool
    #: The fence's high-water epoch after the decision.
    epoch: int
    #: Why a rejected op was rejected (``"stale-epoch"``) or None.
    reason: Optional[str] = None


class EpochFence:
    """A node's guard against deposed coordinators (fencing token).

    Tracks the highest epoch the node has witnessed and, per epoch, the
    first coordinator that claimed it. An operation is admitted iff its
    epoch is the current high-water mark *and* comes from that epoch's
    first claimant, or advances the mark outright. Anything below the
    mark is stale by definition -- the cluster has provably moved on.
    """

    def __init__(self, epoch: int = 0) -> None:
        self._epoch = epoch
        #: epoch -> first claimant observed for it (None = unattributed).
        self._claimants: Dict[int, Optional[str]] = {}

    @property
    def epoch(self) -> int:
        """The highest epoch witnessed so far."""
        return self._epoch

    def admit(self, epoch: int, claimant: Optional[str] = None) -> FenceDecision:
        """Judge one operation carrying ``epoch`` from ``claimant``.

        Advancing epochs are always admitted (a legitimate promotion);
        the current epoch is admitted only for its first claimant, so
        two replicas racing to the same epoch cannot both serialize
        (the loser sees ``stale-epoch`` and demotes). Lower epochs are
        rejected unconditionally.
        """
        if epoch > self._epoch:
            self._epoch = epoch
            if claimant is not None:
                self._claimants[epoch] = claimant
            return FenceDecision(admitted=True, epoch=self._epoch)
        if epoch == self._epoch:
            holder = self._claimants.get(epoch)
            if holder is None:
                if claimant is not None:
                    self._claimants[epoch] = claimant
                return FenceDecision(admitted=True, epoch=self._epoch)
            if claimant is None or claimant == holder:
                return FenceDecision(admitted=True, epoch=self._epoch)
        return FenceDecision(
            admitted=False,
            epoch=self._epoch,
            reason=f"stale-epoch: op epoch {epoch} < fenced epoch {self._epoch}"
            if epoch < self._epoch
            else f"stale-epoch: epoch {epoch} already claimed by another primary",
        )


@dataclass
class FailureDetector:
    """Per-standby, clock-fed primary-death detector with rank stagger.

    Two triggers, both deterministic functions of the fed observations:

    * **Silence**: no successful sync for ``heartbeat_timeout`` seconds
      (plus ``(rank - 1) * promotion_stagger`` for ranks beyond the
      first in line), measured from the last success.
    * **Fast-fail**: ``rank * FAST_FAIL_THRESHOLD`` *consecutive*
      connection-refused failures. A refused connect is a positive
      signal (the process is gone, not just slow), so a crashed primary
      is detected in a few heartbeat periods instead of a full timeout;
      a partition (hangs, not refusals) still waits out the silence
      window. The rank multiplier preserves promotion order.
    """

    rank: int
    heartbeat_timeout: float
    promotion_stagger: float = 0.5
    #: Clock of the last successful sync (None until the first one).
    last_ok: Optional[float] = None
    consecutive_refused: int = 0
    _started_at: Optional[float] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("detectors belong to standbys; ranks start at 1")
        if self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")

    def record_ok(self, now: float) -> None:
        """A sync with the primary succeeded at ``now``."""
        self.last_ok = now
        self.consecutive_refused = 0

    def record_failure(self, now: float, refused: bool = False) -> None:
        """A sync failed at ``now``; ``refused`` = connection refused."""
        if self._started_at is None:
            self._started_at = now
        if refused:
            self.consecutive_refused += 1
        else:
            self.consecutive_refused = 0

    @property
    def silence_deadline(self) -> float:
        """The clock reading past which silence alone means promotion."""
        anchor = self.last_ok if self.last_ok is not None else self._started_at
        if anchor is None:
            return float("inf")
        return (
            anchor
            + self.heartbeat_timeout
            + (self.rank - 1) * self.promotion_stagger
        )

    def should_promote(self, now: float) -> bool:
        """Whether this standby must take over, judged at ``now``."""
        if self.consecutive_refused >= self.rank * FAST_FAIL_THRESHOLD:
            return True
        return now >= self.silence_deadline


def single_primary_violations(
    claims: Iterable[Tuple[int, str]],
) -> List[Tuple[int, Tuple[str, ...]]]:
    """The post-run invariant: at most one fenced primary per epoch.

    ``claims`` is every ``(epoch, replica)`` primary-claim observed
    across the run (each replica's promotion history). Returns the
    violating epochs with their claimants -- empty means the invariant
    held.
    """
    by_epoch: Dict[int, List[str]] = {}
    for epoch, replica in claims:
        holders = by_epoch.setdefault(epoch, [])
        if replica not in holders:
            holders.append(replica)
    return [
        (epoch, tuple(holders))
        for epoch, holders in sorted(by_epoch.items())
        if len(holders) > 1
    ]


def sharded_single_primary_violations(
    claims_by_shard: Dict[int, Iterable[Tuple[int, str]]],
) -> List[Tuple[int, int, Tuple[str, ...]]]:
    """The invariant per coordinator shard: epochs are a *per-shard*
    sequence (every shard legitimately starts at epoch 1), so the check
    runs within each shard and never across them. Returns violating
    ``(shard, epoch, claimants)`` triples -- empty means it held
    everywhere.
    """
    violations: List[Tuple[int, int, Tuple[str, ...]]] = []
    for shard in sorted(claims_by_shard):
        for epoch, holders in single_primary_violations(claims_by_shard[shard]):
            violations.append((shard, epoch, holders))
    return violations
