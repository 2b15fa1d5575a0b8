"""Apply a seeded :class:`~repro.platform.chaos.ChaosSchedule` to a
live cluster.

The schedule is the same pure value the simulator's
:class:`~repro.platform.failures.FailureInjector` replays; this driver
maps each event onto the live topology driven by
:mod:`repro.service.cluster`:

* ``crash-hagent`` kills the current primary HAgent replica abruptly
  (no final snapshot); ``restart-hagent`` brings the most recently
  killed replica back as a standby on its old port.
* ``partition-hagent`` raises the primary's partition flag (incoming
  requests are swallowed, outgoing RPCs blocked); ``heal-hagent``
  clears it and has the *current* primary re-announce itself so the
  healed, deposed replica learns it was fenced and demotes.
* ``partition-node`` / ``heal-node`` toggle the named node server's
  partition flag.
* ``crash-iagent`` kills the record-heaviest directory shard (healed by
  the coordinator's takeover + soft state); ``restart-iagent``
  warm-restarts it from its own WAL + snapshots.

Event times are wall-clock offsets from :meth:`LiveChaosDriver.start`.
Every application (or deliberate skip) is appended to
:attr:`LiveChaosDriver.applied` for the run report.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.platform.chaos import LINK_CHAOS_KINDS, ChaosSchedule
from repro.service.client import RemoteOpError, ServiceRpcError

__all__ = [
    "LIVE_CHAOS_KINDS",
    "LiveChaosDriver",
    "live_chaos_palette",
    "netem_chaos_palette",
]

#: Every link-fault kind (opening or closing) the netem path handles.
_NETEM_KINDS = frozenset(
    {
        "link-degrade",
        "link-restore",
        "link-slow",
        "link-unslow",
        "link-reset",
        "partition-asym",
        "heal-asym",
    }
)

#: Opening kinds the live driver can express. ``crash-node`` is
#: simulator-only (a live NodeServer cannot lose and regain its
#: identity without re-registering); partitions cover the live
#: unreachability story instead.
LIVE_CHAOS_KINDS = (
    "crash-hagent",
    "partition-hagent",
    "partition-node",
    "crash-iagent",
    "restart-iagent",
)


def live_chaos_palette(durable: bool) -> List[str]:
    """The opening-kind palette a live run supports.

    ``restart-iagent`` needs per-shard durable state, so diskless runs
    drop it from the palette.
    """
    kinds = list(LIVE_CHAOS_KINDS)
    if not durable:
        kinds.remove("restart-iagent")
    return kinds


def netem_chaos_palette() -> List[str]:
    """The opening-kind palette of a hostile-network (``--netem``) run.

    Pure wire-level faults: latency/jitter/loss degradation, slow-loris
    writes, connection resets and asymmetric partitions, applied through
    the cluster's :class:`repro.service.netem.NetemController`.
    """
    return list(LINK_CHAOS_KINDS)


class LiveChaosDriver:
    """Walks one schedule against a booted :class:`_Cluster`."""

    def __init__(self, cluster, schedule: ChaosSchedule, shard: int = 0) -> None:
        self.cluster = cluster
        self.schedule = schedule
        #: Coordinator shard the HAgent faults aim at. Node and IAgent
        #: faults are topology-wide and belong to shard 0's driver; a
        #: sharded run gives every further shard its own driver with a
        #: coordinator-only schedule.
        self.shard = shard
        #: Structured application log: wall offset, kind, target, outcome.
        self.applied: List[Dict] = []
        self._task: Optional[asyncio.Task] = None
        self._started_at: Optional[float] = None
        self._partitioned_hagents: List = []

    def start(self) -> None:
        """Begin walking the schedule on the running event loop."""
        self._started_at = asyncio.get_running_loop().time()
        self._task = asyncio.ensure_future(self._run())

    async def drain(self) -> None:
        """Wait for the full schedule (faults *and* settle tail).

        Called after the workload finishes so post-run invariant checks
        always judge a healed cluster, never an amputated one.
        """
        if self._task is not None:
            await self._task
        assert self._started_at is not None
        settle_until = self._started_at + self.schedule.duration
        remaining = settle_until - asyncio.get_running_loop().time()
        if remaining > 0:
            await asyncio.sleep(remaining)

    async def _run(self) -> None:
        assert self._started_at is not None
        loop = asyncio.get_running_loop()
        for event in self.schedule.events:
            delay = self._started_at + event.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome = "ok"
            try:
                outcome = await self._apply(
                    event.kind, event.target, event.params_dict()
                )
            except (ServiceRpcError, RemoteOpError, asyncio.TimeoutError) as err:
                outcome = f"error: {err}"
            self.applied.append(
                {
                    "at": round(loop.time() - self._started_at, 3),
                    "kind": event.kind,
                    "target": event.target,
                    "outcome": outcome,
                }
            )

    async def _apply(self, kind: str, target: str, params: Dict) -> str:
        cluster = self.cluster
        if kind in _NETEM_KINDS:
            netem = getattr(cluster, "netem", None)
            if netem is None:
                return "skipped: no netem controller"
            return netem.apply_event(kind, target, params)
        if kind == "crash-hagent":
            # Never amputate the shard's last live replica: the
            # schedule's paired restart has not run yet, so require a
            # standby.
            if len(cluster.live_replicas(self.shard)) < 2:
                return "skipped: no live standby"
            info = await cluster.crash_primary_hagent(self.shard)
            return f"killed rank {info['rank']} (shard {self.shard})"
        if kind == "restart-hagent":
            restarted = await cluster.restart_killed_hagent(self.shard)
            if restarted is None:
                return "skipped: nothing to restart"
            return f"restarted rank {restarted.rank} as standby"
        if kind == "partition-hagent":
            primary = cluster.primary(self.shard)
            primary.partitioned = True
            self._partitioned_hagents.append(primary)
            return f"partitioned rank {primary.rank} (shard {self.shard})"
        if kind == "heal-hagent":
            if not self._partitioned_hagents:
                return "skipped: nothing partitioned"
            healed = self._partitioned_hagents.pop()
            healed.partitioned = False
            # The current primary re-announces so the healed replica
            # learns the cluster moved on and demotes at the fence.
            await cluster.reannounce_primary(self.shard)
            return f"healed rank {healed.rank}"
        if kind == "partition-node":
            node = cluster.node_by_name(target)
            node.partitioned = True
            return "ok"
        if kind == "heal-node":
            node = cluster.node_by_name(target)
            node.partitioned = False
            return "ok"
        if kind == "crash-iagent":
            lost = await cluster.crash_heaviest_iagent()
            return f"killed heaviest shard ({lost} records)"
        if kind == "restart-iagent":
            recovery = await cluster.restart_heaviest_iagent()
            return (
                f"warm-restarted heaviest shard "
                f"({recovery['records_recovered']} records recovered)"
            )
        raise ValueError(f"live driver cannot apply chaos kind {kind!r}")
