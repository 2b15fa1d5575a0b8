"""Primary/backup replication of the hash function (paper §7 extension).

The paper: "we are supporting a primary copy mechanism for the hash
function, thus making the HAgent that keeps this copy a vulnerability
point" -- and names fault tolerance as work in progress. This module
implements the natural next step: a *backup HAgent* that receives every
primary-copy change synchronously and serves ``get-hash-function`` reads
when the primary does not answer (LHAgents fail over after
``config.hagent_failover_timeout``).

Scope note, recorded also in DESIGN.md: the backup serves *reads* only.
Rehashing coordination pauses while the primary is down -- promoting the
backup to a full coordinator would need leader election, which is beyond
what the paper sketches. The failover benchmark (ABL-F) shows that
location queries keep completing through a primary outage, which is the
property the paper's §7 worries about.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.config import HAGENT_SERVICE_TIME
from repro.platform.agents import Agent
from repro.platform.messages import Request
from repro.platform.naming import AgentId

__all__ = ["BackupHAgent"]


class BackupHAgent(Agent):
    """A warm standby holding the latest pushed primary copy."""

    def __init__(self, agent_id: AgentId, runtime, mechanism) -> None:
        super().__init__(agent_id, runtime, tracked=False)
        self.service_time = HAGENT_SERVICE_TIME
        self.mailbox.set_service_time(self.service_time)
        self.mechanism = mechanism
        self._bundle: Optional[Dict] = None
        self.syncs_received = 0
        self.reads_served = 0

    def handle(self, request: Request) -> Any:
        if request.op == "sync":
            return self._on_sync(request.body)
        if request.op == "get-hash-function":
            return self._on_read()
        if request.op == "ping":
            version = self._bundle["version"] if self._bundle else -1
            return {"status": "ok", "version": version}
        raise ValueError(f"BackupHAgent does not understand op {request.op!r}")

    def _on_sync(self, bundle: Dict) -> Dict:
        # Pushes can arrive out of order under jitter; keep the newest.
        if self._bundle is None or bundle["version"] >= self._bundle["version"]:
            self._bundle = bundle
        self.syncs_received += 1
        return {"status": "ok"}

    def _on_read(self) -> Dict:
        if self._bundle is None:
            raise RuntimeError("backup HAgent has no copy yet")
        self.reads_served += 1
        return self._bundle

    @property
    def version(self) -> int:
        return self._bundle["version"] if self._bundle else -1
