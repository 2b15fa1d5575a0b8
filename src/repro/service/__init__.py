"""The deployable service layer: the mechanism on real sockets.

The simulator (:mod:`repro.platform`) remains the source of truth for
the paper's experiments; this package runs the *same* protocol -- the
HAgent / IAgent / LHAgent roles of §2.2, the resolve / ask / refresh
retry loop of §2.3 + §4.3 and the delta-synced secondary copies -- as
asyncio TCP servers on a real network. The hash function itself is not
reimplemented: coordinators, standbys and LHAgents all hold a
:class:`repro.core.hash_function.HashFunction`, trigger rehashes through
:class:`repro.core.rehashing.RehashPolicy` and carry them out by stepping
:func:`repro.core.rehashing.split_saga` / ``merge_saga``, so protocol
fixes land once and serve both worlds. The live-only coordinator
protocols -- takeover and the cross-shard merge -- are sagas in that
module too.

Modules
-------
* :mod:`repro.service.wire` -- length-prefixed frames in one compact
  binary codec, spoken on every socket from its first byte (its tags
  are append-only; there is no handshake). Tagged JSON remains as an
  explicit ``codec=`` of the one-shot functions, for dumps and benches.
* :mod:`repro.service.routing` -- prefix sharding of the coordinator
  tier: the pure id-to-shard mapping, the versioned shard map and the
  client-side router with its last-known-good primary cache.
* :mod:`repro.service.transport` -- the only code that opens a socket
  or frames bytes: ``listen`` / ``dial``, the framed connection both
  ends share (with the netem keying rule) and the servers' listening,
  dispatching base.
* :mod:`repro.service.server` -- the per-node servers hosting the
  LHAgent, resident IAgents and the node-host endpoint.
* :mod:`repro.service.coordinator` -- the HAgent server: primary copy,
  saga driver, standby replication and the liveness monitor.
* :mod:`repro.service.client` -- the locate/register/migrate client with
  per-RPC timeouts, capped exponential backoff with jitter and the
  paper's stale-secondary-copy recovery loop.
* :mod:`repro.service.cluster` -- boot an N-node localhost cluster and
  drive a scripted workload (the CI live-cluster smoke).
* :mod:`repro.service.loadgen` -- open- and closed-loop load generation
  against the live wire: weighted deterministic op streams, a streaming
  latency histogram (p50/p95/p99/p999) and the saturation-knee search
  behind ``BENCH_service.json``'s ``capacity`` section.

Everything is standard library only (``asyncio`` + ``json``); no
``[service]`` extra is required.
"""
