"""Open- and closed-loop load generation against the live cluster.

The cluster driver (:mod:`repro.service.cluster`) answers "is the
protocol *correct* under faults?"; this module answers the ROADMAP's
capacity question -- "how many users can an N-node cluster serve?" --
by driving the real binary wire protocol with thousands of concurrent
asyncio clients and reporting the latency distribution honestly.

Three layers:

* :class:`LatencyRecorder` -- a streaming log-bucketed histogram with
  bounded relative error (default 1.5% per bucket). Recording is O(1)
  per sample with no per-sample allocation, so a multi-minute run at
  tens of thousands of ops/sec costs a fixed few KiB; ``p50/p95/p99/
  p999`` come from a single bucket walk and are verified against exact
  sorted percentiles by a hypothesis test.
* :class:`OpStream` -- a deterministic per-lane operation stream. Each
  lane (a closed-loop worker, or the single open-loop dispatcher) owns
  a disjoint slice of the agent population, draws weighted operations
  (:class:`OpMix`: locate / move / register / batch-locate, plus the
  multi-result similar / capability discovery queries) from its
  own seeded RNG, and tracks per-agent sequence numbers itself -- so
  two same-seed runs generate *identical* op sequences regardless of
  how the event loop interleaves them, and a run can be replayed.
* :class:`LoadGenerator` -- the driving disciplines. **Closed loop**:
  ``clients`` workers each loop draw-execute-record, so offered load
  self-regulates to the service rate -- the classic saturation probe.
  **Open loop**: a dispatcher schedules arrivals from a seeded Poisson
  process at ``rate`` ops/sec and measures each op from its *scheduled*
  arrival instant, not from when the dispatcher got around to sending
  it -- the coordinated-omission correction that makes the p99 honest
  once the cluster falls behind.

Runs move through warmup / measure / drain phases: warmup ops are
executed but not recorded, the measure window feeds the recorders, and
drain lets in-flight ops finish (open-loop stragglers that outlive the
drain window are cancelled; the measured ones are reported as
``ops_abandoned``, never silently dropped).

:func:`run_load` boots a cluster, registers the shared population and
runs one configured load; :func:`saturation_search` binary-searches
the open-loop arrival rate for the knee where p99 exceeds a latency
budget (or any op fails) -- the saturation throughput recorded in
``BENCH_service.json``'s ``capacity`` section.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.discovery.capability import PREDICATE_PALETTE, assign_capabilities
from repro.platform.naming import AgentId, AgentNamer
from repro.service.client import ServiceClient, ServiceError
from repro.service.cluster import ClusterConfig, booted_cluster

__all__ = [
    "LatencyRecorder",
    "LoadConfig",
    "LoadReport",
    "LoadGenerator",
    "Op",
    "OpMix",
    "OpStream",
    "OP_KINDS",
    "run_load",
    "saturation_search",
]

#: Operation kinds the mix weights refer to.
OP_LOCATE = "locate"
OP_MOVE = "move"
OP_REGISTER = "register"
OP_BATCH = "batch"
OP_SIMILAR = "similar"
OP_CAPABILITY = "capability"
OP_KINDS = (OP_LOCATE, OP_MOVE, OP_REGISTER, OP_BATCH, OP_SIMILAR, OP_CAPABILITY)

MODE_CLOSED = "closed"
MODE_OPEN = "open"

#: Agents per batch-locate op.
BATCH_K = 16

#: Open-loop cap on concurrently outstanding ops; arrivals past it wait
#: for a slot (counted as ``throttled``) instead of stacking tasks
#: without bound.
MAX_IN_FLIGHT = 4096


# ----------------------------------------------------------------------
# Streaming latency recorder
# ----------------------------------------------------------------------


class LatencyRecorder:
    """A streaming latency histogram with bounded relative error.

    Samples land in geometrically-growing buckets (ratio ``growth``
    between adjacent bucket bounds), so any percentile estimate is
    within one bucket ratio of the exact order statistic -- ~1.5%
    relative error at the default -- while recording stays O(1) and
    the whole structure is a fixed few-hundred-int array. Estimates
    are the bucket's upper bound clamped to the observed maximum, so
    they never *under*-state a tail.
    """

    def __init__(
        self,
        lowest_s: float = 1e-6,
        highest_s: float = 120.0,
        growth: float = 1.015,
    ) -> None:
        if lowest_s <= 0 or highest_s <= lowest_s or growth <= 1.0:
            raise ValueError("need 0 < lowest < highest and growth > 1")
        self.lowest_s = lowest_s
        self.highest_s = highest_s
        self.growth = growth
        self._log_growth = math.log(growth)
        # Bucket 0 holds everything <= lowest_s; the last bucket is a
        # catch-all for anything past highest_s.
        self.bucket_count = (
            int(math.ceil(math.log(highest_s / lowest_s) / self._log_growth)) + 2
        )
        self.counts = [0] * self.bucket_count
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    def _bucket(self, seconds: float) -> int:
        if seconds <= self.lowest_s:
            return 0
        index = int(math.ceil(math.log(seconds / self.lowest_s) / self._log_growth))
        return min(max(index, 1), self.bucket_count - 1)

    def _upper_bound(self, bucket: int) -> float:
        if bucket <= 0:
            return self.lowest_s
        return self.lowest_s * (self.growth ** bucket)

    def record(self, seconds: float) -> None:
        """Add one latency sample (seconds; negatives clamp to zero)."""
        seconds = max(0.0, seconds)
        self.counts[self._bucket(seconds)] += 1
        self.count += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder (same geometry) into this one."""
        if (
            other.lowest_s != self.lowest_s
            or other.growth != self.growth
            or other.bucket_count != self.bucket_count
        ):
            raise ValueError("cannot merge recorders with different geometry")
        for index, value in enumerate(other.counts):
            self.counts[index] += value
        self.count += other.count
        self.total_s += other.total_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    def percentile(self, q: float) -> float:
        """The q-quantile estimate in seconds (0 for an empty recorder).

        Matches the rank convention of ``sorted(samples)[int(q * n)]``
        to within one bucket's relative width.
        """
        if self.count == 0:
            return 0.0
        rank = min(self.count, int(q * self.count) + 1)
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                if index == 0:
                    return min(self.min_s, self.lowest_s)
                return max(self.min_s, min(self._upper_bound(index), self.max_s))
        return self.max_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """The headline distribution, in milliseconds."""
        return {
            "count": float(self.count),
            "mean_ms": round(self.mean_s * 1e3, 4),
            "p50_ms": round(self.percentile(0.50) * 1e3, 4),
            "p95_ms": round(self.percentile(0.95) * 1e3, 4),
            "p99_ms": round(self.percentile(0.99) * 1e3, 4),
            "p999_ms": round(self.percentile(0.999) * 1e3, 4),
            "max_ms": round((self.max_s if self.count else 0.0) * 1e3, 4),
        }


# ----------------------------------------------------------------------
# Deterministic operation streams
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OpMix:
    """Weights of the workload mix (normalized before use)."""

    locate: float = 0.60
    move: float = 0.25
    register: float = 0.10
    batch: float = 0.05
    #: Hamming-similarity discovery queries (multi-result reads).
    similar: float = 0.0
    #: Capability discovery queries (multi-result reads).
    capability: float = 0.0

    def weights(self) -> Tuple[Tuple[str, float], ...]:
        """``(kind, cumulative_upper_bound)`` pairs over (0, 1]."""
        raw = [
            (OP_LOCATE, self.locate),
            (OP_MOVE, self.move),
            (OP_REGISTER, self.register),
            (OP_BATCH, self.batch),
            (OP_SIMILAR, self.similar),
            (OP_CAPABILITY, self.capability),
        ]
        if any(weight < 0 for _, weight in raw):
            raise ValueError(f"negative mix weight in {self}")
        total = sum(weight for _, weight in raw)
        if total <= 0:
            raise ValueError("op mix needs at least one positive weight")
        bounds: List[Tuple[str, float]] = []
        cumulative = 0.0
        for kind, weight in raw:
            if weight > 0:
                cumulative += weight / total
                bounds.append((kind, cumulative))
        bounds[-1] = (bounds[-1][0], 1.0)  # guard float drift
        return tuple(bounds)

    def as_dict(self) -> Dict[str, float]:
        return {
            OP_LOCATE: self.locate,
            OP_MOVE: self.move,
            OP_REGISTER: self.register,
            OP_BATCH: self.batch,
            OP_SIMILAR: self.similar,
            OP_CAPABILITY: self.capability,
        }

    @classmethod
    def parse(cls, spec: str) -> "OpMix":
        """Parse ``"locate=0.6,move=0.25,register=0.1,batch=0.05"``.

        Unmentioned kinds get weight 0 (not their default), so a spec
        names the whole mix.
        """
        weights = {kind: 0.0 for kind in OP_KINDS}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                kind, value = part.split("=", 1)
                weight = float(value)
            except ValueError:
                raise ValueError(
                    f"bad mix component {part!r}; expected kind=weight"
                ) from None
            kind = kind.strip()
            if kind not in weights:
                raise ValueError(f"unknown op kind {kind!r}; expected {OP_KINDS}")
            weights[kind] = weight
        return cls(**weights)


class Op:
    """One drawn operation, fully determined at draw time.

    A plain slotted class, not a dataclass: the generator builds one per
    drawn op, and a generated ``__init__`` cost three times this one.
    """

    __slots__ = ("kind", "agent", "node", "seq", "batch", "d", "predicate")

    def __init__(
        self,
        kind: str,
        agent: AgentId,
        node: Optional[str] = None,
        seq: int = 0,
        batch: Optional[Tuple[AgentId, ...]] = None,
        d: Optional[int] = None,
        predicate: Optional[Dict] = None,
    ) -> None:
        self.kind = kind
        self.agent = agent
        #: Target node for register/move (None for reads).
        self.node = node
        self.seq = seq
        #: The whole sample for a batch-locate (None otherwise).
        self.batch = batch
        #: Hamming radius of a similar-discovery query (None otherwise;
        #: also mirrored into ``seq`` so ``key()`` pins it).
        self.d = d
        #: Predicate of a capability-discovery query (None otherwise; its
        #: palette index is mirrored into ``seq``).
        self.predicate = predicate

    def key(self) -> Tuple[str, str, int]:
        """A compact, comparable identity for determinism checks."""
        return (self.kind, str(self.agent), self.seq)


class OpStream:
    """A deterministic operation stream for one lane.

    The lane owns a disjoint set of agents: *mutations* (move,
    register) only ever touch owned agents, so per-agent sequence
    numbers advance in a single deterministic order no matter how
    concurrent lanes interleave on the wire. *Reads* (locate, batch)
    draw from the shared setup population, which is frozen before the
    load starts. Everything -- op kind, target agent, destination node,
    new ids -- comes from the lane's own seeded RNG and namer, so the
    stream replays identically for a given ``(seed, lane)``.
    """

    def __init__(
        self,
        seed: int,
        lane: int,
        mix: OpMix,
        node_names: Sequence[str],
    ) -> None:
        if not node_names:
            raise ValueError("op stream needs at least one node name")
        self.lane = lane
        self.rng = random.Random(f"repro-loadgen-{seed}-lane-{lane}")
        self.namer = AgentNamer(seed=(seed + 1) * 1_000_003 + lane)
        self.bounds = mix.weights()
        self.node_names = list(node_names)
        #: Agents this lane owns: insertion-ordered, mutation targets.
        self.owned: List[AgentId] = []
        #: The sequence number each owned agent is at, indexed like ``owned``.
        self.seqs: List[int] = []
        #: The frozen shared population reads draw from.
        self.shared: Sequence[AgentId] = ()

    def spawn(self) -> Op:
        """Mint a new owned agent on a drawn node (a register op)."""
        agent = self.namer.next_id()
        node = self.rng.choice(self.node_names)
        self.owned.append(agent)
        self.seqs.append(0)
        return Op(kind=OP_REGISTER, agent=agent, node=node, seq=0)

    def bind_shared(self, shared: Sequence[AgentId]) -> None:
        self.shared = shared

    def draw(self) -> Op:
        """The next operation; deterministic for a given stream."""
        roll = self.rng.random()
        kind = self.bounds[-1][0]
        for candidate, upper in self.bounds:
            if roll <= upper:
                kind = candidate
                break
        if kind == OP_MOVE and not self.owned:
            kind = OP_LOCATE if self.shared else OP_REGISTER
        if kind in (OP_LOCATE, OP_BATCH, OP_SIMILAR, OP_CAPABILITY) and (
            not self.shared
        ):
            kind = OP_REGISTER
        if kind == OP_REGISTER:
            return self.spawn()
        if kind == OP_MOVE:
            index = self.rng.randrange(len(self.owned))
            seq = self.seqs[index] = self.seqs[index] + 1
            node = self.rng.choice(self.node_names)
            return Op(kind=OP_MOVE, agent=self.owned[index], node=node, seq=seq)
        if kind == OP_BATCH:
            sample = tuple(
                self.shared[self.rng.randrange(len(self.shared))]
                for _ in range(min(BATCH_K, len(self.shared)))
            )
            return Op(kind=OP_BATCH, agent=sample[0], batch=sample)
        if kind == OP_SIMILAR:
            agent = self.shared[self.rng.randrange(len(self.shared))]
            d = 1 + self.rng.randrange(2)
            return Op(kind=OP_SIMILAR, agent=agent, seq=d, d=d)
        if kind == OP_CAPABILITY:
            agent = self.shared[self.rng.randrange(len(self.shared))]
            index = self.rng.randrange(len(PREDICATE_PALETTE))
            return Op(
                kind=OP_CAPABILITY,
                agent=agent,
                seq=index,
                predicate=PREDICATE_PALETTE[index],
            )
        agent = self.shared[self.rng.randrange(len(self.shared))]
        return Op(kind=OP_LOCATE, agent=agent)


# ----------------------------------------------------------------------
# Configuration and report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LoadConfig:
    """One load run: discipline, intensity, mix, phases."""

    #: ``"closed"`` (workers loop as fast as the service allows) or
    #: ``"open"`` (Poisson arrivals at ``rate`` regardless of service).
    mode: str = MODE_CLOSED

    #: Concurrent closed-loop workers (lanes). Thousands are fine: the
    #: workers share the per-node clients' pipelined channels.
    clients: int = 64

    #: Open-loop target arrival rate, ops/sec.
    rate: float = 500.0

    #: Measure-phase length (seconds); ignored by closed-loop runs that
    #: set ``ops_per_client``.
    duration_s: float = 10.0

    #: Ops executed before the recorders start (seconds).
    warmup_s: float = 2.0

    #: Grace window for in-flight ops after the measure phase ends.
    drain_s: float = 2.0

    #: Closed loop only: stop each worker after exactly this many
    #: *measured* ops instead of at a deadline -- with ``warmup_s=0``
    #: two same-seed runs then produce identical op sequences.
    ops_per_client: Optional[int] = None

    #: Shared agents registered before the run (the read population).
    population: int = 200

    #: Workload mix weights.
    mix: OpMix = field(default_factory=OpMix)

    #: Seed for every stream (arrivals, op draws, new ids).
    seed: int = 1

    #: Optional pass/fail latency budget for :attr:`LoadReport.passed`.
    p99_budget_ms: Optional[float] = None

    #: Keep the per-lane op logs (cheap; disable for very long runs).
    record_ops: bool = True

    def validate(self) -> None:
        if self.mode not in (MODE_CLOSED, MODE_OPEN):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.mode == MODE_CLOSED and self.clients < 1:
            raise ValueError("closed-loop load needs at least one client")
        if self.mode == MODE_OPEN and self.rate <= 0:
            raise ValueError("open-loop load needs a positive arrival rate")
        if self.population < 1:
            raise ValueError("load needs at least one shared agent")
        if self.ops_per_client is not None and self.ops_per_client < 1:
            raise ValueError("ops_per_client must be positive when set")
        self.mix.weights()  # raises on a degenerate mix


@dataclass
class LoadReport:
    """What one load run did, with the distribution to judge it by."""

    mode: str = MODE_CLOSED
    nodes: int = 0
    shards: int = 1
    replicas: int = 1
    clients: int = 0
    rate: Optional[float] = None
    seed: int = 0
    population: int = 0
    warmup_s: float = 0.0
    measure_s: float = 0.0
    drain_s: float = 0.0
    #: Measured ops issued / completed ok / failed (server or transport
    #: error after the client's own retry loop gave up).
    ops_issued: int = 0
    ops_ok: int = 0
    ops_failed: int = 0
    #: Measured open-loop ops still unfinished when the drain window
    #: closed.
    ops_abandoned: int = 0
    #: Agents resolved by batch ops (each batch op counts once above).
    batch_items: int = 0
    #: Matches returned by measured discovery ops (similar+capability).
    discovery_matches: int = 0
    #: Open-loop arrivals that had to wait for an in-flight slot.
    throttled: int = 0
    throughput_ops_s: float = 0.0
    #: Overall measured-latency distribution (see LatencyRecorder).
    latency: Dict[str, float] = field(default_factory=dict)
    #: Per-kind breakdown: issued/ok/failed + p50/p99.
    kinds: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Client-counter deltas over the measure+drain window (retries,
    #: refreshes, bounces -- staleness is counted, never hidden).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Successful measured ops per whole second of the measure window
    #: (index 0 = first second). A partition run is judged on this:
    #: goodput must never hit zero while part of the cluster is dark.
    goodput_timeline: List[int] = field(default_factory=list)
    #: First few error messages, for debugging a failed run.
    errors_sample: List[str] = field(default_factory=list)
    p99_budget_ms: Optional[float] = None
    #: Per-lane op-sequence logs (determinism checks / replay).
    op_log: List[List[Tuple[str, str, int]]] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        done = self.ops_issued
        return (self.ops_failed + self.ops_abandoned) / done if done else 0.0

    @property
    def passed(self) -> bool:
        """No op failed or was abandoned, something actually ran, and
        the p99 stayed inside the budget (when one was set)."""
        if self.ops_issued == 0 or self.ops_failed or self.ops_abandoned:
            return False
        if self.p99_budget_ms is not None:
            return self.latency.get("p99_ms", math.inf) <= self.p99_budget_ms
        return True

    def to_dict(self) -> Dict:
        record = {
            key: value for key, value in self.__dict__.items() if key != "op_log"
        }
        record["error_rate"] = self.error_rate
        record["passed"] = self.passed
        return record

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        intensity = (
            f"{self.clients} closed-loop clients"
            if self.mode == MODE_CLOSED
            else f"open loop @ {self.rate:g} ops/s"
        )
        budget = (
            f" (budget {self.p99_budget_ms:g} ms)"
            if self.p99_budget_ms is not None
            else ""
        )
        lines = [
            f"load run: {status}",
            f"  cluster     {self.nodes} nodes, {self.shards} shard(s), "
            f"{self.replicas} replica(s)",
            f"  discipline  {intensity}, seed {self.seed}, "
            f"{self.population} shared agents",
            f"  phases      warmup {self.warmup_s:g}s, measured "
            f"{self.measure_s:.2f}s, drain {self.drain_s:g}s",
            f"  throughput  {self.throughput_ops_s:.1f} ops/s "
            f"({self.ops_ok}/{self.ops_issued} ok, {self.ops_failed} failed, "
            f"{self.ops_abandoned} abandoned, {self.batch_items} batched items)",
            f"  latency     p50 {self.latency.get('p50_ms', 0.0):.2f} ms, "
            f"p95 {self.latency.get('p95_ms', 0.0):.2f} ms, "
            f"p99 {self.latency.get('p99_ms', 0.0):.2f} ms, "
            f"p999 {self.latency.get('p999_ms', 0.0):.2f} ms{budget}",
        ]
        staleness = {
            key: self.counters.get(key, 0)
            for key in ("retries", "refreshes", "not_responsible", "wrong_shard_retries")
        }
        lines.append(
            f"  staleness   {staleness['retries']} retries, "
            f"{staleness['refreshes']} refreshes, "
            f"{staleness['not_responsible']} not-responsible, "
            f"{staleness['wrong_shard_retries']} wrong-shard"
        )
        if self.discovery_matches:
            lines.append(
                f"  discovery   {self.discovery_matches} matches returned, "
                f"{self.counters.get('discovery_retries', 0)} stale-set retries"
            )
        if self.counters.get("hedges", 0):
            lines.append(
                f"  resilience  {self.counters['hedges']} hedges "
                f"({self.counters.get('hedge_wins', 0)} won)"
            )
        if self.throttled:
            lines.append(f"  open loop   {self.throttled} arrivals throttled")
        for message in self.errors_sample:
            lines.append(f"  error       {message}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------


class LoadGenerator:
    """Drives one configured load against an already-booted cluster."""

    def __init__(
        self,
        clients: Sequence[ServiceClient],
        node_names: Sequence[str],
        config: LoadConfig,
    ) -> None:
        if not clients or not node_names:
            raise ValueError("load generator needs clients and node names")
        config.validate()
        self.clients = list(clients)
        self.node_names = list(node_names)
        self.config = config
        lanes = config.clients if config.mode == MODE_CLOSED else 1
        self.streams = [
            OpStream(config.seed, lane, config.mix, self.node_names)
            for lane in range(lanes)
        ]
        self.recorder = LatencyRecorder()
        self.kind_recorders = {kind: LatencyRecorder() for kind in OP_KINDS}
        self.kind_issued = {kind: 0 for kind in OP_KINDS}
        self.kind_failed = {kind: 0 for kind in OP_KINDS}
        self.op_logs: List[List[Tuple[str, str, int]]] = [[] for _ in self.streams]
        self.batch_items = 0
        self.discovery_matches = 0
        #: Successful measured ops keyed by whole second of the window.
        self.goodput: Dict[int, int] = {}
        self.throttled = 0
        self.abandoned = 0
        self.errors_sample: List[str] = []
        self._measure_start = 0.0
        self._measure_end = math.inf
        self._counters_before: Dict[str, int] = {}

    # -- population ----------------------------------------------------

    async def setup(self) -> List[AgentId]:
        """Register the shared population; freeze it for the reads.

        Slots round-robin over the lanes (each lane *owns* the agents
        it spawned, so later moves stay sequence-consistent), and the
        records go out via ``register_batch`` -- one RPC amortized over
        many agents, the same bulk path the benchmarks exercise.
        """
        config = self.config
        ops: List[Op] = []
        for index in range(config.population):
            ops.append(self.streams[index % len(self.streams)].spawn())
        shared = [op.agent for op in ops]
        # A capability-discovery mix needs targets to *have* capability
        # sets: cycle the palette over the population (deterministic by
        # slot index), riding along in the same register-batch records.
        with_caps = config.mix.capability > 0
        batch = [
            (
                op.agent,
                op.node or self.node_names[0],
                op.seq,
                assign_capabilities(index) if with_caps else None,
            )
            for index, op in enumerate(ops)
        ]
        chunk = max(1, len(batch) // len(self.clients) + 1)
        await asyncio.gather(
            *(
                self.clients[index % len(self.clients)].register_batch(
                    batch[start : start + chunk]
                )
                for index, start in enumerate(range(0, len(batch), chunk))
            )
        )
        for stream in self.streams:
            stream.bind_shared(shared)
        return shared

    # -- execution -----------------------------------------------------

    async def _execute(self, client: ServiceClient, op: Op) -> int:
        """Run one op; return the number of batched items it settled."""
        if op.kind == OP_LOCATE:
            await client.locate(op.agent)
            return 0
        if op.kind == OP_MOVE:
            await client.update(op.agent, op.node or self.node_names[0], op.seq)
            return 0
        if op.kind == OP_REGISTER:
            await client.register(op.agent, op.node or self.node_names[0], op.seq)
            return 0
        if op.kind == OP_SIMILAR:
            found = await client.discover_similar(op.agent, op.d or 1)
            return len(found)
        if op.kind == OP_CAPABILITY:
            found = await client.discover_capability(op.predicate or {})
            return len(found)
        batch = list(op.batch or ())
        located = await client.locate_batch(batch)
        return len(located)

    async def _run_one(
        self,
        lane: int,
        client: ServiceClient,
        op: Op,
        measured: bool,
        started_at: float,
    ) -> None:
        loop = asyncio.get_running_loop()
        if measured:
            self.kind_issued[op.kind] += 1
            if self.config.record_ops:
                self.op_logs[lane].append(op.key())
        try:
            items = await self._execute(client, op)
        except ServiceError as error:
            if measured:
                self.kind_failed[op.kind] += 1
                if len(self.errors_sample) < 5:
                    self.errors_sample.append(f"{op.kind} {op.agent}: {error}")
            return
        if measured:
            elapsed = loop.time() - started_at
            self.recorder.record(elapsed)
            self.kind_recorders[op.kind].record(elapsed)
            # Bucket goodput by the op's *completion* second: a hole in
            # the timeline means nothing finished during that second.
            bucket = max(0, int(loop.time() - self._measure_start))
            self.goodput[bucket] = self.goodput.get(bucket, 0) + 1
            if op.kind in (OP_SIMILAR, OP_CAPABILITY):
                self.discovery_matches += items
            else:
                self.batch_items += items

    # -- closed loop ---------------------------------------------------

    async def _closed_worker(self, lane: int) -> None:
        config = self.config
        stream = self.streams[lane]
        client = self.clients[lane % len(self.clients)]
        loop = asyncio.get_running_loop()
        measured_ops = 0
        while True:
            now = loop.time()
            if config.ops_per_client is not None:
                if measured_ops >= config.ops_per_client:
                    break
            elif now >= self._measure_end:
                break
            measured = now >= self._measure_start
            op = stream.draw()
            await self._run_one(lane, client, op, measured, loop.time())
            if measured:
                measured_ops += 1

    # -- open loop -----------------------------------------------------

    async def _open_loop(self) -> None:
        config = self.config
        stream = self.streams[0]
        loop = asyncio.get_running_loop()
        arrivals = random.Random(f"repro-loadgen-{config.seed}-arrivals")
        semaphore = asyncio.Semaphore(MAX_IN_FLIGHT)
        # In-flight op -> whether it is measured.
        tasks: "dict[asyncio.Task, bool]" = {}
        next_at = loop.time()
        dispatched = 0
        while True:
            next_at += arrivals.expovariate(config.rate)
            if next_at >= self._measure_end:
                break
            delay = next_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if semaphore.locked():
                self.throttled += 1
            await semaphore.acquire()
            op = stream.draw()
            measured = next_at >= self._measure_start
            client = self.clients[dispatched % len(self.clients)]
            dispatched += 1
            # Latency is measured from the *scheduled* arrival: if the
            # loop or the cluster falls behind, the backlog shows up in
            # the percentiles instead of being coordinated-omitted.
            task = asyncio.ensure_future(
                self._run_one(0, client, op, measured, next_at)
            )
            tasks[task] = measured
            task.add_done_callback(
                lambda finished: (tasks.pop(finished), semaphore.release())
            )
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=config.drain_s)
            for task in pending:
                # A warm-up straggler was never issued: cancelled, but
                # not abandoned.
                if tasks[task]:
                    self.abandoned += 1
                task.cancel()
            if pending:
                # Bounded: a task whose cancellation is swallowed (the
                # asyncio.wait_for completion race) must not wedge the
                # run -- any straggler dies with the cluster teardown.
                await asyncio.wait(pending, timeout=5.0)

    # -- the run -------------------------------------------------------

    async def run(self) -> LoadReport:
        """Execute warmup / measure / drain; return the report."""
        config = self.config
        loop = asyncio.get_running_loop()
        self._counters_before = self._merged_counters()
        start = loop.time()
        self._measure_start = start + config.warmup_s
        if config.mode == MODE_CLOSED and config.ops_per_client is not None:
            self._measure_end = math.inf
        else:
            self._measure_end = self._measure_start + config.duration_s

        if config.mode == MODE_CLOSED:
            await asyncio.gather(
                *(self._closed_worker(lane) for lane in range(config.clients))
            )
        else:
            await self._open_loop()
        finished = loop.time()

        report = LoadReport(
            mode=config.mode,
            clients=config.clients if config.mode == MODE_CLOSED else 0,
            rate=config.rate if config.mode == MODE_OPEN else None,
            seed=config.seed,
            population=config.population,
            warmup_s=config.warmup_s,
            drain_s=config.drain_s,
            p99_budget_ms=config.p99_budget_ms,
        )
        report.measure_s = max(1e-9, finished - self._measure_start)
        report.ops_issued = sum(self.kind_issued.values())
        report.ops_failed = sum(self.kind_failed.values())
        report.ops_abandoned = self.abandoned
        report.ops_ok = report.ops_issued - report.ops_failed - report.ops_abandoned
        report.batch_items = self.batch_items
        report.discovery_matches = self.discovery_matches
        report.throttled = self.throttled
        report.throughput_ops_s = round(report.ops_ok / report.measure_s, 1)
        report.latency = self.recorder.summary()
        report.kinds = {
            kind: {
                "issued": float(self.kind_issued[kind]),
                "failed": float(self.kind_failed[kind]),
                "p50_ms": self.kind_recorders[kind].summary()["p50_ms"],
                "p99_ms": self.kind_recorders[kind].summary()["p99_ms"],
            }
            for kind in OP_KINDS
            if self.kind_issued[kind]
        }
        # Full seconds only: the trailing partial bucket (and drain-time
        # completions) would read as a spurious goodput dip.
        seconds = max(1, int(report.measure_s))
        report.goodput_timeline = [
            self.goodput.get(index, 0) for index in range(seconds)
        ]
        after = self._merged_counters()
        report.counters = {
            key: after[key] - self._counters_before.get(key, 0) for key in after
        }
        report.errors_sample = list(self.errors_sample)
        report.op_log = self.op_logs
        return report

    def _merged_counters(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for client in self.clients:
            for key, value in client.counters.as_dict().items():
                merged[key] = merged.get(key, 0) + value
        return merged


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


async def run_load(
    cluster_config: ClusterConfig, load: LoadConfig
) -> LoadReport:
    """Boot a cluster, register the population, run one load, tear down."""
    load.validate()
    async with booted_cluster(replace(cluster_config, ops=0)) as cluster:
        generator = LoadGenerator(
            cluster.clients, [node.name for node in cluster.nodes], load
        )
        await generator.setup()
        report = await generator.run()
    report.nodes = cluster_config.nodes
    report.shards = cluster_config.shards
    report.replicas = max(1, cluster_config.hagent_replicas)
    return report


async def saturation_search(
    cluster_config: ClusterConfig,
    load: LoadConfig,
    budget_p99_ms: float,
    rate_lo: float = 100.0,
    rate_hi: float = 4000.0,
    probes: int = 6,
) -> Dict:
    """Binary-search the open-loop knee where p99 exceeds the budget.

    Each probe boots a *fresh* cluster (so one storm's rehash state
    never pollutes the next) and runs ``load`` as an open loop at the
    probed rate; a probe passes when nothing failed or was abandoned
    and the measured p99 stayed inside ``budget_p99_ms``. Returns the
    knee (the highest passing rate), the distribution measured there,
    and every probe's summary.
    """
    if rate_lo <= 0 or rate_hi <= rate_lo:
        raise ValueError("need 0 < rate_lo < rate_hi")
    history: List[Dict] = []

    async def probe(rate: float) -> Tuple[bool, LoadReport]:
        config = replace(
            load, mode=MODE_OPEN, rate=rate, p99_budget_ms=budget_p99_ms
        )
        report = await run_load(cluster_config, config)
        ok = report.passed
        history.append(
            {
                "rate": round(rate, 1),
                "ok": ok,
                "throughput_ops_s": report.throughput_ops_s,
                "p99_ms": report.latency.get("p99_ms", 0.0),
                "failed": report.ops_failed,
                "abandoned": report.ops_abandoned,
            }
        )
        return ok, report

    lo_ok, lo_report = await probe(rate_lo)
    result: Dict = {
        "budget_p99_ms": budget_p99_ms,
        "rate_lo": rate_lo,
        "rate_hi": rate_hi,
        "probes": history,
    }
    if not lo_ok:
        # The floor itself saturates the cluster: report that honestly
        # rather than pretending the knee is rate_lo.
        result.update(saturated_below_lo=True, knee_rate=None)
        return result
    hi_ok, hi_report = await probe(rate_hi)
    best_rate, best_report = rate_lo, lo_report
    if hi_ok:
        best_rate, best_report = rate_hi, hi_report
    else:
        lo, hi = rate_lo, rate_hi
        for _ in range(max(0, probes - 2)):
            mid = math.sqrt(lo * hi)  # rates live on a log scale
            ok, report = await probe(mid)
            if ok:
                lo, best_rate, best_report = mid, mid, report
            else:
                hi = mid
    result.update(
        saturated_below_lo=False,
        knee_rate=round(best_rate, 1),
        knee_saturated=not hi_ok,
        throughput_ops_s=best_report.throughput_ops_s,
        latency=best_report.latency,
    )
    return result
