"""Workloads, set-up, closed-loop driving, oracle and validity guards.

Everything here runs in one process on one asyncio loop: the cluster
(:func:`repro.service.cluster.booted_cluster`) and the load generator
share it, so process CPU time is the cost of the whole path and nothing
is lost to cross-process scheduling. Traffic crosses the host loopback
interface through the service's own pooled TCP connections.

A *repeat* is one fresh cluster: boot, register the population, shape
the hash tree to an exact leaf count with forged ``load-report`` wire
ops, run the measured phase, sweep every agent ever written against the
generator's own truth, tear down. A *workload run* is three repeats;
every reported value is the median of the three.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import ExitStack, asynccontextmanager, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, AsyncIterator, Callable, Dict, Iterator, List, Optional, Tuple

from repro.platform.naming import AgentId
from repro.service.client import ServiceClient, ServiceError
from repro.service.cluster import ClusterConfig, booted_cluster
from repro.service.loadgen import OP_LOCATE, OP_MOVE, Op, OpMix, OpStream
from repro.service.server import IAgentEndpoint, ServiceConfig

NODES = 3
REPEATS = 3
WARMUP_S = 2.0
#: A repeat that trips a validity guard is discarded and re-run this often.
MAX_RERUNS = 2
#: Saturated windows that lost more than this share of wall time to the
#: hypervisor (1 - cpu/wall) measure the host, not the program.
STEAL_LIMIT = 0.25
#: Agents per bulk register / sweep call in set-up and verification.
BULK_SLICE = 2048
#: A forged report that has not split its leaf after this long never will.
SPLIT_TIMEOUT_S = 10.0

LOCATE_ONLY = OpMix(locate=1.0, move=0.0, register=0.0, batch=0.0)

#: Storage knobs of the durable workload. The sandbox disk's fsync median
#: flips between ~0.2 ms and ~5 ms within a minute and throttles under a
#: sustained sync rate (at fsync="interval" 16 stores sync 160 times a
#: second; ops_s fell 1577 -> 274 over 14 back-to-back repeats of the same
#: code), so a window that syncs measures the disk. The WAL is still
#: encoded, written and flushed to the OS on every mutation; fsync policies
#: and snapshot cost are per-layer metrics instead (storage.*).
DURABLE = {"fsync": "never", "snapshot_every": 0}


@dataclass(frozen=True)
class Workload:
    """One pinned traffic mix against one pinned tree shape."""

    name: str
    why: str
    population: int
    #: Leaf count the tree is shaped to in set-up.
    leaves: int
    #: Closed-loop workers = requests in flight.
    workers: int
    mix: OpMix = LOCATE_ONLY
    #: Journal every IAgent mutation to a WAL in a fresh data dir. The
    #: window issues no fsync (``DURABLE`` below says why).
    durable: bool = False
    #: When set, the measured phase is a forged-report storm that splits
    #: breadth-first to this many leaves while the workers keep reading.
    storm_leaves: int = 0
    #: Ops per lane folded into the op-log digest (a fixed prefix, since
    #: the number of ops a timed window issues differs run to run).
    digest_ops: int = 200

    @property
    def saturated(self) -> bool:
        """Enough requests in flight that the loop never waits for work."""
        return self.workers >= 16


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="locate-seq",
        why="one locate in flight: no queueing, so p50 is the read path's latency budget",
        population=2000,
        leaves=16,
        workers=1,
        digest_ops=2000,
    ),
    Workload(
        name="locate-pipelined",
        why="16 locates in flight saturate the loop: CPU per op with pipelining and coalescing in play",
        population=2000,
        leaves=16,
        workers=16,
    ),
    Workload(
        name="move-durable",
        why="80% move / 20% register with a WAL: the write path, the only place storage and jsonable work",
        population=2000,
        leaves=16,
        workers=16,
        mix=OpMix(locate=0.0, move=0.8, register=0.2, batch=0.0),
        durable=True,
    ),
    Workload(
        name="rehash-storm",
        why="255 forged splits over 20000 agents under read load: the paper's rehash path does the work",
        population=20000,
        leaves=1,
        workers=2,
        storm_leaves=256,
        digest_ops=100,
    ),
)


def workload_named(name: str) -> Workload:
    for spec in WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(name)


class GuardViolation(Exception):
    """The set-up could not reach the state the workload is defined on."""


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------

#: The sandbox's CPU does not run at one speed: an identical pure-Python
#: loop cost 41 - 115 ms of CPU time over 150 s, drifting over seconds to
#: minutes, and every time-based metric followed it (correlation 0.8 - 0.9;
#: 4 s windows of unchanged code spread 20 - 30%). So a yardstick lane runs
#: beside the workers through the measured window, timing one fixed unit of
#: stdlib work every ``YARDSTICK_GAP_S``; the window is cut into slices and
#: each slice's times are scaled to the speed at which a unit costs
#: ``REFERENCE_UNIT_S`` (this sandbox in its fast state). That brought the
#: same windows to a 4 - 5% spread. The lane's own CPU and wall time are
#: taken out of the slice; raw values are printed beside the scaled ones.
#: CPU per op and the median latency follow the unit's CPU cost; throughput
#: also loses the wall time the hypervisor steals (7 - 34% of a slice in a
#: bad minute), which the unit's wall clock sees and its CPU clock does not,
#: so ``ops_s`` is scaled by the unit's wall cost (over 80 s of unchanged
#: code: 3590 - 4471 ops/s, against 2347 - 3829 by CPU cost).
REFERENCE_UNIT_S = 0.005
CALIBRATION_UNITS = 4
YARDSTICK_GAP_S = 0.045
SLICE_S = 0.5


def _calibration_unit() -> None:
    """Dict, string and json work: the instruction mix of the program,
    none of its code (a codec change must not move the yardstick)."""
    table: Dict[str, int] = {}
    for index in range(20000):
        key = "k%d" % (index & 1023)
        table[key] = table.get(key, 0) + index
    json.loads(json.dumps(table))


def timed_unit() -> Tuple[float, float]:
    """One calibration unit; its ``(cpu, wall)`` seconds."""
    cpu, wall = time.process_time(), time.perf_counter()
    _calibration_unit()
    return time.process_time() - cpu, time.perf_counter() - wall


def unit_cost() -> float:
    """CPU seconds a calibration unit costs right now (set-up has no
    yardstick lane; it is read before and after instead)."""
    return statistics.mean(timed_unit()[0] for _ in range(CALIBRATION_UNITS))


# ----------------------------------------------------------------------
# Correctness oracle
# ----------------------------------------------------------------------


@dataclass
class Oracle:
    """The generator's own truth, and every disagreement with it."""

    #: agent -> (node, seq) of the last acknowledged write.
    truth: Dict[AgentId, Tuple[str, int]] = field(default_factory=dict)
    attempted: int = 0
    #: Ops that raised after the client's own retry loop gave up.
    failed: int = 0
    #: Answers that arrived but disagree with the truth.
    wrong: int = 0
    samples: List[str] = field(default_factory=list)

    def check(self, agent: AgentId, answer: Optional[str], where: str) -> bool:
        expected = self.truth[agent][0]
        if answer == expected:
            return True
        self.wrong += 1
        self.note(f"{where}: {agent} answered {answer!r}, truth {expected!r}")
        return False

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.note(what)

    def note(self, text: str) -> None:
        if len(self.samples) < 5:
            self.samples.append(text)

    @property
    def bad(self) -> int:
        return self.failed + self.wrong


# ----------------------------------------------------------------------
# One booted, populated, shaped cluster
# ----------------------------------------------------------------------


class Env:
    """A shaped cluster plus the generator state driving it."""

    def __init__(self, spec: Workload, seed: int, cluster: Any) -> None:
        self.spec = spec
        self.cluster = cluster
        drivers = min(os.cpu_count() or 1, len(cluster.clients))
        self.clients: List[ServiceClient] = cluster.clients[:drivers]
        self.node_names = [node.name for node in cluster.nodes]
        self.streams = [
            OpStream(seed, lane, spec.mix, self.node_names)
            for lane in range(spec.workers)
        ]
        self.oracle = Oracle()
        self.hagent = cluster.primary(0)
        #: Control-plane RPCs (forged reports, stats) ride client 0's
        #: channel, as the bench_service_rpc storm does.
        self.control = self.clients[0].channel
        #: Boot + register + shape. ``setup_s`` is the CPU seconds, taken to
        #: the reference speed by ``setup_scale``: the durable workload's
        #: set-up creates 17 stores (~34 directory fsyncs), and on this disk
        #: the wall clock of that is 0.26 - 0.76 s for the same work.
        self.setup_cpu_s = 0.0
        self.setup_wall_s = 0.0
        self.setup_scale = 1.0
        self._digest = hashlib.sha256()
        self._lane_keys: List[List[Tuple]] = [[] for _ in self.streams]

    # -- set-up ---------------------------------------------------------

    async def register_population(self) -> None:
        """Deal the shared population over the lanes and bulk-register it."""
        ops = [
            self.streams[index % len(self.streams)].spawn()
            for index in range(self.spec.population)
        ]
        for op in ops:
            self.oracle.truth[op.agent] = (op.node, op.seq)
            self._digest.update(repr(op.key()).encode())
        items = [(op.agent, op.node, op.seq) for op in ops]
        slices = [
            items[start : start + BULK_SLICE]
            for start in range(0, len(items), BULK_SLICE)
        ]
        for start in range(0, len(slices), len(self.clients)):
            await asyncio.gather(
                *(
                    client.register_batch(chunk)
                    for client, chunk in zip(self.clients, slices[start:])
                )
            )
        shared = [op.agent for op in ops]
        for stream in self.streams:
            stream.bind_shared(shared)

    async def hagent_stats(self) -> Dict:
        return await self.control.call(self.hagent.addr, "hagent", "stats", {})

    async def split_to(
        self, target: int, on_round: Optional[Callable[[], None]] = None
    ) -> List[Tuple[float, int]]:
        """Forge over-threshold reports, breadth-first and one at a time,
        until the tree has ``target`` leaves.

        Returns ``(seconds, splits)`` per round; ``on_round`` runs between
        rounds (the storm cuts its window there). The coordinator bumps
        ``stats.splits`` before the records move, so the last round also
        waits for the split's ``rehash_log`` entry: the tree is settled
        when this returns.
        """
        call, addr = self.control.call, self.hagent.addr
        stats = await self.hagent_stats()
        rounds: List[Tuple[float, int]] = []
        while stats["iagents"] < target:
            started, before = time.perf_counter(), stats["splits"]
            listing = await call(addr, "hagent", "list-iagents", {})
            for entry in listing["iagents"]:
                if stats["iagents"] >= target:
                    break
                landed = stats["splits"]
                deadline = time.perf_counter() + SPLIT_TIMEOUT_S
                await call(
                    addr,
                    "hagent",
                    "load-report",
                    {"owner": entry["owner"], "rate": 2e9, "mature": True},
                )
                while stats["splits"] == landed:
                    if time.perf_counter() > deadline:
                        raise GuardViolation(
                            f"forged report for {entry['owner']} did not split"
                        )
                    stats = await self.hagent_stats()
            while self.splits_logged() < stats["splits"]:
                await asyncio.sleep(0)
            rounds.append((time.perf_counter() - started, stats["splits"] - before))
            if on_round is not None and stats["iagents"] < target:
                on_round()
        return rounds

    def splits_logged(self) -> int:
        return sum(1 for entry in self.hagent.rehash_log if entry["event"] == "split")

    # -- the generator --------------------------------------------------

    async def execute(self, lane: int, client: Any, op: Op) -> bool:
        """Run one generated op and judge it; True iff it was right."""
        keys = self._lane_keys[lane]
        if len(keys) < self.spec.digest_ops:
            keys.append(op.key())
        oracle = self.oracle
        oracle.attempted += 1
        try:
            if op.kind == OP_LOCATE:
                answer = await client.locate(op.agent)
                return oracle.check(op.agent, answer, "locate")
            if op.kind == OP_MOVE:
                await client.update(op.agent, op.node, op.seq)
            else:
                await client.register(op.agent, op.node, op.seq)
        except ServiceError as error:
            oracle.fail(f"{op.kind} {op.agent}: {error}")
            return False
        oracle.truth[op.agent] = (op.node, op.seq)
        return True

    def op_log_digest(self) -> str:
        """sha256 of the population plus each lane's first ``digest_ops``
        ops; ``short:`` marks a lane that issued fewer than that."""
        digest = self._digest.copy()
        short = False
        for keys in self._lane_keys:
            short = short or len(keys) < self.spec.digest_ops
            digest.update(repr(keys).encode())
        return ("short:" if short else "") + digest.hexdigest()

    def client_counters(self) -> Dict[str, int]:
        return self.cluster.merged_counters().as_dict()

    def iagent_endpoints(self) -> List[IAgentEndpoint]:
        return [ep for node in self.cluster.nodes for ep in node.iagents.values()]

    # -- verification ---------------------------------------------------

    async def sweep(self) -> None:
        """Locate every agent ever written and compare with the truth."""
        agents = list(self.oracle.truth)
        for index, start in enumerate(range(0, len(agents), BULK_SLICE)):
            chunk = agents[start : start + BULK_SLICE]
            client = self.clients[index % len(self.clients)]
            self.oracle.attempted += len(chunk)
            try:
                found = await client.locate_batch(chunk)
            except ServiceError as error:
                self.oracle.fail(f"sweep of {len(chunk)} agents: {error}", len(chunk))
                continue
            for agent in chunk:
                self.oracle.check(agent, found.get(agent), "sweep")


@asynccontextmanager
async def shaped_cluster(
    spec: Workload,
    seed: int,
    data_dir: Optional[Path] = None,
    shape: bool = True,
) -> AsyncIterator[Env]:
    """Boot, populate and shape one cluster; set-up time covers all three.

    Organic rehashing is frozen (no real rate reaches ``t_max``, merges
    are off), so the leaf count only moves when a report is forged.
    ``shape=False`` leaves the tree at one leaf (the guard tests use it).
    """
    mechanism = ServiceConfig().mechanism.with_overrides(
        t_max=1e9, t_min=0.0, cooldown=0.0, enable_merge=False
    )
    durable = {"data_dir": str(data_dir), **DURABLE} if data_dir else {}
    config = ClusterConfig(
        nodes=NODES, service=ServiceConfig(mechanism=mechanism, **durable)
    )
    cost = unit_cost()
    wall, cpu = time.perf_counter(), time.process_time()
    async with booted_cluster(config) as cluster:
        env = Env(spec, seed, cluster)
        await env.register_population()
        if shape:
            await env.split_to(spec.leaves)
        env.setup_cpu_s = time.process_time() - cpu
        env.setup_wall_s = time.perf_counter() - wall
        env.setup_scale = 2 * REFERENCE_UNIT_S / (cost + unit_cost())
        yield env


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------


@dataclass
class Slice:
    """One stretch of the measured window, between two cuts."""

    wall: float
    cpu: float
    latencies: List[float]
    #: Factors that take this slice's CPU-bound times (CPU per op, median
    #: latency) and its wall clock (throughput) to the reference host speed.
    scale: float
    wall_scale: float


class ClosedLoop:
    """``workers`` lanes, each sending its next op when the last returned.

    Closed because the callers are agents that block on the reply. The
    measured window runs from :meth:`begin` to :meth:`finish` and is cut
    into slices by :meth:`cut`; an op belongs to the slice it starts and
    completes in. A yardstick lane times the calibration unit beside the
    workers for as long as the window is open.
    """

    def __init__(self, env: Env) -> None:
        self.env = env
        self.measuring = False
        self.done = False
        self.slices: List[Slice] = []
        self.bad_in_window = 0
        self.counters: Dict[str, int] = {}
        self._tasks: List["asyncio.Future"] = []
        self._latencies: List[float] = []
        #: ``(cpu, wall)`` of each yardstick unit timed in the open slice.
        self._units: List[Tuple[float, float]] = []
        self._wall = self._cpu = 0.0

    def start(self, limit: Optional[int] = None) -> None:
        """Spawn the worker lanes (they run, unmeasured, until ``begin``)."""
        self._tasks += [
            asyncio.ensure_future(self._worker(lane, limit))
            for lane in range(len(self.env.streams))
        ]

    def begin(self) -> None:
        self.counters = self.env.client_counters()
        self._tasks.append(asyncio.ensure_future(self._yardstick()))
        self._open()

    def _open(self) -> None:
        self._latencies = []
        self._units = []
        self._cpu = time.process_time()
        self._wall = time.perf_counter()
        self.measuring = True

    def cut(self) -> None:
        """Close the running slice and open the next."""
        # A slice too short for the lane to have run gets its own reading.
        units = self._units or [timed_unit()]
        unit_cpu = sum(cpu for cpu, _ in units)
        unit_wall = sum(wall for _, wall in units)
        wall = time.perf_counter() - self._wall - unit_wall
        cpu = time.process_time() - self._cpu - unit_cpu
        self.measuring = False
        self.slices.append(
            Slice(
                wall,
                cpu,
                self._latencies,
                REFERENCE_UNIT_S * len(units) / unit_cpu,
                REFERENCE_UNIT_S * len(units) / unit_wall,
            )
        )
        self._open()

    def finish(self) -> None:
        self.cut()
        self.measuring = False
        self.done = True
        after = self.env.client_counters()
        self.counters = {key: after[key] - self.counters[key] for key in after}

    async def join(self) -> None:
        await asyncio.gather(*self._tasks)

    async def _yardstick(self) -> None:
        while not self.done:
            self._units.append(timed_unit())
            await asyncio.sleep(YARDSTICK_GAP_S)

    async def _worker(self, lane: int, limit: Optional[int]) -> None:
        """One lane; with ``limit`` it closes the window after that many
        measured ops (all lanes together)."""
        env = self.env
        stream = env.streams[lane]
        client = env.clients[lane % len(env.clients)]
        clock = time.perf_counter
        while not self.done:
            op = stream.draw()
            started = clock()
            ok = await env.execute(lane, client, op)
            if not self.measuring or started < self._wall:
                continue
            if ok:
                self._latencies.append(clock() - started)
            else:
                self.bad_in_window += 1
            if limit and len(self._latencies) + self.bad_in_window >= limit:
                self.finish()

    async def run_timed(self, warmup_s: float, window_s: float) -> None:
        self.start()
        try:
            await asyncio.sleep(warmup_s)
            self.begin()
            for _ in range(max(1, round(window_s / SLICE_S)) - 1):
                await asyncio.sleep(SLICE_S)
                self.cut()
            await asyncio.sleep(SLICE_S)
        finally:
            self.finish()
            await self.join()

    async def run_counted(self, ops: int) -> None:
        """Exactly ``ops`` measured ops in one slice, no warm-up: the same
        seed issues the same ops."""
        self.begin()
        self.start(limit=ops)
        await self.join()

    def summary(self, pooled: bool = False) -> Dict[str, float]:
        """The window's numbers at the reference host speed, the raw ones
        beside them.

        Steady windows report the median slice, which a host stall inside
        one slice cannot move; ``pooled`` sums over slices instead, for the
        storm, whose slices (rounds) are not alike.
        """
        slices = [piece for piece in self.slices if piece.latencies]
        if not slices:
            raise GuardViolation("no op completed inside the measured window")
        count = sum(len(piece.latencies) for piece in slices)
        wall = sum(piece.wall for piece in slices)
        cpu = sum(piece.cpu for piece in slices)
        raw = sorted(v for piece in slices for v in piece.latencies)
        scaled_wall = sum(piece.wall * piece.wall_scale for piece in slices)
        if pooled:
            scaled = sorted(
                v * piece.scale for piece in slices for v in piece.latencies
            )
            ops_s = count / scaled_wall
            cpu_us = sum(piece.cpu * piece.scale for piece in slices) / count * 1e6
            p50_ms = scaled[count // 2] * 1e3
        else:
            ops_s = statistics.median(
                len(p.latencies) / (p.wall * p.wall_scale) for p in slices
            )
            cpu_us = statistics.median(
                p.cpu * p.scale / len(p.latencies) * 1e6 for p in slices
            )
            p50_ms = statistics.median(
                statistics.median(p.latencies) * p.scale * 1e3 for p in slices
            )
        per_op = {
            "client.bounces_per_op": "not_responsible",
            "client.refreshes_per_op": "refreshes",
            "client.retries_per_op": "retries",
            "client.hedges_per_op": "hedges",
        }
        out = {
            "ops_s": ops_s,
            "cpu_us_per_op": cpu_us,
            "p50_ms": p50_ms,
            "raw.ops_s": count / wall,
            "raw.cpu_us_per_op": cpu / count * 1e6,
            "raw.p50_ms": raw[count // 2] * 1e3,
            "samples": count,
            "scaled_wall_s": scaled_wall,
            "host.unit_ms": REFERENCE_UNIT_S
            / statistics.median(piece.scale for piece in slices)
            * 1e3,
            "loadgen.p99_ms": raw[min(count - 1, int(count * 0.99))] * 1e3,
            "loadgen.max_ms": raw[-1] * 1e3,
            "loadgen.steal_share": max(0.0, 1.0 - cpu / wall),
        }
        for name, counter in per_op.items():
            out[name] = self.counters.get(counter, 0) / count
        return out


# ----------------------------------------------------------------------
# Repeats
# ----------------------------------------------------------------------


def steady_violations(
    spec: Workload, before: Dict, after: Dict, steal_share: float
) -> List[str]:
    """Why a steady window must be discarded (empty list: keep it)."""
    found = []
    if before["iagents"] != spec.leaves:
        found.append(
            f"{before['iagents']} leaves at window start, target {spec.leaves}"
        )
    for counter in ("splits", "merges"):
        if after[counter] != before[counter]:
            found.append(
                f"{after[counter] - before[counter]} {counter} inside the window"
            )
    if spec.saturated and not spec.durable and steal_share > STEAL_LIMIT:
        found.append(f"steal share {steal_share:.2f} > {STEAL_LIMIT}")
    return found


def storm_violations(spec: Workload, stats: Dict) -> List[str]:
    expected = spec.storm_leaves - spec.leaves
    if stats["splits"] != expected or stats["iagents"] != spec.storm_leaves:
        return [
            f"storm landed {stats['splits']} splits / {stats['iagents']} leaves, "
            f"expected exactly {expected} / {spec.storm_leaves}"
        ]
    return []


async def _steady_phase(env: Env, window_s: float, result: Dict) -> None:
    spec = env.spec
    before = await env.hagent_stats()
    loop = ClosedLoop(env)
    await loop.run_timed(WARMUP_S, window_s)
    after = await env.hagent_stats()
    result.update(loop.summary())
    result["leaves"] = after["iagents"]
    result["violations"] = steady_violations(
        spec, before, after, result["loadgen.steal_share"]
    )


async def _storm_phase(env: Env, result: Dict) -> None:
    spec = env.spec
    loop = ClosedLoop(env)
    loop.start()
    try:
        loop.begin()
        rounds = await env.split_to(spec.storm_leaves, on_round=loop.cut)
    finally:
        loop.finish()
        await loop.join()
    stats = await env.hagent_stats()
    moved = [e["moved"] for e in env.hagent.rehash_log if e["event"] == "split"]
    summary = loop.summary(pooled=True)
    result.update(summary)
    result["splits_s"] = stats["splits"] / summary["scaled_wall_s"]
    result["leaves"] = stats["iagents"]
    result["server.split_ms_round1"] = rounds[0][0] / rounds[0][1] * 1e3
    result["server.split_ms_round8"] = rounds[-1][0] / rounds[-1][1] * 1e3
    result["server.records_moved_per_split"] = sum(moved) / max(1, len(moved))
    result["round_s"] = [round(seconds, 4) for seconds, _ in rounds]
    result["violations"] = storm_violations(spec, stats)


def _recover_and_check(
    env: Env, service: ServiceConfig, stores: List[Tuple[Path, str]], result: Dict
) -> None:
    """Reopen every IAgent store after teardown and hold the recovered
    records against the truth: the durability half of the oracle."""
    recovered: Dict[AgentId, List] = {}
    elapsed = 0.0
    for root, name in stores:
        store = service.durable_store(root, name)
        try:
            outcome = store.recover(
                initial=IAgentEndpoint.initial_state,
                apply=IAgentEndpoint.apply_mutation,
            )
        finally:
            store.close()
        elapsed += outcome.elapsed_s
        recovered.update(outcome.state["records"])
    oracle = env.oracle
    oracle.attempted += len(oracle.truth)
    for agent, (node, seq) in oracle.truth.items():
        if recovered.get(agent) != [node, seq]:
            oracle.wrong += 1
            oracle.note(
                f"recover: {agent} is {recovered.get(agent)}, truth {[node, seq]}"
            )
    extra = len(recovered) - len(oracle.truth)
    if extra > 0:
        oracle.wrong += extra
        oracle.note(f"recover: {extra} records nobody wrote")
    result["storage.recover_ms"] = elapsed * 1e3


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


@contextmanager
def scratch_dir(out_dir: Path, prefix: str) -> Iterator[Path]:
    """A fresh directory under ``out_dir`` (inside the checkout), removed
    on exit."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=out_dir))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


async def run_repeat(spec: Workload, seed: int, window_s: float, out_dir: Path) -> Dict:
    """One fresh cluster through set-up, measured phase and verification."""
    result: Dict[str, Any] = {"violations": []}
    with ExitStack() as stack:
        data_dir = (
            stack.enter_context(scratch_dir(out_dir, "data-")) if spec.durable else None
        )
        try:
            async with shaped_cluster(spec, seed, data_dir) as env:
                if spec.storm_leaves:
                    await _storm_phase(env, result)
                else:
                    await _steady_phase(env, window_s, result)
                await env.sweep()
                service = env.cluster.config.service
                stores = [
                    (ep.store.directory.parent, ep.store.name)
                    for ep in env.iagent_endpoints()
                    if ep.store is not None
                ]
        except GuardViolation as violation:
            result["violations"].append(str(violation))
            return result
        if data_dir is not None:
            _recover_and_check(env, service, stores, result)
            result["storage.disk_bytes_per_record"] = _tree_bytes(data_dir) / len(
                env.oracle.truth
            )
    oracle = env.oracle
    result.update(
        setup_s=env.setup_cpu_s * env.setup_scale,
        **{"raw.setup_wall_s": env.setup_wall_s},
        attempted=oracle.attempted,
        failed=oracle.failed,
        wrong=oracle.wrong,
        error_samples=oracle.samples,
        op_log_sha256=env.op_log_digest(),
        drivers=len(env.clients),
        storage=(
            f"data_dir set, fsync={service.fsync!r}, "
            f"snapshot_every={service.snapshot_every}"
            if spec.durable
            else None
        ),
    )
    return result


#: Per-repeat numbers whose median over the repeats is the reported value.
MEDIAN_KEYS = (
    "ops_s",
    "cpu_us_per_op",
    "p50_ms",
    "splits_s",
    "setup_s",
    "raw.ops_s",
    "raw.cpu_us_per_op",
    "raw.p50_ms",
    "raw.setup_wall_s",
    "host.unit_ms",
    "loadgen.p99_ms",
    "loadgen.max_ms",
    "loadgen.steal_share",
    "client.bounces_per_op",
    "client.refreshes_per_op",
    "client.retries_per_op",
    "client.hedges_per_op",
    "storage.recover_ms",
    "storage.disk_bytes_per_record",
    "server.split_ms_round1",
    "server.split_ms_round8",
    "server.records_moved_per_split",
)


def peak_rss_mb() -> float:
    """Process-wide high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def run_workload(
    spec: Workload,
    seed: int,
    seconds: float,
    out_dir: Path,
    repeats: Optional[int] = None,
) -> Dict:
    """``repeats`` (default ``REPEATS``) back-to-back repeats sharing
    ``seconds`` of measured window; a repeat that trips a guard is
    discarded and re-run."""
    repeats = repeats or REPEATS
    window_s = seconds / repeats
    kept: List[Dict] = []
    discarded: List[str] = []
    for index in range(repeats):
        for attempt in range(1 + MAX_RERUNS):
            repeat = await run_repeat(spec, seed, window_s, out_dir)
            if not repeat["violations"]:
                kept.append(repeat)
                break
            reason = "; ".join(repeat["violations"])
            discarded.append(reason)
            print(f"  {spec.name} repeat {index + 1} discarded ({reason}); re-running")
        else:
            raise GuardViolation(
                f"{spec.name} repeat {index + 1} still invalid after "
                f"{MAX_RERUNS} re-runs: {discarded[-1]}"
            )
    attempted = sum(r["attempted"] for r in kept)
    bad = sum(r["failed"] + r["wrong"] for r in kept)
    values = {
        key: [r[key] for r in kept] for key in MEDIAN_KEYS if key in kept[0]
    }
    medians = {key: statistics.median(series) for key, series in values.items()}
    medians["peak_rss_mb"] = peak_rss_mb()
    medians["fail_share"] = bad / attempted
    return {
        "workload": spec.name,
        "seed": seed,
        "window_s": window_s,
        "warmup_s": 0.0 if spec.storm_leaves else WARMUP_S,
        "repeats": len(kept),
        "discarded": discarded,
        "attempted": attempted,
        "failed": bad,
        "samples": [r["samples"] for r in kept],
        "leaves": [r["leaves"] for r in kept],
        "round_s": [r["round_s"] for r in kept if "round_s" in r],
        "op_log_sha256": sorted({r["op_log_sha256"] for r in kept}),
        "error_samples": [s for r in kept for s in r["error_samples"]][:5],
        "drivers": kept[0]["drivers"],
        "storage": kept[0]["storage"],
        "values": values,
        "metrics": medians,
    }
