"""The traced pass: per-layer metrics, measured from outside the program.

No source file gains a timer. For a fixed number of ops at one worker the
benchmark performs each op at every depth itself and times the calls:

    ServiceClient.locate                      (the public call, over sockets)
      RpcChannel.call whois / locate          (the two raw hops it makes)
        wire.encode_frame / decode_frame      (the hop's four codec calls)
        NodeServer.dispatch                   (in process, no socket)
          LHAgentEndpoint.op_whois / IAgentEndpoint.op_locate
            HashTree.lookup / LoadStatistics.record_query / DurableStore.log

Each timed call is a span ``(name, start, end, parent, op)``; the deeper
performance of an op is recorded as the child of the shallower one it
re-performs, so a layer's self time is its span minus its children and
the self times of one op telescope to the public call. Spans stay in
memory and are written to ``out/trace-<workload>.json`` at the end.

End-to-end numbers never come from here: the traced pass is separate,
and its distance from an untraced pass on the same cluster is printed as
the tracing overhead. Every number of this pass is as measured (no scaling
to the reference host speed): the layers of one op are timed within the
same millisecond, so their shares hold whatever speed the host ran at.
"""

from __future__ import annotations

import asyncio
import gc
import json
import statistics
import time
from collections import deque
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import e2e_harness as harness
from repro.core.hash_tree import HashTree
from repro.core.lhagent import HashFunctionCopy
from repro.core.rehashing import plan_split
from repro.platform.jsonable import to_jsonable
from repro.platform.messages import Request, Response
from repro.platform.naming import AgentNamer
from repro.service import wire
from repro.service.loadgen import OP_LOCATE, OP_MOVE
from repro.service.server import IAgentEndpoint, NodeServer, ServiceConfig
from repro.storage import DurableStore

TRACED_OPS = 2000
#: Untraced ops at one worker on the probe cluster: the p50 the self
#: times are held against.
REFERENCE_OPS = 4000
#: The traced pass alternates reference and traced ops in this many chunks.
CHUNKS = 40
IDLE_S = 2.0
#: Frames are rebuilt from the captured bodies with this message id, so
#: byte counts do not depend on how many RPCs the process made before.
PINNED_MESSAGE_ID = 1_000_000

clock = time.perf_counter


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Spans:
    """An in-memory span table; rows are ``[name, start, end, parent, op]``."""

    def __init__(self) -> None:
        self.rows: List[List] = []

    def add(self, name: str, start: float, end: float, parent: Optional[int], op: int) -> int:
        self.rows.append([name, start, end, parent, op])
        return len(self.rows) - 1

    def call(self, name: str, parent: Optional[int], op: int, fn: Callable, *args: Any):
        """Time one synchronous call; returns ``(span index, result)``."""
        start = clock()
        result = fn(*args)
        end = clock()
        return self.add(name, start, end, parent, op), result

    def self_times(self) -> List[float]:
        """Per span: its duration minus the time its children cover."""
        own = [end - start for _, start, end, _, _ in self.rows]
        for _, start, end, parent, _ in self.rows:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path: Path, **header: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {**header, "columns": ["name", "start_s", "end_s", "parent", "op"], "spans": self.rows}
            )
        )


def median_us(values: Iterable[float]) -> float:
    return statistics.median(values) * 1e6


class Budget:
    """Medians by span name, from one traced pass."""

    def __init__(self, spans: Spans) -> None:
        self.duration: Dict[str, List[float]] = {}
        self.own: Dict[str, List[float]] = {}
        for row, own in zip(spans.rows, spans.self_times()):
            self.duration.setdefault(row[0], []).append(row[2] - row[1])
            self.own.setdefault(row[0], []).append(own)
        #: Per op: seconds spent in all of its codec calls.
        codec: Dict[int, float] = {}
        for name, start, end, _, op in spans.rows:
            if name.startswith("wire."):
                codec[op] = codec.get(op, 0.0) + end - start
        self.codec_per_op = list(codec.values())

    def dur(self, *names: str) -> float:
        return median_us(v for name in names for v in self.duration[name])

    def self_us(self, *names: str) -> float:
        return median_us(v for name in names for v in self.own[name])


# ----------------------------------------------------------------------
# One op at every depth
# ----------------------------------------------------------------------


async def trace_hop(
    spans: Spans,
    op_id: int,
    hop: int,
    node: NodeServer,
    target: Any,
    verb: str,
    body: Dict,
    reply: Any,
    tally: Dict[str, Any],
) -> int:
    """Re-perform one RPC hop below the socket: codec, dispatch, handler.

    Returns the handler's span so the caller can hang core calls off it.
    """
    request = {"to": target, "req": Request(op=verb, body=body, message_id=PINNED_MESSAGE_ID)}
    response = Response(message_id=PINNED_MESSAGE_ID, value=reply)
    for label, value in (("request", request), ("response", response)):
        start = clock()
        frame = wire.encode_frame(value, codec=wire.CODEC_BINARY)
        middle = clock()
        wire.decode_frame(frame, codec=wire.CODEC_BINARY)
        end = clock()
        spans.add(f"wire.encode_{label}", start, middle, hop, op_id)
        spans.add(f"wire.decode_{label}", middle, end, hop, op_id)
        tally["bytes"] += len(frame)
        tally["frames"].append(value)
    start = clock()
    await node.dispatch(target, Request(op=verb, body=body))
    dispatch = spans.add("server.dispatch", start, clock(), hop, op_id)
    endpoint = node.lhagent if target == "lhagent" else node.iagents[target]
    handler = getattr(endpoint, "op_" + verb)
    start = clock()
    result = handler(body)
    if asyncio.iscoroutine(result):
        await result
    owner = "lhagent" if target == "lhagent" else "iagent"
    return spans.add(f"{owner}.op_{verb}", start, clock(), dispatch, op_id)


async def trace_op(env: harness.Env, spans: Spans, op_id: int, op: Any, tally: Dict) -> None:
    """One generated op through the public call, then depth by depth."""
    client = env.clients[0]
    channel = client.channel
    cluster = env.cluster
    verb = {OP_LOCATE: "locate", OP_MOVE: "update"}.get(op.kind, "register")
    body = {"agent": op.agent}
    if verb != "locate":
        body.update(node=op.node, seq=op.seq)

    start = clock()
    ok = await env.execute(0, client, op)
    root = spans.add(f"client.{verb}", start, clock(), None, op_id)
    if not ok:
        return

    whois = {"agent": op.agent}
    start = clock()
    mapping = await channel.call(client.lhagent_addr, "lhagent", "whois", whois)
    hop1 = spans.add("rpc.whois", start, clock(), root, op_id)
    start = clock()
    reply = await channel.call(tuple(mapping["addr"]), mapping["iagent"], verb, body)
    hop2 = spans.add("rpc.iagent", start, clock(), root, op_id)

    lhagent_node = cluster.node_by_name(client.node)
    handler = await trace_hop(
        spans, op_id, hop1, lhagent_node, "lhagent", "whois", whois, mapping, tally
    )
    spans.call("core.tree_lookup", handler, op_id, lhagent_node.lhagent.copy.tree.lookup, op.agent.bits)

    iagent_node = cluster.node_by_name(mapping["node"])
    endpoint = iagent_node.iagents[mapping["iagent"]]
    handler = await trace_hop(
        spans, op_id, hop2, iagent_node, mapping["iagent"], verb, body, reply, tally
    )
    record = endpoint.stats.record_query if verb == "locate" else endpoint.stats.record_update
    spans.call("core.load_record", handler, op_id, record, op.agent, time.monotonic())
    if verb == "locate":
        start = clock()
        endpoint.op_update({"agent": op.agent, "node": env.oracle.truth[op.agent][0], "seq": 0})
        tally["update_s"].append(clock() - start)
    elif endpoint.store is not None:
        entry = {"op": "put", "agent": op.agent, "node": op.node, "seq": op.seq}
        append, _ = spans.call("storage.append", handler, op_id, endpoint.store.log, entry)
        spans.call("jsonable.encode", append, op_id, to_jsonable, entry)
        tally["records"].append(entry)


async def traced_pass(env: harness.Env, out_dir: Path, label: str, seed: int) -> Dict:
    """``TRACED_OPS`` at every depth, interleaved chunk by chunk with the
    untraced reference so that host-speed drift hits both alike.

    The cyclic collector is off while spans accumulate: with it on, every
    collection walks the growing span table and the traced public call read
    417 us against 347 us untraced. (On untraced ops its cost at the median
    is below the noise: reference chunks with it on and off differed by
    less than their order in the chunk did.)
    """
    spans = Spans()
    tally: Dict[str, Any] = {"bytes": 0, "frames": [], "update_s": [], "records": []}
    stream = env.streams[0]
    untraced: List[float] = []
    for chunk in range(CHUNKS):
        reference = harness.ClosedLoop(env)
        await reference.run_counted(REFERENCE_OPS // CHUNKS)
        untraced += reference.slices[0].latencies
        gc.disable()
        try:
            for op_id in range(chunk * TRACED_OPS // CHUNKS, (chunk + 1) * TRACED_OPS // CHUNKS):
                await trace_op(env, spans, op_id, stream.draw(), tally)
        finally:
            gc.enable()
    spans.write(out_dir / f"trace-{label}.json", workload=label, seed=seed, ops=TRACED_OPS)
    # The JSON comparator replays the captured frames after the pass: inside
    # it, its 8 extra codec calls per op would evict the path being timed.
    start = clock()
    for value in tally.pop("frames"):
        wire.decode_frame(wire.encode_frame(value, codec=wire.CODEC_JSON), codec=wire.CODEC_JSON)
    tally["json_s"] = clock() - start
    return {"p50_us": median_us(untraced), "budget": Budget(spans), "tally": tally}


# ----------------------------------------------------------------------
# Probes on live clusters
# ----------------------------------------------------------------------


def one_worker(name: str) -> harness.Workload:
    return replace(harness.workload_named(name), workers=1, digest_ops=0)


async def locate_probe(seed: int, out_dir: Path, metrics: Dict, lines: List[str]) -> harness.Oracle:
    spec = one_worker("locate-seq")
    async with harness.shaped_cluster(spec, seed) as env:
        cpu, wall = time.process_time(), clock()
        await asyncio.sleep(IDLE_S)
        metrics["server.idle_cpu_ms_per_s"] = (
            (time.process_time() - cpu) / (clock() - wall) * 1e3
        )
        traced = await traced_pass(env, out_dir, spec.name, seed)
        await env.sweep()
    budget: Budget = traced["budget"]
    tally = traced["tally"]
    metrics.update(
        {
            "client.locate_us": budget.dur("client.locate"),
            "client.rpc_whois_us": budget.dur("rpc.whois"),
            "client.rpc_iagent_us": budget.dur("rpc.iagent"),
            "client.wrapper_self_us": budget.self_us("client.locate"),
            "client.transport_self_us": budget.self_us("rpc.whois", "rpc.iagent"),
            "wire.locate_codec_us": median_us(budget.codec_per_op),
            "wire.locate_bytes": tally["bytes"] / TRACED_OPS,
            "wire.json_locate_codec_us": tally["json_s"] / TRACED_OPS * 1e6,
            "server.dispatch_self_us": budget.self_us("server.dispatch"),
            "server.lhagent_whois_us": budget.dur("lhagent.op_whois"),
            "server.iagent_locate_us": budget.dur("iagent.op_locate"),
            "server.iagent_update_us": median_us(tally["update_s"]),
            "core.tree_lookup_us": budget.dur("core.tree_lookup"),
            "core.load_record_us": budget.dur("core.load_record"),
        }
    )
    # The latency budget: self times along the one blocking chain of a
    # locate. Two hops, so per-hop layers count twice.
    p50 = traced["p50_us"]
    rows = [
        ("service.client  wrapper (RTT, breaker, hedge, retry loop)", metrics["client.wrapper_self_us"]),
        ("service.client  transport, 2 hops (framing, sockets, loop)", 2 * metrics["client.transport_self_us"]),
        ("service.wire    codec, 8 calls", metrics["wire.locate_codec_us"]),
        ("service.server  dispatch, 2 hops", 2 * metrics["server.dispatch_self_us"]),
        ("service.server  LHAgent whois handler", budget.self_us("lhagent.op_whois")),
        ("service.server  IAgent locate handler", budget.self_us("iagent.op_locate")),
        ("core            HashTree.lookup", metrics["core.tree_lookup_us"]),
        ("core            LoadStatistics.record_query", metrics["core.load_record_us"]),
    ]
    accounted = sum(value for _, value in rows)
    metrics["trace.unaccounted_share"] = abs(p50 - accounted) / p50
    metrics["trace.overhead_share"] = (metrics["client.locate_us"] - p50) / p50
    lines.append(
        f"latency budget of one locate ({TRACED_OPS} traced ops at 1 worker; shares of the "
        f"untraced p50 on the same cluster, {p50:.1f} us over {REFERENCE_OPS} ops)"
    )
    for label, value in rows:
        lines.append(f"  {label:<60} {value:>9.2f} us  {value / p50:>6.1%}")
    lines.append(f"  {'sum of self times':<60} {accounted:>9.2f} us  {accounted / p50:>6.1%}")
    lines.append(
        f"  tracing overhead: traced client.locate median {metrics['client.locate_us']:.1f} us "
        f"vs untraced {p50:.1f} us ({metrics['trace.overhead_share']:+.1%})"
    )
    return env.oracle


async def move_probe(seed: int, out_dir: Path, metrics: Dict) -> Tuple[harness.Oracle, List[Dict]]:
    spec = one_worker("move-durable")
    with harness.scratch_dir(out_dir, "data-") as data_dir:
        async with harness.shaped_cluster(spec, seed, data_dir) as env:
            traced = await traced_pass(env, out_dir, spec.name, seed)
            await env.sweep()
            snapshots = []
            for endpoint in env.iagent_endpoints():
                start = clock()
                endpoint.store.snapshot(endpoint.durable_state())
                snapshots.append(clock() - start)
    budget: Budget = traced["budget"]
    metrics.update(
        {
            "client.update_us": budget.dur("client.update"),
            "wire.move_codec_us": median_us(budget.codec_per_op),
            "wire.move_bytes": traced["tally"]["bytes"] / TRACED_OPS,
            "server.iagent_update_durable_us": budget.dur("iagent.op_update", "iagent.op_register"),
            "storage.append_us": budget.dur("storage.append"),
            "jsonable.encode_record_us": budget.dur("jsonable.encode"),
            "storage.snapshot_ms": statistics.median(snapshots) * 1e3,
        }
    )
    return env.oracle, traced["tally"]["records"]


# ----------------------------------------------------------------------
# Probes that need no cluster
# ----------------------------------------------------------------------


def balanced_splits(leaves: int) -> Tuple[HashTree, List[Dict]]:
    """Grow a tree breadth-first by each leaf's first candidate, as a
    uniform population drives the mechanism. Returns it with the journal of
    its splits in the HAgent's own entry format."""
    namer = AgentNamer(seed=0xD1EC7)
    first = namer.next_id()
    tree = HashTree(first, width=namer.width)
    journal: List[Dict] = []
    queue = deque([first])
    while len(tree) < leaves:
        owner = queue.popleft()
        candidate = tree.split_candidates(owner)[0]
        new_owner = namer.next_id()
        tree.apply_split(candidate, new_owner)
        journal.append(
            {
                "op": "split",
                "kind": candidate.kind,
                "owner": owner,
                "bit": candidate.bit_position,
                "new_owner": new_owner,
                "new_node": "node-0",
                "version": tree.version,
            }
        )
        queue.extend((owner, new_owner))
    return tree, journal


def core_probes(metrics: Dict) -> None:
    root = AgentNamer(seed=97).next_id()
    namer = AgentNamer(seed=99)
    storm = harness.workload_named("rehash-storm")
    population = [namer.next_id() for _ in range(storm.population)]
    bits = [agent.bits for agent in population]

    # A secondary copy replays each journaled split and resolves one id:
    # the first lookup after a rehash pays the tree's recompile.
    tree, journal = balanced_splits(storm.storm_leaves)
    first = journal[0]["owner"]
    copy = HashFunctionCopy(0, HashTree(first, width=tree.width), {first: "node-0"})
    refreshes = []
    for entry in journal:
        start = clock()
        copy.apply_ops([entry])
        copy.resolve(population[0])
        refreshes.append(clock() - start)
    metrics["core.copy_refresh_us"] = median_us(refreshes)

    spec = tree.to_spec()
    cold = []
    for _ in range(5):
        fresh = HashTree.from_spec(spec)
        fresh.lookup(bits[0])  # compile outside the timed loop
        start = clock()
        for item in bits[1:]:
            fresh.lookup(item)
        cold.append((clock() - start) / (len(bits) - 1))
    metrics["core.tree_lookup_256_us"] = median_us(cold)

    mechanism = ServiceConfig().mechanism
    single = HashTree(root, width=root.width)
    loads = {root: {item: 1 for item in bits}}
    plans = []
    for _ in range(5):
        start = clock()
        planned = plan_split(single, root, loads, mechanism)
        plans.append(clock() - start)
    assert planned is not None
    metrics["core.plan_split_ms"] = statistics.median(plans) * 1e3

    # Extract and adopt on stand-alone endpoints: one 20000-record leaf
    # gives up the half the planned split re-routes.
    node = NodeServer("probe", ("127.0.0.1", 1))
    giver = IAgentEndpoint(root, node, "")
    for agent in population:
        giver.op_register({"agent": agent, "node": "node-0", "seq": 0})
    taker_id = AgentNamer(seed=98).next_id()
    single.apply_split(planned.candidate, taker_id)
    start = clock()
    moved = giver.op_extract({"pattern": single.hyper_label(root).pattern()})
    extract_s = clock() - start
    taker = IAgentEndpoint(taker_id, node, None)
    start = clock()
    taker.op_adopt({**moved, "pattern": single.hyper_label(taker_id).pattern()})
    adopt_s = clock() - start
    count = len(moved["records"])
    assert count and len(taker.records) == count
    metrics["server.extract_us_per_record"] = extract_s / count * 1e6
    metrics["server.adopt_us_per_record"] = adopt_s / count * 1e6


def storage_probes(out_dir: Path, records: List[Dict], metrics: Dict) -> None:
    """The workload's own ``put`` records appended at each fsync policy."""
    with harness.scratch_dir(out_dir, "wal-") as root:
        for policy, count in (("never", len(records)), ("interval", len(records)), ("always", 100)):
            store = DurableStore(root, policy, fsync=policy, snapshot_every=0)
            try:
                start = clock()
                for record in records[:count]:
                    store.log(record)
                cost = (clock() - start) / count * 1e6
                if policy == "never":
                    metrics["storage.wal_bytes_per_op"] = store.wal.size_bytes / count
                else:
                    metrics[f"storage.append_{policy}_us"] = cost
            finally:
                store.close()


class _StubClient:
    """Answers from the generator's truth without touching a socket."""

    def __init__(self) -> None:
        self.channel = None
        self.truth: Dict[Any, Tuple[str, int]] = {}

    async def locate(self, agent: Any) -> str:
        return self.truth[agent][0]


async def loadgen_probe(seed: int, metrics: Dict) -> None:
    """The generator alone: draw, execute against a stub, judge, record."""
    spec = one_worker("locate-seq")
    stub = _StubClient()
    cluster = SimpleNamespace(
        clients=[stub],
        nodes=[SimpleNamespace(name=f"node-{i}") for i in range(harness.NODES)],
        primary=lambda shard: None,
        merged_counters=lambda: SimpleNamespace(as_dict=dict),
    )
    env = harness.Env(spec, seed, cluster)
    stub.truth = env.oracle.truth
    for _ in range(spec.population):
        op = env.streams[0].spawn()
        env.oracle.truth[op.agent] = (op.node, op.seq)
    env.streams[0].bind_shared(list(env.oracle.truth))
    costs = []
    for _ in range(3):
        loop = harness.ClosedLoop(env)
        await loop.run_counted(20000)
        costs.append(loop.summary()["raw.cpu_us_per_op"])
    metrics["loadgen.overhead_us_per_op"] = statistics.median(costs)


# ----------------------------------------------------------------------
# The whole traced pass
# ----------------------------------------------------------------------

#: Metrics a workload run measures in itself, and the workload the
#: combined per-layer report takes each from.
FROM_WORKLOAD = {
    "storage.recover_ms": "move-durable",
    "storage.disk_bytes_per_record": "move-durable",
    "server.split_ms_round1": "rehash-storm",
    "server.split_ms_round8": "rehash-storm",
    "server.records_moved_per_split": "rehash-storm",
}
IN_EVERY_WORKLOAD = (
    "host.unit_ms",
    "loadgen.p99_ms",
    "loadgen.max_ms",
    "loadgen.steal_share",
    "client.bounces_per_op",
    "client.refreshes_per_op",
    "client.retries_per_op",
    "client.hedges_per_op",
)


async def run_layers(
    seed: int,
    window_s: float,
    out_dir: Path,
    in_situ: Optional[harness.Workload] = None,
    untraced: Optional[Dict[str, Dict]] = None,
) -> Dict:
    """Every per-layer metric.

    ``untraced`` hands over workload runs already made in this invocation;
    otherwise one short repeat each of ``in_situ`` (the workload whose
    tails and client counters are wanted), move-durable and rehash-storm
    is run here for the numbers only a live workload can give.
    """
    runs = dict(untraced or {})
    lines: List[str] = []
    wanted = [in_situ.name if in_situ else "locate-pipelined", *FROM_WORKLOAD.values()]
    for name in dict.fromkeys(wanted):
        if name not in runs:
            runs[name] = await harness.run_workload(
                harness.workload_named(name), seed, window_s, out_dir, repeats=1
            )
            lines.append(
                f"in-situ repeat of {name}: {runs[name]['attempted']} answers checked, "
                f"{runs[name]['failed']} failed or wrong"
            )
    metrics: Dict[str, float] = {
        name: runs[wanted[0]]["metrics"][name] for name in IN_EVERY_WORKLOAD
    }
    for name, source in FROM_WORKLOAD.items():
        metrics[name] = runs[source]["metrics"][name]

    oracles = [await locate_probe(seed, out_dir, metrics, lines)]
    oracle, records = await move_probe(seed, out_dir, metrics)
    oracles.append(oracle)
    core_probes(metrics)
    storage_probes(out_dir, records, metrics)
    await loadgen_probe(seed, metrics)

    probes = {
        "workload": "layer-probes",
        "attempted": sum(o.attempted for o in oracles),
        "failed": sum(o.bad for o in oracles),
    }
    lines.append(
        f"traced passes: {probes['attempted']} answers checked, {probes['failed']} failed or wrong; "
        f"spans in {out_dir}/trace-*.json"
    )
    return {
        "lines": lines,
        "metrics": metrics,
        "in_situ_from": wanted[0],
        "runs": [*runs.values(), probes],
    }
