"""Command-line entry point: regenerate every table and figure.

Usage::

    python -m repro.harness.cli exp1            # Figure 7
    python -m repro.harness.cli exp2            # Figure 8
    python -m repro.harness.cli baselines       # ABL-B
    python -m repro.harness.cli thresholds      # ABL-T
    python -m repro.harness.cli split-policy    # ABL-S
    python -m repro.harness.cli placement       # ABL-P
    python -m repro.harness.cli failover        # ABL-F
    python -m repro.harness.cli overhead        # COST
    python -m repro.harness.cli heuristics      # ABL-H
    python -m repro.harness.cli granularity     # ABL-G
    python -m repro.harness.cli all             # every experiment above, once
    python -m repro.harness.cli report --out report.md

Each experiment command runs one row of
:data:`repro.harness.experiments.EXPERIMENTS` -- the definition its
benchmark runs -- and prints the row's title and table; ``report``
writes every row's table followed by its shape checks as markdown.

Besides the simulation experiments, two commands drive the *live*
service layer (:mod:`repro.service`) over real localhost sockets::

    python -m repro.harness.cli serve --nodes 5
    python -m repro.harness.cli cluster --nodes 5 --ops 200 --crash-iagent
    python -m repro cluster --nodes 5 --restart-iagent --data-dir /tmp/d

``serve`` boots an N-node cluster and parks until interrupted;
``cluster`` runs a verified register/locate/migrate workload against it
(optionally crashing an IAgent mid-run) and exits 0 only if every
locate succeeded and matched ground truth. With ``--data-dir`` every
authoritative mutation is journaled through :mod:`repro.storage`, and
``--restart-iagent`` warm-restarts the record-heaviest IAgent mid-run
from its on-disk snapshot + WAL (the run fails unless the whole shard
came back from disk within one re-registration interval). ``--fsync``
picks the WAL durability policy; ``--trace-jsonl PATH`` streams every
trace event to a JSON-lines file. These are excluded from ``all``,
which remains simulation-only.

Replication and chaos::

    python -m repro cluster --nodes 5 --replicas 3 --ops 200
    python -m repro cluster --nodes 5 --crash-hagent --json
    python -m repro cluster --nodes 5 --chaos 7 --chaos-duration 6
    python -m repro chaos --chaos 7 --chaos-duration 10

``--replicas`` runs hot-standby HAgents tailing the primary's rehash
journal; ``--crash-hagent`` kills the primary mid-run and the run only
passes if a standby promotes within one heartbeat timeout with every
locate still verified. ``--chaos SEED`` runs a seeded, deterministic
fault schedule (crashes, partitions, heals) alongside the live
workload; the ``chaos`` command replays the same schedule twice through
the simulator and exits 0 only if the runs are bit-identical.

Sharding::

    python -m repro cluster --nodes 5 --shards 4 --replicas 3

``--shards N`` prefix-partitions the coordinator tier: each top-level
id-prefix subtree gets its own primary HAgent with its own replica
set, journal and durable store, and node servers route per shard (see
``docs/PROTOCOLS.md`` §12). ``--shards 1`` (the default) is
byte-compatible with the unsharded protocol.

Hostile networks and churn::

    python -m repro cluster --nodes 5 --netem 7 --chaos-duration 6
    python -m repro cluster --nodes 6 --churn 5 --chaos-duration 6

``--netem SEED`` runs a seeded schedule of pure *wire-level* faults --
latency/jitter degradation, packet loss, slow-loris partial writes,
connection resets and asymmetric partitions -- through an in-process
transport shim wrapped around every live connection (see
``docs/PROTOCOLS.md`` §14). Clients survive it with adaptive
(Jacobson-style) timeouts, hedged reads and the retry loop inside each
op's deadline; every locate must still match ground truth and the
controller's fault-log digest is bit-identical for the same seed.
``--churn SEED`` runs a seeded node leave/join process that never
takes more than half the population down at once.

Load generation and capacity::

    python -m repro load --nodes 5 --agents 200 --clients 64 --duration 20
    python -m repro load --mode open --rate 800 --duration 10 --p99-budget 150
    python -m repro load --saturation --p99-budget 150 --rate-lo 100 --rate-hi 4000

``load`` drives a weighted locate/move/register/batch mix against the
live cluster through :mod:`repro.service.loadgen`: closed loop (``--clients``
looping workers) or open loop (seeded Poisson arrivals at ``--rate``,
latency measured from each op's *scheduled* arrival so a backlog shows
up in the percentiles). Runs are seeded (``--seeds``) and replay the
same op sequences; the report carries p50/p95/p99/p999, error rate and
throughput, and the command exits 0 only if nothing failed and the p99
stayed inside ``--p99-budget``. ``--saturation`` binary-searches the
open-loop rate for the knee where the budget is first exceeded.

Discovery::

    python -m repro discover --nodes 5 --shards 2 --agents 32 --queries 24
    python -m repro load --mix locate=0.5,move=0.2,similar=0.2,capability=0.1

``discover`` runs the verified discovery drill: a live cluster serves
Hamming-similarity (``--d`` radius) and capability discovery queries
interleaved with locates and migrations, some through the batched
multi-result RPCs, and the command exits 0 only if **every** returned
result set matched the driver's brute-force ground truth. The ``load``
mix accepts ``similar=``/``capability=`` weights to blend discovery
queries into the capacity workloads.

Options: ``--seeds N`` replications (default 3), ``--quick`` shrinks the
workloads for a fast sanity pass, ``--chart`` adds an ASCII rendering
and ``--json PATH`` writes the series of a figure (``exp1``, ``exp2``,
``baselines``).
Execution: ``--jobs N`` fans the grid over N worker processes (default:
one per CPU; ``-j 1`` is the serial path), ``--no-cache`` disables the
content-addressed run cache, ``--cache-dir PATH`` relocates it (default
``.repro-cache/``), ``--progress`` prints one line per finished cell.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import TYPE_CHECKING, List, Sequence

from repro.harness.experiments import EXPERIMENTS, QUICK, Experiment

if TYPE_CHECKING:
    from repro.harness.executor import CellOutcome, Executor

__all__ = ["main"]


def _seeds(count: int) -> Sequence[int]:
    return tuple(range(1, count + 1))


def _progress_line(outcome: CellOutcome, done: int, total: int) -> None:
    how = "cache" if outcome.cached else ("pool" if outcome.parallel else "run")
    timing = "" if outcome.cached else f" {outcome.elapsed_s:.2f}s"
    print(f"  [{done}/{total}] {outcome.spec.label()} ({how}{timing})")


def _executor(args) -> Executor:
    """The engine every experiment routes its cells through."""
    from repro.harness.executor import Executor

    cache = None
    if not getattr(args, "no_cache", False):
        from repro.harness.cache import RunCache

        cache = RunCache(root=getattr(args, "cache_dir", ".repro-cache"))
    progress = _progress_line if getattr(args, "progress", False) else None
    return Executor(
        jobs=getattr(args, "jobs", None), cache=cache, progress=progress
    )


def cmd_experiment(row: Experiment, args) -> None:
    """Run one experiment row; print its title and table, plus the
    ``--chart`` rendering and the ``--json`` series file of a figure."""
    executor = _executor(args)
    result = row.run(_seeds(args.seeds), args.quick, executor)
    print(row.title)
    print(row.table(result))
    if row.series and args.chart:
        from repro.harness.tables import ascii_chart

        print(ascii_chart(result))
    if row.series and args.json:
        from repro.harness.export import sweep_to_dict, write_json

        document = sweep_to_dict(
            result, seeds=_seeds(args.seeds), settings=executor.stats.as_dict()
        )
        print(f"[{row.name}] series written to {write_json(document, args.json)}")


def cmd_report(args) -> None:
    """Run every experiment row; write its tables and checks as markdown."""
    from repro.harness.report import generate_report

    report = generate_report(
        seeds=_seeds(args.seeds), quick=args.quick, executor=_executor(args)
    )
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(report)
        print(f"report written to {args.out}")
    else:
        print(report)


def _emit_json(path, document, *, sort_keys: bool = True, noun: str = "report") -> None:
    """``--json``: nothing when ``path`` is ``None``, ``document`` as
    indented JSON on stdout when it is empty, else written to ``path``."""
    if path is None:
        return
    import json

    payload = json.dumps(document, indent=2, sort_keys=sort_keys)
    if path:
        from pathlib import Path

        Path(path).write_text(payload)
        print(f"{noun} written to {path}")
    else:
        print(payload)


def _cluster_config(args):
    from repro.service.cluster import ClusterConfig
    from repro.service.server import ServiceConfig

    data_dir = getattr(args, "data_dir", None)
    if getattr(args, "restart_iagent", False) and data_dir is None:
        # Warm restart needs somewhere to keep the WAL + snapshots; be
        # forgiving and provision a scratch directory on the fly.
        import tempfile

        data_dir = tempfile.mkdtemp(prefix="repro-cluster-")
        print(f"--restart-iagent without --data-dir: durable state in {data_dir}")
    replicas = getattr(args, "replicas", 1)
    crash_hagent = getattr(args, "crash_hagent", False)
    chaos_seed = getattr(args, "chaos", None)
    if crash_hagent or chaos_seed is not None:
        # A mid-run primary kill (explicit or from a chaos schedule)
        # needs standbys to promote; quietly provision a sensible quorum.
        replicas = max(replicas, 3)
    return ClusterConfig(
        nodes=args.nodes,
        agents=args.agents,
        ops=args.ops,
        seed=args.seeds,
        shards=getattr(args, "shards", 1),
        crash_iagent=getattr(args, "crash_iagent", False),
        restart_iagent=getattr(args, "restart_iagent", False),
        hagent_replicas=replicas,
        crash_hagent=crash_hagent,
        chaos_seed=chaos_seed,
        chaos_duration=getattr(args, "chaos_duration", None) or 6.0,
        netem_seed=getattr(args, "netem", None),
        churn_seed=getattr(args, "churn", None),
        service=ServiceConfig(
            data_dir=data_dir,
            fsync=getattr(args, "fsync", "interval"),
        ),
        trace_jsonl=getattr(args, "trace_jsonl", None),
    )


def cmd_serve(args) -> int:
    """Boot a live localhost cluster and park until interrupted."""
    import asyncio

    from repro.service.cluster import serve_cluster

    try:
        asyncio.run(serve_cluster(_cluster_config(args)))
    except KeyboardInterrupt:
        print("stopped")
    return 0


def cmd_cluster(args) -> int:
    """Run the verified live-cluster workload; exit 0 only on PASS."""
    import asyncio

    from repro.service.cluster import run_cluster

    report = asyncio.run(run_cluster(_cluster_config(args)))
    print(report.render())
    _emit_json(args.json, report.to_dict(), sort_keys=False)
    return 0 if report.passed else 1


def cmd_chaos(args) -> int:
    """Seeded chaos schedule in the simulator, replayed twice.

    Generates a :class:`~repro.platform.chaos.ChaosSchedule`, runs the
    same scenario through the simulator twice with the schedule applied
    via :class:`~repro.platform.failures.FailureInjector`, and exits 0
    only if the two runs are bit-identical (same fault log, same
    metrics) -- the determinism the live ``--chaos`` flag relies on.
    """
    from repro.harness.experiment import run_experiment
    from repro.platform.chaos import ChaosSchedule
    from repro.platform.failures import FailureInjector
    from repro.workloads.scenarios import exp1_scenario

    seed = args.chaos if args.chaos is not None else 1
    scenario = exp1_scenario(30, **QUICK)
    # The quick scenario simulates ~3s; default the schedule to fit
    # inside it so every fault actually fires.
    duration = args.chaos_duration if args.chaos_duration is not None else 3.0
    schedule = ChaosSchedule.generate(
        seed,
        duration,
        nodes=[f"node-{i}" for i in range(scenario.num_nodes)],
    )
    print(schedule.describe())
    print(f"digest {schedule.digest()}")
    outcomes = []
    for attempt in (1, 2):
        injectors = []

        def inject(runtime) -> None:
            injector = FailureInjector(runtime)
            injectors.append(injector)
            injector.apply_schedule(schedule)

        result = run_experiment(scenario, "hash", before_run=inject)
        outcomes.append(
            {
                "fault_log": injectors[0].log,
                "mean_ms": result.mean_location_ms,
                "messages": result.metrics.messages_sent,
                "failed_locates": result.metrics.failed_locates,
            }
        )
        print(
            f"run {attempt}: {len(injectors[0].log)} faults applied, "
            f"mean {result.mean_location_ms:.3f}ms, "
            f"{result.metrics.messages_sent} messages, "
            f"{result.metrics.failed_locates} failed locates"
        )
    identical = outcomes[0] == outcomes[1]
    applied = len(outcomes[0]["fault_log"])
    print(f"replay: {'bit-identical' if identical else 'DIVERGED'}")
    if applied == 0:
        print("no faults fired inside the simulated horizon -- vacuous run")
    return 0 if identical and applied > 0 else 1


def cmd_load(args) -> int:
    """Drive a load-generation run (or saturation search) live.

    Exits 0 only if the run passed: every op succeeded, nothing was
    abandoned in the drain window, and the measured p99 stayed inside
    ``--p99-budget`` when one was given.
    """
    import asyncio

    from repro.service.loadgen import (
        LoadConfig,
        OpMix,
        run_load,
        saturation_search,
    )

    cluster_config = _cluster_config(args)
    mix = OpMix.parse(args.mix) if args.mix else OpMix()
    load = LoadConfig(
        mode=args.mode,
        clients=args.clients,
        rate=args.rate,
        duration_s=args.duration,
        warmup_s=args.warmup,
        drain_s=args.drain,
        ops_per_client=args.ops_per_client,
        population=args.agents,
        mix=mix,
        seed=args.seeds,
        p99_budget_ms=args.p99_budget,
    )

    if args.saturation:
        budget = args.p99_budget if args.p99_budget is not None else 150.0
        result = asyncio.run(
            saturation_search(
                cluster_config,
                load,
                budget_p99_ms=budget,
                rate_lo=args.rate_lo,
                rate_hi=args.rate_hi,
                probes=args.probes,
            )
        )
        for probe in result["probes"]:
            verdict = "ok" if probe["ok"] else "over budget"
            print(
                f"  probe @ {probe['rate']:8.1f} ops/s: "
                f"p99 {probe['p99_ms']:.2f} ms, "
                f"{probe['throughput_ops_s']:.1f} ops/s measured ({verdict})"
            )
        if result["knee_rate"] is None:
            print(f"saturated below the search floor ({args.rate_lo:g} ops/s)")
        else:
            latency = result["latency"]
            print(
                f"saturation knee: {result['knee_rate']:g} ops/s within "
                f"p99 <= {budget:g} ms "
                f"(p50 {latency['p50_ms']:.2f} / p99 {latency['p99_ms']:.2f} ms)"
            )
        _emit_json(args.json, result, noun="result")
        return 0 if result["knee_rate"] is not None else 1

    report = asyncio.run(run_load(cluster_config, load))
    print(report.render())
    _emit_json(args.json, report.to_dict())
    return 0 if report.passed else 1


def cmd_discover(args) -> int:
    """Run the verified live discovery drill; exit 0 only on PASS.

    Boots a cluster, registers ``--agents`` agents whose capability
    sets cycle the palette, interleaves ``--ops`` locate/migrate ops
    with ``--queries`` similarity (radius ``--d``) and capability
    discovery queries -- some through the batched multi-result RPCs --
    and verifies every returned result set against the driver's own
    ground truth.
    """
    import asyncio

    from repro.discovery.drill import (
        DiscoveryDrillConfig,
        run_discovery_drill,
    )

    config = DiscoveryDrillConfig(
        cluster=_cluster_config(args),
        agents=args.agents,
        queries=args.queries,
        ops=args.ops,
        d=args.d,
        seed=args.seeds,
    )
    report = asyncio.run(run_discovery_drill(config))
    print(report.render())
    _emit_json(args.json, report.to_dict())
    return 0 if report.passed else 1


#: Live-service commands: separate from COMMANDS so ``all`` (which
#: regenerates the paper's simulation results) never boots sockets.
SERVICE_COMMANDS = {
    "serve": cmd_serve,
    "cluster": cmd_cluster,
    "chaos": cmd_chaos,
    "load": cmd_load,
    "discover": cmd_discover,
}


#: The report, then one command per experiment row.
COMMANDS = {
    "report": cmd_report,
    **{row.name: partial(cmd_experiment, row) for row in EXPERIMENTS},
}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures and the extension ablations.",
    )
    parser.add_argument(
        "command",
        choices=list(COMMANDS) + list(SERVICE_COMMANDS) + ["all"],
        help="which experiment to run",
    )
    parser.add_argument("--seeds", type=int, default=3, help="replications per point")
    parser.add_argument("--quick", action="store_true", help="shrunken quick pass")
    parser.add_argument("--chart", action="store_true", help="ASCII chart output")
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep cells (default: one per CPU; "
        "1 = serial in-process)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed run cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=".repro-cache",
        help="run-cache directory (default: .repro-cache/)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per finished sweep cell",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        nargs="?",
        const="",
        default=None,
        help="also emit JSON: a series file for exp1/exp2/baselines, the "
        "run report for cluster (bare --json prints to stdout)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="output file for the report command",
    )
    service = parser.add_argument_group("live service (serve / cluster)")
    service.add_argument(
        "--nodes", type=int, default=5, help="nodes in the live cluster"
    )
    service.add_argument(
        "--agents", type=int, default=20, help="initial mobile-agent population"
    )
    service.add_argument(
        "--ops", type=int, default=200, help="workload operations to drive"
    )
    service.add_argument(
        "--crash-iagent",
        action="store_true",
        help="kill the record-heaviest IAgent half way through the run",
    )
    service.add_argument(
        "--restart-iagent",
        action="store_true",
        help="kill the record-heaviest IAgent half way through the run, "
        "then warm-restart it in place from its WAL + snapshots",
    )
    service.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="N",
        help="HAgent replicas (rank 0 primary + hot standbys; default 1)",
    )
    service.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="prefix-partition the coordinator tier into N shards "
        "(power of two; each shard gets its own HAgent replica set)",
    )
    service.add_argument(
        "--crash-hagent",
        action="store_true",
        help="kill the primary HAgent half way through the run; a "
        "standby must promote within one heartbeat timeout "
        "(implies --replicas >= 3)",
    )
    service.add_argument(
        "--chaos",
        type=int,
        default=None,
        metavar="SEED",
        help="run the seeded chaos schedule alongside the live workload "
        "(cluster), or replay it twice in the simulator (chaos)",
    )
    service.add_argument(
        "--chaos-duration",
        type=float,
        default=None,
        metavar="S",
        help="chaos schedule length in seconds, settle tail included "
        "(default: 6 for the live cluster, 3 for the simulator)",
    )
    service.add_argument(
        "--netem",
        type=int,
        default=None,
        metavar="SEED",
        help="run a seeded hostile-network schedule (latency/jitter, "
        "loss, slow-loris writes, resets, asymmetric partitions) over "
        "the live cluster's wires; same seed -> bit-identical fault log "
        "(shares --chaos-duration)",
    )
    service.add_argument(
        "--churn",
        type=int,
        default=None,
        metavar="SEED",
        help="run a seeded node join/leave churn process alongside the "
        "live workload (shares --chaos-duration)",
    )
    service.add_argument(
        "--data-dir",
        metavar="PATH",
        default=None,
        help="root directory for durable state (enables WAL + snapshots)",
    )
    service.add_argument(
        "--fsync",
        choices=["always", "interval", "never"],
        default="interval",
        help="WAL fsync policy when --data-dir is set (default: interval)",
    )
    service.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        default=None,
        help="stream protocol trace events to PATH as JSON lines",
    )
    loadgen = parser.add_argument_group("load generator (load)")
    loadgen.add_argument(
        "--mode",
        choices=["closed", "open"],
        default="closed",
        help="closed loop (N looping clients) or open loop (Poisson "
        "arrivals at --rate, coordinated-omission corrected)",
    )
    loadgen.add_argument(
        "--clients",
        type=int,
        default=64,
        metavar="N",
        help="concurrent closed-loop clients (default 64)",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=500.0,
        metavar="OPS",
        help="open-loop arrival rate in ops/sec (default 500)",
    )
    loadgen.add_argument(
        "--duration",
        type=float,
        default=10.0,
        metavar="S",
        help="measure-phase length in seconds (default 10)",
    )
    loadgen.add_argument(
        "--warmup",
        type=float,
        default=2.0,
        metavar="S",
        help="unrecorded warmup before the measure phase (default 2)",
    )
    loadgen.add_argument(
        "--drain",
        type=float,
        default=2.0,
        metavar="S",
        help="grace window for in-flight ops after the measure phase",
    )
    loadgen.add_argument(
        "--ops-per-client",
        type=int,
        default=None,
        metavar="N",
        help="closed loop: stop each client after exactly N measured ops "
        "instead of at --duration (deterministic op sequences)",
    )
    loadgen.add_argument(
        "--mix",
        metavar="SPEC",
        default=None,
        help="op mix weights, e.g. locate=0.6,move=0.25,register=0.1,"
        "batch=0.05 (the default mix); similar=W and capability=W add "
        "multi-result discovery queries to the mix",
    )
    discovery = parser.add_argument_group("discovery drill (discover)")
    discovery.add_argument(
        "--queries",
        type=int,
        default=20,
        metavar="N",
        help="discovery queries to issue and verify (default 20)",
    )
    discovery.add_argument(
        "--d",
        type=int,
        default=2,
        metavar="D",
        help="Hamming radius of the similarity queries (default 2)",
    )
    loadgen.add_argument(
        "--p99-budget",
        type=float,
        default=None,
        metavar="MS",
        help="fail the run if the measured p99 exceeds this many ms "
        "(saturation search default: 150)",
    )
    loadgen.add_argument(
        "--saturation",
        action="store_true",
        help="binary-search the open-loop rate for the saturation knee "
        "(highest rate with no errors and p99 within --p99-budget)",
    )
    loadgen.add_argument(
        "--rate-lo",
        type=float,
        default=100.0,
        metavar="OPS",
        help="saturation search floor (default 100 ops/s)",
    )
    loadgen.add_argument(
        "--rate-hi",
        type=float,
        default=4000.0,
        metavar="OPS",
        help="saturation search ceiling (default 4000 ops/s)",
    )
    loadgen.add_argument(
        "--probes",
        type=int,
        default=6,
        metavar="N",
        help="saturation search probes, fresh cluster each (default 6)",
    )
    args = parser.parse_args(argv)

    if args.command == "all":
        for row in EXPERIMENTS:
            print(f"\n===== {row.name} =====")
            cmd_experiment(row, args)
    elif args.command in SERVICE_COMMANDS:
        return SERVICE_COMMANDS[args.command](args)
    else:
        COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
