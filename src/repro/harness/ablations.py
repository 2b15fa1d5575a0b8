"""The extension ablations: ABL-S, ABL-P and ABL-F setups.

These three experiments need more than a scenario grid -- a skewed id
population, a locality-driven itinerary with the placement policy, and
scheduled fault injection -- so their wiring lives here; their rows in
:mod:`repro.harness.experiments` run it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.harness.executor import Executor, RunSpec
from repro.harness.sweeps import replicate
from repro.metrics.summary import confidence_interval, mean
from repro.platform.failures import FailureInjector
from repro.platform.naming import SkewedNamer
from repro.workloads.mobility import ConstantResidence, LocalityItinerary
from repro.workloads.scenarios import Scenario, exp1_scenario

__all__ = [
    "split_policy_results",
    "placement_results",
    "failover_results",
]

#: Prefix shared by the skewed portion of the ABL-S population. Six
#: constrained bits force simple splits to burrow deep before they can
#: divide the hot crowd; complex splits exploit the skipped bits instead.
SKEW_PREFIX = "011010"
SKEW_FRACTION = 0.85


# ----------------------------------------------------------------------
# ABL-S: split-policy ablation
# ----------------------------------------------------------------------

def _oscillation_run(seed: int, config_overrides: Dict, quick: bool) -> Dict:
    """One grow / shrink / regrow cycle under a skewed-id population.

    Multi-bit labels -- the raw material of complex split -- are born
    when merges concatenate labels, so the policies only diverge on
    workloads whose IAgent population contracts and re-expands. The run
    measures the regrow phase: how fast and how deep the tree re-splits.
    """
    from repro.core.mechanism import HashLocationMechanism
    from repro.platform.naming import AgentNamer
    from repro.platform.random import RandomStreams
    from repro.platform.runtime import AgentRuntime
    from repro.platform.simulator import Simulator
    from repro.workloads.population import spawn_population
    from repro.workloads.queries import QueryWorkload
    from repro.workloads.scenarios import Scenario

    scale = 0.5 if quick else 1.0
    sim = Simulator()
    runtime = AgentRuntime(
        sim=sim,
        streams=RandomStreams(seed=seed),
        namer=SkewedNamer(seed=seed, prefix=SKEW_PREFIX, skew=SKEW_FRACTION),
    )
    runtime.create_nodes(8)
    config = Scenario(name="osc").config.with_overrides(
        t_max=30.0, t_min=6.0, merge_patience=2, cooldown=0.5, **config_overrides
    )
    location = HashLocationMechanism(config)
    runtime.install_location_mechanism(location)

    residence = ConstantResidence(0.2)
    first_wave = spawn_population(runtime, 80, residence)
    sim.run(until=sim.now + 8.0 * scale)  # grow: splits build a deep tree

    def retire(agents):
        for agent in agents:
            if agent.alive:
                yield from agent.die()

    sim.spawn(retire(first_wave[8:]), name="retire-wave")
    sim.run(until=sim.now + 12.0 * scale)  # shrink: cascading merges

    second_wave = spawn_population(runtime, 70, residence)
    targets = [a.agent_id for a in first_wave[:8] + second_wave]
    sim.run(until=sim.now + 2.0 * scale)  # regrow begins

    workload = QueryWorkload(
        runtime,
        targets=targets,
        total_queries=60 if quick else 150,
        clients=4,
        think_time=0.05,
    )
    deadline = sim.now + 120.0
    while not workload.done and sim.now < deadline:
        sim.run(until=sim.now + 0.25)

    tree_stats = location.hagent.tree.statistics()
    samples = workload.location_times()
    return {
        "mean_ms": 1000.0 * mean(samples) if samples else float("nan"),
        "iagents": location.iagent_count,
        "splits": location.hagent.splits,
        "merges": location.hagent.merges,
        "complex_splits": sum(
            1
            for event in location.hagent.rehash_log
            if event.get("event") == "split" and event.get("kind") == "complex"
        ),
        "max_depth": tree_stats["max_consumed"],
    }


def split_policy_results(
    seeds: Sequence[int] = (1, 2, 3), quick: bool = False
) -> List[Dict]:
    """Run the three split policies through the oscillation workload.

    The headline metric (besides location time) is the consumed prefix
    width of the final tree: complex split's stated purpose is "more
    balanced hash trees, or in other words using shorter prefixes".
    """
    variants = [
        ("simple-only", {"enable_complex_split": False}),
        ("complex(leaf)", {"enable_complex_split": True, "complex_split_scope": "leaf"}),
        ("complex(path)", {"enable_complex_split": True, "complex_split_scope": "path"}),
    ]
    rows = []
    for label, config_overrides in variants:
        runs = [_oscillation_run(seed, config_overrides, quick) for seed in seeds]
        means = [run["mean_ms"] for run in runs]
        rows.append(
            {
                "policy": label,
                "mean_ms": mean(means),
                "ci95_ms": confidence_interval(means),
                "iagents": mean([run["iagents"] for run in runs]),
                "splits": mean([run["splits"] for run in runs]),
                "merges": mean([run["merges"] for run in runs]),
                "complex_splits": mean([run["complex_splits"] for run in runs]),
                "max_depth": mean([run["max_depth"] for run in runs]),
            }
        )
    return rows


# ----------------------------------------------------------------------
# ABL-P: placement extension
# ----------------------------------------------------------------------

#: The remote cluster of the ABL-P topology.
PLACEMENT_CLUSTER = ("node-6", "node-7")


def _campus_topology(runtime) -> None:
    """Two sites: nodes 0-5 (main) and 6-7 (remote cluster), joined by a
    25 ms WAN link; sub-millisecond LAN latency within each site."""
    from repro.platform.topologies import two_site

    two_site(runtime, remote_nodes=PLACEMENT_CLUSTER)


def _placement_scenario(seed: int, enable: bool, quick: bool) -> Scenario:
    scenario = Scenario(
        name=f"placement-{'on' if enable else 'off'}",
        num_nodes=8,
        num_agents=40,
        residence=ConstantResidence(0.4),
        # Agents roam almost exclusively inside the remote cluster, and
        # the measuring clients sit there too; without placement every
        # query and update crosses the WAN to wherever IAgents spawned.
        itinerary=LocalityItinerary(list(PLACEMENT_CLUSTER), stickiness=0.95),
        network_setup=_campus_topology,
        client_nodes=PLACEMENT_CLUSTER,
        seed=seed,
    )
    if quick:
        scenario = scenario.with_overrides(total_queries=60, warmup=2.5)
    return scenario.with_overrides(
        config=scenario.config.with_overrides(
            enable_placement=enable, placement_interval=1.0
        )
    )


def placement_results(
    seeds: Sequence[int] = (1, 2, 3),
    quick: bool = False,
    executor: Optional[Executor] = None,
) -> List[Dict]:
    rows = []
    for label, enable in (("placement off", False), ("placement on", True)):
        # The scenario only varies by seed; replicate (and therefore
        # the executor's pool/cache) handles the per-seed fan-out.
        point = replicate(
            _placement_scenario(seeds[0], enable, quick),
            "hash",
            seeds=seeds,
            executor=executor,
        )
        rows.append(
            {
                "variant": label,
                "mean_ms": point.mean_ms,
                "ci95_ms": point.ci95_ms,
            }
        )
    return rows


# ----------------------------------------------------------------------
# ABL-F: HAgent failover
# ----------------------------------------------------------------------

def _failover_scenario(seed: int, backup: bool, quick: bool) -> Scenario:
    scenario = exp1_scenario(40, seed=seed)
    if quick:
        scenario = scenario.with_overrides(total_queries=60, warmup=2.0)
    return scenario.with_overrides(
        config=scenario.config.with_overrides(
            enable_backup_hagent=backup,
            # Keep outage stalls visible but bounded.
            rpc_timeout=1.0,
            hagent_failover_timeout=0.3,
        )
    )


def failover_results(
    seeds: Sequence[int] = (1, 2, 3),
    quick: bool = False,
    executor: Optional[Executor] = None,
) -> List[Dict]:
    """Crash the HAgent mid-measurement, with and without the backup.

    At the crash instant every LHAgent's secondary copy is also dropped,
    modelling nodes (re)joining during the outage with cold caches --
    the situation where the paper's "vulnerability point" bites: every
    subsequent query needs a primary-copy read before it can resolve its
    IAgent. Without the backup those reads time out and locates fail;
    with it they are served by the standby.

    The injection hooks are per-run closures, so these cells take the
    executor's serial/uncached fallback path by design.
    """
    engine = executor if executor is not None else Executor(jobs=1)
    rows = []
    for label, backup in (("no backup", False), ("primary/backup", True)):
        specs = []
        for seed in seeds:
            scenario = _failover_scenario(seed, backup, quick)
            crash_at = scenario.warmup + 0.5

            def inject(runtime, crash_at=crash_at) -> None:
                injector = FailureInjector(runtime)
                injector.schedule_agent_crash(
                    runtime.location.hagent, at=crash_at, recover_after=None
                )
                runtime.sim.schedule(crash_at, _drop_secondary_copies, runtime)

            specs.append(
                RunSpec(
                    scenario=scenario,
                    mechanism="hash",
                    seed=seed,
                    before_run=inject,
                )
            )
        runs = engine.run(specs)
        means = [run.mean_location_ms for run in runs]
        failures = [run.metrics.failed_locates for run in runs]
        rows.append(
            {
                "variant": label,
                "mean_ms": mean(means),
                "ci95_ms": confidence_interval(means),
                "failed_locates": mean(failures),
            }
        )
    return rows


def _drop_secondary_copies(runtime) -> None:
    """Cold-cache every LHAgent (nodes rejoining during the outage)."""
    for lhagent in runtime.location.lhagents.values():
        lhagent.copy = None
