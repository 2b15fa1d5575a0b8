"""Run one scenario under one mechanism and collect the metrics.

``run_experiment`` is the single entry point every benchmark, example
and integration test goes through: it builds a fresh simulated
deployment from the scenario's seed, installs the requested location
mechanism, spawns the TAgent population and the query workload, advances
simulated time until the query quota completes, and returns a
:class:`RunResult` with the collected measurements.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Optional

from repro.baselines.centralized import CentralizedMechanism
from repro.baselines.chord import ChordMechanism
from repro.baselines.flooding import FloodingMechanism
from repro.baselines.forwarding import ForwardingPointersMechanism
from repro.baselines.home_registry import HomeRegistryMechanism
from repro.core.mechanism import HashLocationMechanism
from repro.metrics.collectors import MetricsCollector
from repro.metrics.summary import Summary
from repro.platform.events import Timeout
from repro.platform.naming import AgentNamer
from repro.platform.random import RandomStreams
from repro.platform.runtime import AgentRuntime
from repro.platform.simulator import Simulator
from repro.workloads.population import spawn_population
from repro.workloads.queries import QueryWorkload
from repro.workloads.scenarios import Scenario

__all__ = ["MECHANISM_FACTORIES", "RunResult", "build_mechanism", "run_experiment"]

#: name -> factory(config) for every mechanism under test.
MECHANISM_FACTORIES: Dict[str, Callable] = {
    "hash": lambda config: HashLocationMechanism(config),
    "centralized": lambda config: CentralizedMechanism(config),
    "forwarding": lambda config: ForwardingPointersMechanism(config),
    "home-registry": lambda config: HomeRegistryMechanism(config),
    "chord": lambda config: ChordMechanism(config),
    "flooding": lambda config: FloodingMechanism(config),
}


def build_mechanism(name: str, config):
    """Instantiate a mechanism by registry name."""
    factory = MECHANISM_FACTORIES.get(name)
    if factory is None:
        raise KeyError(
            f"unknown mechanism {name!r}; known: {sorted(MECHANISM_FACTORIES)}"
        )
    return factory(config)


@dataclass
class RunResult:
    """The outcome of one experiment run."""

    scenario: Scenario
    mechanism: str
    metrics: MetricsCollector
    #: The live runtime, kept for white-box inspection by tests.
    runtime: AgentRuntime = field(repr=False, default=None)

    @property
    def location_summary_ms(self) -> Summary:
        return self.metrics.location_summary()

    @property
    def mean_location_ms(self) -> float:
        # A saturated or faulted run can finish with zero completed
        # locates; report nan instead of raising from deep inside a
        # figure build.
        if not self.metrics.location_times:
            warnings.warn(
                f"run {self.scenario.name} [{self.mechanism}] recorded no "
                "location samples; reporting nan",
                RuntimeWarning,
                stacklevel=2,
            )
            return float("nan")
        return self.location_summary_ms.mean

    def describe(self) -> str:
        summary = self.location_summary_ms
        extras = ""
        if self.mechanism == "hash":
            extras = (
                f" iagents={self.metrics.final_iagents:.0f}"
                f" splits={self.metrics.splits} merges={self.metrics.merges}"
            )
        return (
            f"{self.scenario.name} [{self.mechanism}] "
            f"mean={summary.mean:.1f}ms p95={summary.p95:.1f}ms "
            f"n={summary.count}{extras}"
        )


def run_experiment(
    scenario: Scenario,
    mechanism: str = "hash",
    mechanism_factory: Optional[Callable] = None,
    keep_runtime: bool = False,
    before_run: Optional[Callable[[AgentRuntime], None]] = None,
    namer_factory: Optional[Callable[[int], AgentNamer]] = None,
) -> RunResult:
    """Execute ``scenario`` under ``mechanism`` and collect the metrics.

    Parameters
    ----------
    mechanism_factory:
        Overrides the registry; receives the scenario's config and must
        return a LocationMechanism (used by ablations with non-default
        mechanism arguments).
    keep_runtime:
        Attach the runtime to the result for white-box assertions.
    before_run:
        Hook called after setup, before time advances -- fault-injection
        experiments use it to schedule crashes.
    namer_factory:
        Builds the agent-id generator from the seed; the split-policy
        ablation injects a skewed namer here.
    """
    streams = RandomStreams(seed=scenario.seed)
    sim = Simulator()
    namer = (
        namer_factory(scenario.seed)
        if namer_factory is not None
        else AgentNamer(seed=scenario.seed)
    )
    runtime = AgentRuntime(sim=sim, streams=streams, namer=namer)
    runtime.create_nodes(scenario.num_nodes)
    if scenario.network_setup is not None:
        scenario.network_setup(runtime)

    factory = mechanism_factory or (lambda config: build_mechanism(mechanism, config))
    location = factory(scenario.config)
    runtime.install_location_mechanism(location)

    agents = spawn_population(
        runtime,
        scenario.num_agents,
        scenario.residence,
        itinerary=scenario.itinerary,
        stagger=min(0.01, scenario.residence.mean() / max(scenario.num_agents, 1)),
    )
    target_weights = (
        scenario.target_weights_fn(len(agents))
        if scenario.target_weights_fn is not None
        else None
    )
    workload = QueryWorkload(
        runtime,
        targets=[agent.agent_id for agent in agents],
        total_queries=scenario.total_queries,
        clients=scenario.query_clients,
        think_time=scenario.think_time,
        warmup=scenario.warmup,
        client_nodes=scenario.client_nodes,
        target_weights=target_weights,
    )

    metrics = MetricsCollector(mechanism=getattr(location, "name", mechanism))
    if isinstance(location, HashLocationMechanism):
        sim.spawn(
            _sample_iagents(sim, location, metrics, interval=0.25),
            name="iagent-sampler",
        )

    if before_run is not None:
        before_run(runtime)

    # Advance time in slices until the query quota completes (or the
    # safety wall is hit -- a saturated mechanism must still terminate).
    slice_length = 0.25
    while not workload.done and sim.now < scenario.max_sim_time:
        sim.run(until=sim.now + slice_length)

    _collect(metrics, runtime, location, workload)
    return RunResult(
        scenario=scenario,
        mechanism=metrics.mechanism,
        metrics=metrics,
        runtime=runtime if keep_runtime else None,
    )


def _sample_iagents(
    sim: Simulator, location: HashLocationMechanism, metrics: MetricsCollector,
    interval: float,
) -> Generator:
    while True:
        metrics.iagent_series.record(sim.now, location.iagent_count)
        yield Timeout(interval)


def _collect(
    metrics: MetricsCollector,
    runtime: AgentRuntime,
    location,
    workload: QueryWorkload,
) -> None:
    metrics.location_times = workload.location_times()
    metrics.update_times = list(runtime.update_latencies)
    metrics.failed_locates = (
        sum(1 for result in workload.results if not result.found)
        + len(workload.errors)
    )
    counters = location.counters
    metrics.counters = {
        "registers": counters.registers,
        "updates": counters.updates,
        "locates": counters.locates,
        "locate_failures": counters.locate_failures,
        "retries": counters.retries,
        "refreshes": counters.refreshes,
    }
    metrics.counters.update(counters.extra)
    if isinstance(location, HashLocationMechanism) and location.hagent is not None:
        metrics.rehash_events = list(location.hagent.rehash_log)
        metrics.iagent_series.record(runtime.sim.now, location.iagent_count)
    metrics.messages_sent = runtime.network.messages_sent
    metrics.bytes_sent = runtime.network.bytes_sent
    metrics.sim_time = runtime.sim.now
    metrics.sim_events = runtime.sim.events_processed
