"""The simulator experiments, one row each: the CLI, the report and the
benchmark suite all run this table.

A row (:class:`Experiment`) is the whole definition of one experiment:
how to ``run`` it (``run(seeds, quick, executor)``, with what ``quick``
shrinks declared there once), how to show the result as table
``cells``, and the ``checks`` that judge its shape -- each a label and
a boolean. ``python -m repro.harness.cli <name>`` prints the row's title
and table, ``cli report`` prints every row's table and checks, and the
row's benchmark (``benchmarks/bench_*.py``) prints the table and asserts
every check. EXPERIMENTS.md's numbers are the benchmarks' output at
``--repro-seeds 3``, so every command prints them too.

The paper judges its mechanism by the *shape* of Figures 7 and 8 --
who wins, by roughly what factor -- and so do the checks: our substrate
is a simulator, not the authors' Sun Blade LAN (DESIGN.md §2).
Importing this module loads no simulator; each ``run`` imports its own
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.tables import Cells, format_table, series_cells
from repro.metrics.summary import mean
from repro.workloads.mobility import ConstantResidence
from repro.workloads.scenarios import (
    EXP1_AGENT_COUNTS,
    EXP2_RESIDENCE_TIMES_MS,
    Scenario,
    exp1_scenario,
    exp2_scenario,
)

if TYPE_CHECKING:
    from repro.harness.executor import Executor
    from repro.harness.experiment import RunResult

__all__ = ["EXPERIMENTS", "Experiment", "QUICK", "experiment"]

#: What ``quick`` does to a paper-workload scenario: fewer queries and a
#: shorter warm-up (the ablation setups in :mod:`repro.harness.ablations`
#: shrink their own custom workloads).
QUICK = {"total_queries": 60, "warmup": 2.0}

Check = Tuple[str, bool]


@dataclass
class Experiment:
    """One simulator experiment: how to run it, show it and judge it."""

    #: The CLI command.
    name: str
    #: The line printed above the table.
    title: str
    #: The paper's claim (or the extension's expected shape) it checks.
    claim: str
    run: Callable[[Sequence[int], bool, Optional[Executor]], Any]
    cells: Callable[[Any], Cells]
    checks: Callable[[Any], List[Check]]
    #: The result is a figure's series (``{mechanism: [SweepPoint]}``),
    #: so ``--chart`` and ``--json`` apply.
    series: bool = False

    def table(self, result: Any) -> str:
        return format_table(*self.cells(result))


def _shrink(quick: bool) -> Dict:
    return QUICK if quick else {}


def _sweep(
    scenario_for: Callable[..., Scenario],
    xs: Sequence[float],
    quick_xs: Sequence[float],
    mechanisms: Sequence[str],
) -> Callable:
    """A ``run`` sweeping ``scenario_for(x)`` over ``xs`` (``quick_xs``)."""

    def run(seeds: Sequence[int], quick: bool, executor: Optional[Executor]):
        from repro.harness.sweeps import sweep

        return sweep(
            lambda x: scenario_for(x, **_shrink(quick)),
            quick_xs if quick else xs,
            mechanisms=mechanisms,
            seeds=seeds,
            executor=executor,
        )

    return run


def _replicated(
    cells: Sequence[Tuple[Scenario, str]],
    seeds: Sequence[int],
    executor: Optional[Executor],
) -> List[List[RunResult]]:
    """Each ``(scenario, mechanism)`` once per seed, in one executor pass;
    the runs of each, in order."""
    from repro.harness.executor import Executor, RunSpec

    engine = executor if executor is not None else Executor(jobs=1)
    runs = engine.run(
        [RunSpec(scenario, mechanism, seed) for scenario, mechanism in cells for seed in seeds]
    )
    return [runs[start:start + len(seeds)] for start in range(0, len(runs), len(seeds))]


def _means(series, mechanism: str) -> List[float]:
    return [point.mean_ms for point in series[mechanism]]


def _iagents(series) -> List[Optional[float]]:
    return [point.mean_iagents for point in series["hash"]]


def _by(rows: List[Dict], key: str) -> Dict[str, Dict]:
    return {row[key]: row for row in rows}


# ----------------------------------------------------------------------
# EXP1 / EXP2: the paper's Figures 7 and 8
# ----------------------------------------------------------------------


def _figure7_checks(series) -> List[Check]:
    central, hashed = _means(series, "centralized"), _means(series, "hash")
    iagents = _iagents(series)
    return [
        ("centralized grows steeply with population", central[-1] > 5.0 * central[0]),
        ("centralized grows overall", central[-1] > central[1] > central[0] * 0.8),
        ("hash stays almost constant", max(hashed) < 2.5 * min(hashed)),
        ("hash wins decisively at scale", hashed[-1] < central[-1] / 3.0),
        ("the hash tree adapted: more IAgents at the heavy end", iagents[-1] > iagents[0]),
    ]


def _figure8_checks(series) -> List[Check]:
    central, hashed = _means(series, "centralized"), _means(series, "hash")
    iagents = _iagents(series)
    return [
        ("mobility hurts centralized", central[0] > 3.0 * central[-1]),
        ("hash flat across the mobility range", max(hashed) < 2.5 * min(hashed)),
        (
            "hash beats centralized at every mobility level",
            all(h <= c * 1.1 for h, c in zip(hashed, central)),
        ),
        ("hash wins where mobility is highest", hashed[0] < central[0] / 2.0),
        ("more IAgents at 100 ms residence than at 2 s", iagents[0] > iagents[-1]),
    ]


# ----------------------------------------------------------------------
# ABL-B: every mechanism on Experiment I
# ----------------------------------------------------------------------

BASELINES = ["centralized", "home-registry", "forwarding", "chord", "flooding", "hash"]


def _baselines_checks(series) -> List[Check]:
    at_scale = {name: points[-1].mean_ms for name, points in series.items()}

    def growth(name):
        return series[name][-1].mean_ms / series[name][0].mean_ms

    return [
        ("hash beats centralized 3x at scale", at_scale["hash"] < at_scale["centralized"] / 3.0),
        ("hash beats the home registry at scale", at_scale["hash"] < at_scale["home-registry"]),
        ("hash grows less than centralized", growth("hash") < growth("centralized")),
        ("hash grows less than the home registry", growth("hash") < growth("home-registry")),
    ]


# ----------------------------------------------------------------------
# ABL-T: T_max sensitivity
# ----------------------------------------------------------------------

T_MAX_SWEEP = (25.0, 50.0, 100.0, 200.0, 400.0)


def _tmax_scenario(t_max: float, **overrides) -> Scenario:
    scenario = exp1_scenario(100, **overrides)
    return scenario.with_overrides(
        config=scenario.config.with_overrides(t_max=t_max, t_min=t_max / 10.0)
    )


def _thresholds_cells(series) -> Cells:
    return ["T_max (msg/s)", "location time (ms)", "IAgents"], [
        [
            f"{point.x:g}",
            f"{point.mean_ms:8.1f} ±{point.ci95_ms:5.1f}",
            f"{point.mean_iagents:.1f}",
        ]
        for point in series["hash"]
    ]


def _thresholds_checks(series) -> List[Check]:
    points = series["hash"]
    iagents, times = _iagents(series), _means(series, "hash")
    paper_point = next(point for point in points if point.x == 50.0)
    return [
        (
            "more tolerance, fewer IAgents (25 >= 100 >= 400)",
            iagents[0] >= iagents[2] >= iagents[-1],
        ),
        ("fewer IAgents at the permissive end", iagents[0] > iagents[-1]),
        ("the permissive end is clearly slower", times[-1] > 1.5 * times[0]),
        ("the paper's T_max = 50 is near-best", paper_point.mean_ms < 2.0 * times[0]),
    ]


# ----------------------------------------------------------------------
# ABL-S / ABL-P / ABL-F: the setups in repro.harness.ablations
# ----------------------------------------------------------------------


def _split_policy(seeds, quick, executor) -> List[Dict]:
    from repro.harness.ablations import split_policy_results

    return split_policy_results(seeds=seeds, quick=quick)


def _split_policy_cells(rows) -> Cells:
    return ["policy", "mean (ms)", "IAgents", "splits", "complex", "merges", "max prefix bits"], [
        [
            row["policy"],
            f"{row['mean_ms']:.1f}",
            f"{row['iagents']:.1f}",
            f"{row['splits']:.1f}",
            f"{row['complex_splits']:.1f}",
            f"{row['merges']:.1f}",
            f"{row['max_depth']:.1f}",
        ]
        for row in rows
    ]


def _split_policy_checks(rows) -> List[Check]:
    policy = _by(rows, "policy")
    path, simple = policy["complex(path)"], policy["simple-only"]
    return [
        ("the paper's procedure makes complex splits", path["complex_splits"] >= 1),
        ("simple-only makes no complex split", simple["complex_splits"] == 0),
        ("leaf scope makes no complex split", policy["complex(leaf)"]["complex_splits"] == 0),
        ("complex(path) uses no longer prefixes", path["max_depth"] <= simple["max_depth"]),
        ("complex(path) spawns no more IAgents", path["iagents"] <= simple["iagents"]),
        ("every policy answers queries", all(row["mean_ms"] == row["mean_ms"] for row in rows)),
        ("every policy stays under 200 ms", all(row["mean_ms"] < 200.0 for row in rows)),
    ]


def _placement(seeds, quick, executor) -> List[Dict]:
    from repro.harness.ablations import placement_results

    return placement_results(seeds=seeds, quick=quick, executor=executor)


def _placement_cells(rows) -> Cells:
    return ["variant", "location time (ms)"], [
        [row["variant"], f"{row['mean_ms']:.1f} ±{row['ci95_ms']:.1f}"] for row in rows
    ]


def _placement_checks(rows) -> List[Check]:
    variant = _by(rows, "variant")
    off, on = variant["placement off"]["mean_ms"], variant["placement on"]["mean_ms"]
    return [
        ("placement pays off", on < off),
        ("placement saves at least 10%", on < 0.9 * off),
    ]


def _failover(seeds, quick, executor) -> List[Dict]:
    from repro.harness.ablations import failover_results

    return failover_results(seeds=seeds, quick=quick, executor=executor)


def _failover_cells(rows) -> Cells:
    return ["variant", "location time (ms)", "failed locates"], [
        [
            row["variant"],
            f"{row['mean_ms']:.1f} ±{row['ci95_ms']:.1f}",
            f"{row['failed_locates']:.1f}",
        ]
        for row in rows
    ]


def _failover_checks(rows) -> List[Check]:
    variant = _by(rows, "variant")
    return [
        ("locates fail without the backup", variant["no backup"]["failed_locates"] > 0),
        ("no locate fails with the backup", variant["primary/backup"]["failed_locates"] == 0),
    ]


# ----------------------------------------------------------------------
# COST: message accounting
# ----------------------------------------------------------------------

COST_MECHANISMS = ("centralized", "home-registry", "forwarding", "chord", "hash")


def _overhead(seeds, quick, executor) -> Dict[str, Dict]:
    scenario = exp1_scenario(50, **_shrink(quick))
    per_mechanism = _replicated([(scenario, name) for name in COST_MECHANISMS], seeds, executor)
    rows = {}
    for name, runs in zip(COST_MECHANISMS, per_mechanism):
        metrics = runs[0].metrics
        rows[name] = {
            "mean_ms": mean([run.mean_location_ms for run in runs]),
            "update_ms": mean([run.metrics.update_summary().mean for run in runs]),
            "messages": metrics.messages_sent,
            "per_locate": metrics.messages_per_locate(),
            "retries": metrics.counters.get("retries", 0),
            "refreshes": metrics.counters.get("refreshes", 0),
            "updates": metrics.counters.get("updates", 0),
        }
    return rows


def _overhead_cells(rows) -> Cells:
    headers = [
        "mechanism", "locate (ms)", "update (ms)", "messages", "msgs/locate", "retries",
        "refreshes",
    ]
    return headers, [
        [
            name,
            f"{data['mean_ms']:.1f}",
            f"{data['update_ms']:.1f}",
            str(data["messages"]),
            f"{data['per_locate']:.1f}",
            str(data["retries"]),
            str(data["refreshes"]),
        ]
        for name, data in rows.items()
    ]


def _overhead_checks(rows) -> List[Check]:
    central, hashed, chord = rows["centralized"], rows["hash"], rows["chord"]
    return [
        ("forwarding updates beat centralized",
         rows["forwarding"]["update_ms"] < central["update_ms"]),
        ("hash updates beat centralized", hashed["update_ms"] < central["update_ms"]),
        ("centralized is the message floor", central["messages"] <= hashed["messages"]),
        ("hash sends under 4x centralized's messages",
         hashed["messages"] < 4.0 * central["messages"]),
        ("chord routes the most messages per locate", chord["per_locate"] > hashed["per_locate"]),
        ("refreshes are rare", hashed["refreshes"] < 0.2 * (hashed["updates"] + 200)),
    ]


# ----------------------------------------------------------------------
# ABL-H / ABL-G: the two heuristics
# ----------------------------------------------------------------------

SERVICE_TIMES = (0.004, 0.008, 0.020)

GRANULARITIES = (
    ("per-agent", {"stats_granularity": "per-agent"}),
    ("grouped d=16", {"stats_granularity": "grouped", "stats_group_depth": 16}),
    ("grouped d=8", {"stats_granularity": "grouped", "stats_group_depth": 8}),
    ("grouped d=2", {"stats_granularity": "grouped", "stats_group_depth": 2}),
)


def _hash_means(scenarios: Sequence[Scenario], seeds, executor) -> List[Tuple[float, float]]:
    """Per scenario, the hash mechanism's mean location time and mean
    final IAgent count over the seeds (a run without one counts 1)."""
    return [
        (
            mean([run.mean_location_ms for run in runs]),
            mean([run.metrics.final_iagents or 1 for run in runs]),
        )
        for runs in _replicated([(scenario, "hash") for scenario in scenarios], seeds, executor)
    ]


def _heuristics(seeds, quick, executor) -> List[Dict]:
    modes = ("fixed", "adaptive")
    scenarios = []
    for service in SERVICE_TIMES:
        for mode in modes:
            scenario = exp1_scenario(100, **_shrink(quick))
            config = scenario.config.with_overrides(
                iagent_service_time=service, threshold_mode=mode
            )
            scenarios.append(scenario.with_overrides(config=config))
    means = iter(_hash_means(scenarios, seeds, executor))
    rows = []
    for service in SERVICE_TIMES:
        row = {"service_ms": service * 1000}
        for mode in modes:
            row[f"{mode}_ms"], row[f"{mode}_ia"] = next(means)
        rows.append(row)
    return rows


def _heuristics_cells(rows) -> Cells:
    return ["service (ms)", "fixed (ms)", "fixed IA", "adaptive (ms)", "adaptive IA"], [
        [
            f"{row['service_ms']:g}",
            f"{row['fixed_ms']:8.1f}",
            f"{row['fixed_ia']:.1f}",
            f"{row['adaptive_ms']:8.1f}",
            f"{row['adaptive_ia']:.1f}",
        ]
        for row in rows
    ]


def _heuristics_checks(rows) -> List[Check]:
    paper, slow = rows[1], rows[-1]  # 8 ms and 20 ms
    return [
        ("the two agree at the paper's 8 ms", paper["adaptive_ms"] < 2.0 * paper["fixed_ms"]),
        ("fixed-50 never splits on slow hardware", slow["fixed_ia"] < 2.0),
        ("adaptive splits on slow hardware", slow["adaptive_ia"] > 4.0),
        ("adaptive is 3x faster on slow hardware", slow["adaptive_ms"] < slow["fixed_ms"] / 3.0),
    ]


def _granularity(seeds, quick, executor) -> List[Dict]:
    scenarios = []
    for _, overrides in GRANULARITIES:
        # Heavier than EXP1's top point: ~500 updates/s needs ~8+
        # IAgents, beyond what depth-2 groups can ever justify.
        scenario = exp1_scenario(100, **_shrink(quick)).with_overrides(
            residence=ConstantResidence(0.2)
        )
        scenarios.append(
            scenario.with_overrides(config=scenario.config.with_overrides(**overrides))
        )
    return [
        {"variant": label, "mean_ms": mean_ms, "iagents": iagents}
        for (label, _), (mean_ms, iagents) in zip(
            GRANULARITIES, _hash_means(scenarios, seeds, executor)
        )
    ]


def _granularity_cells(rows) -> Cells:
    return ["statistics", "location time (ms)", "IAgents"], [
        [row["variant"], f"{row['mean_ms']:8.1f}", f"{row['iagents']:.1f}"] for row in rows
    ]


def _granularity_checks(rows) -> List[Check]:
    variant = _by(rows, "variant")
    exact, d8, d2 = variant["per-agent"], variant["grouped d=8"], variant["grouped d=2"]
    return [
        ("depth-8 groups match exact statistics", d8["mean_ms"] < 2.0 * exact["mean_ms"]),
        ("depth-2 groups cap the tree at 4 IAgents", d2["iagents"] <= 4.0),
        ("exact statistics grow past 4 IAgents", exact["iagents"] > 4.0),
        ("depth-2 groups cost latency", d2["mean_ms"] > 1.1 * d8["mean_ms"]),
    ]


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        name="exp1",
        title="EXP1 / Figure 7: location time vs number of TAgents",
        claim=(
            "Paper Figure 7 (Experiment I). Setting (§5, digits reconstructed per "
            "DESIGN.md §7): TAgent population swept over {10, 20, 30, 50, 100}, each "
            "TAgent resident 0.5 s per node, 200 location queries per run, "
            "T_max/T_min = 50/5 msg/s. Claim: \"in the centralized scheme, the time to "
            "locate a TAgent increases linearly with the number of TAgents as opposed "
            "to our mechanism in which the location time stays almost constant.\""
        ),
        run=_sweep(
            lambda n, **overrides: exp1_scenario(int(n), **overrides),
            EXP1_AGENT_COUNTS, EXP1_AGENT_COUNTS[:3], ["centralized", "hash"],
        ),
        cells=lambda series: series_cells(series, x_label="TAgents"),
        checks=_figure7_checks,
        series=True,
    ),
    Experiment(
        name="exp2",
        title="EXP2 / Figure 8: location time vs residence time per node",
        claim=(
            "Paper Figure 8 (Experiment II). Setting (§5, digits reconstructed per "
            "DESIGN.md §7): 20 TAgents whose residence per node sweeps over "
            "{100, 200, 500, 1000, 2000} ms; 200 queries per run. Claim: \"our "
            "mechanism outperforms the centralized one ... it is interesting to note "
            "that this time remains almost constant regardless of the current system "
            "conditions.\""
        ),
        run=_sweep(
            exp2_scenario, EXP2_RESIDENCE_TIMES_MS, EXP2_RESIDENCE_TIMES_MS[:3],
            ["centralized", "hash"],
        ),
        cells=lambda series: series_cells(series, x_label="residence (ms)"),
        checks=_figure8_checks,
        series=True,
    ),
    Experiment(
        name="baselines",
        title="ABL-B: all six mechanisms on the Experiment I workload",
        claim=(
            "Extension: besides the paper's centralized comparator, the related-work "
            "schemes of §6 on the Experiment I sweep -- Ajanta-style HLR/VLR, "
            "Voyager-style forwarding pointers, a Chord-style consistent-hashing "
            "directory and flooding. Every static scheme eventually concentrates "
            "load on an agent nothing ever splits (the central agent, a home "
            "registry, a ring successor), so the load-adaptive hash mechanism is the "
            "flattest directory curve at scale."
        ),
        run=_sweep(
            lambda n, **overrides: exp1_scenario(int(n), **overrides),
            (10, 30, 100), (10, 30), BASELINES,
        ),
        cells=lambda series: series_cells(series, x_label="TAgents"),
        checks=_baselines_checks,
        series=True,
    ),
    Experiment(
        name="thresholds",
        title="ABL-T: T_max sweep at N=100 (T_min = T_max / 10)",
        claim=(
            "The paper sets T_max/T_min to 50/5 msg/s and notes that \"developing "
            "heuristics for setting these values is part of our plans for future "
            "work\". Swept at Experiment I's heavy end (100 TAgents): a low T_max "
            "splits aggressively (many IAgents, low location time, more rehashing); "
            "a high one tolerates hot IAgents and drifts toward the centralized "
            "scheme's location time."
        ),
        run=_sweep(_tmax_scenario, T_MAX_SWEEP, T_MAX_SWEEP, ["hash"]),
        cells=_thresholds_cells,
        checks=_thresholds_checks,
    ),
    Experiment(
        name="split-policy",
        title="ABL-S: split policies on the oscillating skewed workload",
        claim=(
            "Paper §4.1: using the unused label bits \"would result in more balanced "
            "hash trees or in other words in using shorter prefixes\". Multi-bit "
            "labels are born in merges, so the policies only diverge when the IAgent "
            "population contracts and re-expands: a grow / shrink / regrow cycle over "
            "skewed ids (85% share a 6-bit prefix), measured in the regrow phase. "
            "simple-only disables complex split; complex(leaf) restricts it to the "
            "leaf's own edge (it almost never finds a candidate, DESIGN.md §4); "
            "complex(path) is the paper's procedure (the default)."
        ),
        run=_split_policy,
        cells=_split_policy_cells,
        checks=_split_policy_checks,
    ),
    Experiment(
        name="placement",
        title="ABL-P: IAgent placement on a locality-clustered workload",
        claim=(
            "Paper §7: \"the placement of the IAgents so that locality is exploited. "
            "For example, the IAgents could move closer to the majority of the agents "
            "that they serve.\" 40 TAgents roam almost only inside a two-node cluster "
            "far from where infrastructure starts; with placement on, IAgents migrate "
            "into it, shortening the update and query paths."
        ),
        run=_placement,
        cells=_placement_cells,
        checks=_placement_checks,
    ),
    Experiment(
        name="failover",
        title="ABL-F: HAgent crash with cold secondary copies",
        claim=(
            "Paper §7: \"we are supporting a primary copy mechanism for the hash "
            "function, thus making the HAgent that keeps this copy a vulnerability "
            "point.\" The HAgent crashes mid-measurement while every LHAgent goes "
            "cold, so each query needs a primary-copy read: without the backup those "
            "reads time out and locates fail; with it the standby serves them."
        ),
        run=_failover,
        cells=_failover_cells,
        checks=_failover_checks,
    ),
    Experiment(
        name="overhead",
        title="COST: message accounting at N=50 (Experiment I midpoint)",
        claim=(
            "Extension: the paper reports only location time; this counts every "
            "message each mechanism's platform carries at 50 TAgents (updates, "
            "queries, refreshes, rehash coordination, record transfers). The hash "
            "mechanism pays a constant-factor overhead over the centralized scheme's "
            "one round trip; Chord pays O(log N) routing hops per operation; "
            "forwarding trades near-free updates for locate-time chains."
        ),
        run=_overhead,
        cells=_overhead_cells,
        checks=_overhead_checks,
    ),
    Experiment(
        name="heuristics",
        title="ABL-H: fixed (T_max=50) vs adaptive thresholds, N=100",
        claim=(
            "The paper fixes T_max/T_min = 50/5 and notes the values \"depend on "
            "various parameters, such as the type of nodes that host the IAgents\". "
            "The adaptive mode derives T_max from each IAgent's measured service "
            "time; swept over the simulated hardware speed, fixed-50 is right on the "
            "paper's hardware and unreachable on slower nodes (the directory never "
            "splits), while adaptive tracks the hardware."
        ),
        run=_heuristics,
        cells=_heuristics_cells,
        checks=_heuristics_checks,
    ),
    Experiment(
        name="granularity",
        title="ABL-G: statistics granularity at N=100, residence 200 ms",
        claim=(
            "Paper §4.1: \"The statistics maintained may vary in their level of "
            "detail.\" Grouped statistics bound memory at 2**depth counters per "
            "IAgent; with shallow groups the planner cannot evaluate deep splits and "
            "the directory stops scaling."
        ),
        run=_granularity,
        cells=_granularity_cells,
        checks=_granularity_checks,
    ),
)


def experiment(name: str) -> Experiment:
    """The row called ``name``."""
    return next(row for row in EXPERIMENTS if row.name == name)
