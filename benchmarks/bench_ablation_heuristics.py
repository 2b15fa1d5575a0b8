"""ABL-H / ABL-G -- the two §4-§5 "future work" heuristics, measured.

ABL-H (threshold heuristic). The paper fixes T_max/T_min = 50/5 and
notes the values "depend on various parameters, such as the type of
nodes that host the IAgents" -- i.e. they must be recalibrated per
deployment. The adaptive mode derives T_max from each IAgent's measured
service time (`T_max = TARGET_UTILIZATION / service`). The bench sweeps
the simulated hardware speed: fixed-50 is great on the paper's hardware
and silently catastrophic on slower nodes (the threshold becomes
unreachable, so the directory never splits); adaptive tracks the
hardware.

ABL-G (statistics granularity). §4.1: "The statistics maintained may
vary in their level of detail." Grouped statistics bound memory at
2**depth counters per IAgent; the bench shows the cost: with shallow
groups the planner cannot evaluate deep splits and the directory stops
scaling.
"""

from conftest import once

from repro.harness.experiment import run_experiment
from repro.harness.tables import format_table
from repro.metrics.summary import mean
from repro.workloads.scenarios import exp1_scenario

SERVICE_TIMES = (0.004, 0.008, 0.020)


def run_ablh(seeds):
    rows = []
    for service in SERVICE_TIMES:
        row = {"service_ms": service * 1000}
        for mode in ("fixed", "adaptive"):
            means, iagents = [], []
            for seed in seeds:
                scenario = exp1_scenario(100, seed=seed)
                scenario = scenario.with_overrides(
                    config=scenario.config.with_overrides(
                        iagent_service_time=service, threshold_mode=mode
                    )
                )
                result = run_experiment(scenario, "hash")
                means.append(result.mean_location_ms)
                iagents.append(result.metrics.final_iagents or 1)
            row[f"{mode}_ms"] = mean(means)
            row[f"{mode}_ia"] = mean(iagents)
        rows.append(row)
    return rows


def test_adaptive_thresholds(benchmark, seeds):
    rows = once(benchmark, lambda: run_ablh(seeds))

    print("\nABL-H: fixed (T_max=50) vs adaptive thresholds, N=100")
    print(
        format_table(
            ["service (ms)", "fixed (ms)", "fixed IA", "adaptive (ms)",
             "adaptive IA"],
            [
                [
                    f"{row['service_ms']:g}",
                    f"{row['fixed_ms']:8.1f}",
                    f"{row['fixed_ia']:.1f}",
                    f"{row['adaptive_ms']:8.1f}",
                    f"{row['adaptive_ia']:.1f}",
                ]
                for row in rows
            ],
        )
    )

    # On the paper's calibration point the two agree.
    paper_row = rows[1]  # 8 ms
    assert paper_row["adaptive_ms"] < 2.0 * paper_row["fixed_ms"]

    # On slow hardware, fixed-50 is unreachable (capacity < threshold):
    # the directory never splits and latency explodes; adaptive scales.
    slow_row = rows[-1]
    assert slow_row["fixed_ia"] < 2.0
    assert slow_row["adaptive_ia"] > 4.0
    assert slow_row["adaptive_ms"] < slow_row["fixed_ms"] / 3.0


def run_ablg(seeds):
    variants = [
        ("per-agent", {"stats_granularity": "per-agent"}),
        ("grouped d=16", {"stats_granularity": "grouped", "stats_group_depth": 16}),
        ("grouped d=8", {"stats_granularity": "grouped", "stats_group_depth": 8}),
        ("grouped d=2", {"stats_granularity": "grouped", "stats_group_depth": 2}),
    ]
    from repro.workloads.mobility import ConstantResidence

    rows = []
    for label, overrides in variants:
        means, iagents = [], []
        for seed in seeds:
            # Heavier than EXP1's top point: ~500 updates/s needs ~8+
            # IAgents, beyond what depth-2 groups can ever justify.
            scenario = exp1_scenario(100, seed=seed).with_overrides(
                residence=ConstantResidence(0.2)
            )
            scenario = scenario.with_overrides(
                config=scenario.config.with_overrides(**overrides)
            )
            result = run_experiment(scenario, "hash")
            means.append(result.mean_location_ms)
            iagents.append(result.metrics.final_iagents or 1)
        rows.append(
            {"variant": label, "mean_ms": mean(means), "iagents": mean(iagents)}
        )
    return rows


def test_stats_granularity(benchmark, seeds):
    rows = once(benchmark, lambda: run_ablg(seeds))

    print("\nABL-G: statistics granularity at N=100, residence 200 ms")
    print(
        format_table(
            ["statistics", "location time (ms)", "IAgents"],
            [
                [row["variant"], f"{row['mean_ms']:8.1f}", f"{row['iagents']:.1f}"]
                for row in rows
            ],
        )
    )

    by_variant = {row["variant"]: row for row in rows}

    # Reasonable group depths match exact statistics on this workload
    # (uniform ids divide evenly on early bits).
    assert (
        by_variant["grouped d=8"]["mean_ms"]
        < 2.0 * by_variant["per-agent"]["mean_ms"]
    )

    # Too-shallow groups blind the planner beyond depth 2: the tree is
    # capped at 2**2 evaluable leaves, each saturates, latency suffers.
    assert by_variant["grouped d=2"]["iagents"] <= 4.0
    assert by_variant["per-agent"]["iagents"] > 4.0
    # The saturation cost is damped by closed-loop back-pressure (the
    # movers themselves slow down), but remains measurable.
    assert (
        by_variant["grouped d=2"]["mean_ms"]
        > 1.1 * by_variant["grouped d=8"]["mean_ms"]
    )
