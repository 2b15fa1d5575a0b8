"""Smoke test of the repo benchmark (collected by ``pytest benchmarks/``,
not by tier-1): every workload runs at a few-second scale and prints
every metric BENCHMARK.json names, and the oracle, the guards and the
compare tool each fire when they should.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import replace

import pytest

import e2e_compare
import e2e_harness as harness
import run

CONTRACT = run.load_contract()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMALL = replace(harness.workload_named("locate-seq"), population=200, leaves=4)


@pytest.fixture
def few_seconds(monkeypatch):
    """One repeat and a short warm-up instead of three and 2 s."""
    monkeypatch.setattr(harness, "REPEATS", 1)
    monkeypatch.setattr(harness, "WARMUP_S", 0.5)


def last_json(capsys) -> tuple:
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


def test_contract_is_well_formed():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert len(CONTRACT["end_to_end"]) <= 16
    assert len(CONTRACT["per_layer"]) <= 128
    assert [w["name"] for w in CONTRACT["workloads"]] == [
        w.name for w in harness.WORKLOADS
    ]
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"
    ).items()


@pytest.mark.parametrize("workload", [w.name for w in harness.WORKLOADS])
def test_workload_prints_every_end_to_end_metric(workload, few_seconds, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1.5", "--trace", "0"])
    out, result = last_json(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in CONTRACT["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0
        assert re.search(rf"{re.escape(metric['name'])}\s+[\d.]+ {re.escape(metric['unit'])}\n", out)
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert "fail_share" in out and "sha256" in out


def test_traced_pass_prints_every_per_layer_metric(few_seconds, capsys):
    code = run.main(["--workload", "locate-seq", "--seed", "3", "--seconds", "1.5", "--trace", "1"])
    out, result = last_json(capsys)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    for metric in CONTRACT["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert re.search(rf"{re.escape(metric['name'])}\s+-?[\d.]+ {re.escape(metric['unit'])}\n", out)
    assert result["metrics"]["trace.unaccounted_share"]["value"] <= 0.25
    assert (run.OUT_DIR / "trace-locate-seq.json").exists()


def test_oracle_counts_a_deliberately_wrong_answer():
    async def scenario() -> harness.Oracle:
        async with harness.shaped_cluster(SMALL, seed=3) as env:
            victim = next(iter(env.oracle.truth))
            env.oracle.truth[victim] = ("node-nowhere", 0)
            await env.sweep()
            return env.oracle

    oracle = asyncio.run(scenario())
    assert oracle.wrong == 1 and oracle.attempted == SMALL.population
    assert "node-nowhere" in oracle.samples[0]


def test_guard_rejects_a_deliberately_unshaped_tree():
    async def scenario() -> list:
        async with harness.shaped_cluster(SMALL, seed=3, shape=False) as env:
            stats = await env.hagent_stats()
            return harness.steady_violations(SMALL, stats, stats, steal_share=0.0)

    violations = asyncio.run(scenario())
    assert violations == ["1 leaves at window start, target 4"]


def test_guards_reject_rehash_in_window_steal_and_short_storm():
    spec = harness.workload_named("locate-pipelined")
    before = {"iagents": 16, "splits": 15, "merges": 0}
    after = {"iagents": 17, "splits": 16, "merges": 0}
    assert harness.steady_violations(spec, before, before, 0.02) == []
    assert "1 splits inside the window" in harness.steady_violations(spec, before, after, 0.02)
    assert any("steal" in v for v in harness.steady_violations(spec, before, before, 0.4))
    storm = harness.workload_named("rehash-storm")
    assert harness.storm_violations(storm, {"splits": 255, "iagents": 256}) == []
    assert harness.storm_violations(storm, {"splits": 254, "iagents": 255})


def _saved(ops: list, fail_share: float = 0.0) -> dict:
    runs = []
    for spec in harness.WORKLOADS:
        values = {m["name"]: [100.0, 101.0, 102.0] for m in CONTRACT["end_to_end"]}
        values["ops_s"] = ops
        metrics = {name: series[1] for name, series in values.items()}
        metrics["fail_share"] = fail_share
        runs.append({"workload": spec.name, "values": values, "metrics": metrics})
    return {"invocations": [{"workloads": runs}]}


def test_compare_says_same_worse_and_unresolved():
    def verdicts(a, b):
        rows = e2e_compare.compare(a, b, CONTRACT)
        assert [row["workload"] for row in rows] == [w.name for w in harness.WORKLOADS]
        return {cell["verdict"] for row in rows for cell in [row["cells"]["ops_s"]]}, rows

    base = _saved([100.0, 101.0, 102.0])
    assert verdicts(base, base)[0] == {"same"}
    assert verdicts(base, _saved([60.0, 61.0, 62.0]))[0] == {"worse"}
    assert verdicts(base, _saved([30.0, 100.0, 170.0]))[0] == {"unresolved"}
    assert verdicts(base, _saved([150.0, 151.0, 152.0]))[0] == {"better"}
    _, rows = verdicts(base, _saved([100.0, 101.0, 102.0], fail_share=0.01))
    assert all(row["cells"]["fail_share"]["verdict"] == "worse" for row in rows)
