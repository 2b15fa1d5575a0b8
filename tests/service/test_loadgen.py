"""Tests for the load generator: recorder accuracy, stream determinism,
and live closed/open-loop runs.

The recorder and op-stream tests are pure (no sockets); the live tests
boot real clusters through ``booted_cluster`` and drive the actual wire,
using plain ``asyncio.run`` so the suite needs no asyncio test plugin.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.cli import main as cli_main
from repro.service.client import ClientCounters
from repro.service.cluster import ClusterConfig, booted_cluster
from repro.service.loadgen import (
    LatencyRecorder,
    LoadConfig,
    LoadGenerator,
    OpMix,
    OpStream,
    run_load,
    saturation_search,
)


def run(coro):
    return asyncio.run(coro)


def _small_cluster(**overrides) -> ClusterConfig:
    defaults = dict(nodes=3, agents=1, ops=0, seed=7)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


# ----------------------------------------------------------------------
# Streaming percentiles vs exact order statistics
# ----------------------------------------------------------------------


class TestLatencyRecorder:
    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=1e-6, max_value=60.0, allow_nan=False),
            min_size=1,
            max_size=400,
        )
    )
    def test_streaming_percentiles_match_exact_within_tolerance(self, samples):
        recorder = LatencyRecorder()
        for value in samples:
            recorder.record(value)
        ordered = sorted(samples)
        for q in (0.5, 0.95, 0.99, 0.999):
            exact = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
            estimate = recorder.percentile(q)
            assert recorder.min_s <= estimate <= recorder.max_s
            # The estimate is the bucket's upper bound clamped to the
            # observed extremes: never below the exact order statistic,
            # never more than one bucket ratio (1.5%) above it.
            assert exact <= estimate * (1.0 + 1e-9)
            assert estimate <= exact * recorder.growth * (1.0 + 1e-9)

    def test_empty_recorder_reports_zeroes(self):
        recorder = LatencyRecorder()
        assert recorder.percentile(0.99) == 0.0
        summary = recorder.summary()
        assert summary["count"] == 0.0
        assert summary["p99_ms"] == 0.0

    def test_merge_accumulates_and_preserves_percentiles(self):
        left, right, both = (
            LatencyRecorder(),
            LatencyRecorder(),
            LatencyRecorder(),
        )
        for index in range(1, 101):
            value = index / 1000.0
            (left if index % 2 else right).record(value)
            both.record(value)
        left.merge(right)
        assert left.count == both.count
        for q in (0.5, 0.95, 0.99):
            assert left.percentile(q) == pytest.approx(both.percentile(q))

    def test_merge_rejects_different_geometry(self):
        with pytest.raises(ValueError):
            LatencyRecorder().merge(LatencyRecorder(growth=1.5))


# ----------------------------------------------------------------------
# Deterministic op streams
# ----------------------------------------------------------------------


class TestOpStream:
    def _stream_sequence(self, seed, lane, length=200):
        stream = OpStream(seed, lane, OpMix(), ["node-0", "node-1", "node-2"])
        spawned = [stream.spawn() for _ in range(10)]
        stream.bind_shared([op.agent for op in spawned])
        return [stream.draw().key() for _ in range(length)]

    def test_same_seed_same_lane_replays_identically(self):
        assert self._stream_sequence(7, 0) == self._stream_sequence(7, 0)

    def test_lanes_and_seeds_diverge(self):
        base = self._stream_sequence(7, 0)
        assert base != self._stream_sequence(7, 1)
        assert base != self._stream_sequence(8, 0)

    def test_mix_weights_are_respected(self):
        stream = OpStream(3, 0, OpMix(locate=1.0, move=0, register=0, batch=0),
                          ["node-0"])
        spawned = [stream.spawn() for _ in range(4)]
        stream.bind_shared([op.agent for op in spawned])
        kinds = {stream.draw().kind for _ in range(100)}
        assert kinds == {"locate"}

    def test_move_sequences_advance_per_agent(self):
        stream = OpStream(5, 0, OpMix(locate=0, move=1.0, register=0, batch=0),
                          ["node-0", "node-1"])
        spawned = [stream.spawn() for _ in range(3)]
        stream.bind_shared([op.agent for op in spawned])
        seqs = {}
        for _ in range(50):
            op = stream.draw()
            assert op.seq == seqs.get(op.agent, 0) + 1
            seqs[op.agent] = op.seq

    def test_mix_parse_round_trips_and_rejects_junk(self):
        mix = OpMix.parse("locate=0.7,move=0.3")
        assert mix.locate == 0.7 and mix.move == 0.3
        assert mix.register == 0.0 and mix.batch == 0.0
        with pytest.raises(ValueError):
            OpMix.parse("teleport=1.0")
        with pytest.raises(ValueError):
            OpMix.parse("locate=lots")
        with pytest.raises(ValueError):
            OpMix(locate=0, move=0, register=0, batch=0).weights()


class _HangingClient:
    """A client whose every locate outlives the run."""

    def __init__(self):
        self.counters = ClientCounters()

    async def register_batch(self, batch):
        return len(batch)

    async def locate(self, agent):
        await asyncio.Event().wait()


class TestOpenLoopStragglers:
    def test_only_measured_stragglers_are_abandoned(self):
        """An op dispatched during warm-up and still pending after the
        drain was never issued: it is cancelled, not abandoned, so the
        report's counts stay consistent."""

        async def scenario():
            load = LoadConfig(
                mode="open", rate=200.0, warmup_s=0.3, duration_s=0.3,
                drain_s=0.05, population=8, seed=11,
                mix=OpMix(locate=1.0, move=0, register=0, batch=0),
            )
            generator = LoadGenerator([_HangingClient()], ["node-0"], load)
            await generator.setup()
            report = await generator.run()
            await asyncio.sleep(0)  # let the cancellations land
            stragglers = asyncio.all_tasks() - {asyncio.current_task()}
            return report, stragglers

        report, stragglers = run(scenario())
        assert report.ops_issued > 0
        assert report.ops_abandoned == report.ops_issued  # every measured op hung
        assert report.ops_ok == 0
        assert report.error_rate == 1.0
        assert not stragglers


# ----------------------------------------------------------------------
# Live runs
# ----------------------------------------------------------------------


class TestLiveLoad:
    def test_closed_loop_run_passes_and_counts_everything(self):
        load = LoadConfig(
            mode="closed", clients=8, ops_per_client=15, warmup_s=0.0,
            population=24, seed=11,
        )
        report = run(run_load(_small_cluster(), load))
        assert report.passed, report.render()
        assert report.ops_issued == 8 * 15
        assert report.ops_ok == report.ops_issued
        assert report.nodes == 3
        assert report.latency["count"] == report.ops_issued
        assert report.throughput_ops_s > 0
        # The default mix actually exercised more than one op kind.
        assert len(report.kinds) >= 2

    def test_same_seed_runs_replay_identical_op_sequences(self):
        async def one_run():
            load = LoadConfig(
                mode="closed", clients=6, ops_per_client=20, warmup_s=0.0,
                population=18, seed=13,
            )
            async with booted_cluster(_small_cluster()) as cluster:
                generator = LoadGenerator(
                    cluster.clients, [n.name for n in cluster.nodes], load
                )
                await generator.setup()
                report = await generator.run()
            assert report.passed, report.render()
            return report.op_log

        first = run(one_run())
        second = run(one_run())
        assert first == second
        assert sum(len(lane) for lane in first) == 6 * 20

    def test_open_loop_run_measures_from_scheduled_arrival(self):
        load = LoadConfig(
            mode="open", rate=200.0, duration_s=1.5, warmup_s=0.3,
            drain_s=2.0, population=24, seed=11, p99_budget_ms=500.0,
        )
        report = run(run_load(_small_cluster(), load))
        assert report.passed, report.render()
        assert report.ops_failed == 0
        assert report.ops_abandoned == 0
        # Poisson arrivals at 200/s over a 1.5s window.
        assert 150 <= report.ops_issued <= 450
        assert report.rate == 200.0

    def test_saturation_search_finds_a_knee(self):
        load = LoadConfig(
            duration_s=0.8, warmup_s=0.2, drain_s=1.0, population=20, seed=11,
        )
        result = run(
            saturation_search(
                _small_cluster(nodes=1),
                load,
                budget_p99_ms=400.0,
                rate_lo=40.0,
                rate_hi=160.0,
                probes=3,
            )
        )
        assert result["knee_rate"] is not None
        assert 40.0 <= result["knee_rate"] <= 160.0
        assert len(result["probes"]) >= 2
        assert result["latency"]["p99_ms"] <= 400.0

    def test_validate_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            LoadConfig(mode="bursty").validate()
        with pytest.raises(ValueError):
            LoadConfig(mode="open", rate=0.0).validate()
        with pytest.raises(ValueError):
            LoadConfig(population=0).validate()


class TestLoadCli:
    def test_cli_load_closed_loop_exits_zero(self, tmp_path, capsys):
        report_path = tmp_path / "load.json"
        code = cli_main(
            [
                "load", "--nodes", "2", "--agents", "16", "--clients", "4",
                "--ops-per-client", "10", "--warmup", "0", "--seeds", "7",
                "--p99-budget", "1000", "--json", str(report_path),
            ]
        )
        assert code == 0
        assert report_path.exists()
        out = capsys.readouterr().out
        assert "load run: PASS" in out
