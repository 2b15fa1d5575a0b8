"""Tests for the parallel sweep engine and the content-addressed cache.

The two hard guarantees of PR 2:

* parallel execution is *bit-identical* to serial execution (fixed-seed
  determinism survives the process boundary);
* the cache serves a hit only for truly identical inputs -- any change
  to the scenario, the seed or the code fingerprint misses.
"""

import math
import warnings

import pytest

from repro.harness.cache import (
    RunCache,
    cache_key,
    canonical_value,
    code_fingerprint,
    metrics_from_dict,
    metrics_to_dict,
)
from repro.harness.executor import (
    Executor,
    RunSpec,
    default_jobs,
    flatten_sweep,
)
from repro.harness.experiment import RunResult, run_experiment
from repro.harness.sweeps import SweepPoint, replicate, sweep
from repro.metrics.collectors import MetricsCollector
from repro.platform.naming import AgentId
from repro.workloads.scenarios import Scenario, exp1_scenario


def quick_scenario(num_agents=6, **overrides):
    base = dict(total_queries=10, warmup=1.0, query_clients=2, seed=1)
    base.update(overrides)
    return exp1_scenario(num_agents, **base)


def grid_specs(seeds=(1, 2)):
    return flatten_sweep(
        lambda n: quick_scenario(int(n)),
        xs=(4, 8),
        mechanisms=("hash", "centralized"),
        seeds=seeds,
    )


def assert_same_runs(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert a.scenario.name == b.scenario.name
        assert a.mechanism == b.mechanism
        assert a.metrics.location_times == b.metrics.location_times
        assert a.metrics.sim_events == b.metrics.sim_events
        assert a.metrics.counters == b.metrics.counters
        assert a.metrics.iagent_series.samples == b.metrics.iagent_series.samples


class TestFlatten:
    def test_input_order_x_mechanism_seed(self):
        specs = grid_specs(seeds=(1, 2))
        triples = [(s.x, s.mechanism, s.seed) for s in specs]
        assert triples == [
            (4, "hash", 1), (4, "hash", 2),
            (4, "centralized", 1), (4, "centralized", 2),
            (8, "hash", 1), (8, "hash", 2),
            (8, "centralized", 1), (8, "centralized", 2),
        ]

    def test_resolved_scenario_applies_seed(self):
        spec = RunSpec(scenario=quick_scenario(seed=1), mechanism="hash", seed=7)
        assert spec.resolved_scenario().seed == 7

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestParallelEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self):
        specs = grid_specs()
        serial = Executor(jobs=1).run(specs)
        parallel = Executor(jobs=4).run(specs)
        assert_same_runs(serial, parallel)

    def test_results_in_input_order(self):
        specs = grid_specs()
        results = Executor(jobs=4).run(specs)
        labels = [(r.scenario.num_agents, r.mechanism, r.scenario.seed)
                  for r in results]
        assert labels == [(s.scenario.num_agents, s.mechanism, s.seed)
                          for s in specs]

    def test_unpicklable_cells_fall_back_to_serial(self):
        seen = []
        specs = [
            RunSpec(
                scenario=quick_scenario(),
                mechanism="hash",
                seed=1,
                before_run=lambda runtime: seen.append(runtime),  # unpicklable
            ),
            RunSpec(scenario=quick_scenario(), mechanism="hash", seed=2),
        ]
        executor = Executor(jobs=4)
        results = executor.run(specs)
        assert len(results) == 2
        assert len(seen) == 1  # the hook really ran, in this process
        assert executor.stats.serial_cells >= 1

    def test_sweep_series_identical_across_job_counts(self):
        kwargs = dict(
            scenario_for=lambda n: quick_scenario(int(n)),
            xs=(4, 8),
            mechanisms=("hash", "centralized"),
            seeds=(1, 2),
        )
        serial = sweep(**kwargs, executor=Executor(jobs=1))
        parallel = sweep(**kwargs, executor=Executor(jobs=4))
        for name in serial:
            for p_serial, p_par in zip(serial[name], parallel[name]):
                assert p_serial.per_seed_means == p_par.per_seed_means
                assert p_serial.mean_ms == p_par.mean_ms
                assert p_serial.mean_iagents == p_par.mean_iagents


class TestCache:
    def test_hit_on_identical_rerun_bit_identical(self, tmp_path):
        specs = grid_specs()
        first = Executor(jobs=1, cache=RunCache(root=tmp_path))
        fresh = first.run(specs)
        assert first.stats.cache_hits == 0
        assert first.stats.cache_misses == len(specs)

        second = Executor(jobs=1, cache=RunCache(root=tmp_path))
        cached = second.run(specs)
        assert second.stats.cache_hits == len(specs)
        assert second.stats.serial_cells == 0
        assert_same_runs(fresh, cached)

    def test_sweep_points_bit_identical_from_cache(self, tmp_path):
        kwargs = dict(
            scenario_for=lambda n: quick_scenario(int(n)),
            xs=(4, 8),
            mechanisms=("hash",),
            seeds=(1, 2),
        )
        fresh = sweep(**kwargs, executor=Executor(jobs=1, cache=RunCache(root=tmp_path)))
        warm = sweep(**kwargs, executor=Executor(jobs=1, cache=RunCache(root=tmp_path)))
        for p_fresh, p_warm in zip(fresh["hash"], warm["hash"]):
            assert p_fresh.per_seed_means == p_warm.per_seed_means
            assert p_fresh.mean_ms == p_warm.mean_ms
            assert p_fresh.ci95_ms == p_warm.ci95_ms
            assert p_fresh.mean_iagents == p_warm.mean_iagents

    def test_miss_after_scenario_change(self, tmp_path):
        cache = RunCache(root=tmp_path)
        Executor(jobs=1, cache=cache).run(
            [RunSpec(scenario=quick_scenario(), mechanism="hash", seed=1)]
        )
        changed = quick_scenario(total_queries=11)
        rerun = Executor(jobs=1, cache=RunCache(root=tmp_path))
        rerun.run([RunSpec(scenario=changed, mechanism="hash", seed=1)])
        assert rerun.stats.cache_hits == 0
        assert rerun.stats.cache_misses == 1

    def test_miss_after_seed_change(self, tmp_path):
        Executor(jobs=1, cache=RunCache(root=tmp_path)).run(
            [RunSpec(scenario=quick_scenario(), mechanism="hash", seed=1)]
        )
        rerun = Executor(jobs=1, cache=RunCache(root=tmp_path))
        rerun.run([RunSpec(scenario=quick_scenario(), mechanism="hash", seed=2)])
        assert rerun.stats.cache_hits == 0

    def test_miss_after_code_fingerprint_change(self, tmp_path):
        Executor(jobs=1, cache=RunCache(root=tmp_path, fingerprint="aaa")).run(
            [RunSpec(scenario=quick_scenario(), mechanism="hash", seed=1)]
        )
        rerun = Executor(
            jobs=1, cache=RunCache(root=tmp_path, fingerprint="bbb")
        )
        rerun.run([RunSpec(scenario=quick_scenario(), mechanism="hash", seed=1)])
        assert rerun.stats.cache_hits == 0
        assert rerun.stats.cache_misses == 1

    def test_mechanism_is_part_of_key(self, tmp_path):
        cache = RunCache(root=tmp_path)
        key_hash = cache.key_for(quick_scenario(), "hash", 1)
        key_central = cache.key_for(quick_scenario(), "centralized", 1)
        assert key_hash != key_central

    def test_lambda_factory_is_uncacheable(self, tmp_path):
        cache = RunCache(root=tmp_path)
        executor = Executor(jobs=1, cache=cache)
        spec = RunSpec(
            scenario=quick_scenario(),
            mechanism="hash",
            seed=1,
            mechanism_factory=lambda config: None,
        )
        assert executor._mechanism_id(spec).endswith("<lambda>")
        # The factory's qualname contains <lambda>, so the canonical
        # mechanism id is unstable -- but the scenario itself still
        # canonicalises; the executor keys on the qualified id, which
        # changes per definition site. Cacheability is decided by
        # cache_key; a before_run hook always disables caching:
        hook_spec = RunSpec(
            scenario=quick_scenario(),
            mechanism="hash",
            seed=1,
            before_run=lambda runtime: None,
        )
        results = executor.run([hook_spec])
        assert len(results) == 1
        assert list(tmp_path.glob("*.json")) == []  # nothing persisted

    def test_code_fingerprint_tracks_source_edits(self, tmp_path):
        src = tmp_path / "pkg"
        src.mkdir()
        (src / "a.py").write_text("x = 1\n")
        before = code_fingerprint(src)
        assert before == code_fingerprint(src)  # memoised, stable
        (src / "a.py").write_text("x = 2\n")
        # New root object to skip the per-process memo.
        from repro.harness import cache as cache_module

        cache_module._FINGERPRINT_CACHE.clear()
        assert code_fingerprint(src) != before

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(root=tmp_path)
        key = cache.key_for(quick_scenario(), "hash", 1)
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_clear_removes_entries(self, tmp_path):
        cache = RunCache(root=tmp_path)
        Executor(jobs=1, cache=cache).run(
            [RunSpec(scenario=quick_scenario(), mechanism="hash", seed=1)]
        )
        assert cache.clear() == 1
        assert list(tmp_path.glob("*.json")) == []


class TestCanonicalisation:
    def test_scenario_canonicalises(self):
        document = canonical_value(quick_scenario())
        import json

        json.dumps(document)  # stable and serialisable

    def test_an_id_is_tagged_as_an_id_not_as_the_pair_it_is_built_on(self):
        # The document the dataclass branch emitted for an id; a bare
        # [value, width] would share a cache key with a 2-tuple of ints.
        tagged = {"__dataclass__": "AgentId", "value": 5, "width": 64}
        assert canonical_value(AgentId(5, 64)) == tagged
        assert canonical_value((5, 64)) == [5, 64]
        assert canonical_value({"ids": [AgentId(5, 64), (5, 64)]}) == {
            "ids": [tagged, [5, 64]]
        }

    def test_lambda_scenario_field_uncacheable(self):
        scenario = quick_scenario().with_overrides(
            target_weights_fn=lambda n: [1.0] * n
        )
        assert cache_key(scenario, "hash", 1, "fp") is None

    def test_module_level_function_cacheable(self):
        scenario = quick_scenario().with_overrides(network_setup=_topology)
        assert cache_key(scenario, "hash", 1, "fp") is not None

    def test_metrics_round_trip_exact(self):
        result = run_experiment(quick_scenario(), "hash")
        import json

        document = json.loads(json.dumps(metrics_to_dict(result.metrics)))
        restored = metrics_from_dict(document)
        assert restored.location_times == result.metrics.location_times
        assert restored.iagent_series.samples == result.metrics.iagent_series.samples
        assert restored.counters == result.metrics.counters
        assert restored.sim_events == result.metrics.sim_events

    def test_rehash_events_round_trip_and_cache(self, tmp_path):
        """Runs whose rehash log holds AgentIds must still persist.

        Regression: the split/merge journal embeds AgentId objects; the
        cache encodes them explicitly instead of silently refusing to
        store any run that rehashed (which is every interesting one).
        """
        # Enough agents + queries to force at least one split.
        scenario = exp1_scenario(20, total_queries=60, warmup=2.0, seed=1)
        result = run_experiment(scenario, "hash")
        assert result.metrics.rehash_events, "workload no longer splits"

        cache = RunCache(root=tmp_path)
        key = cache.key_for(scenario, "hash", 1)
        assert cache.put(key, result.metrics)
        restored = cache.get(key)
        assert restored is not None
        assert restored.rehash_events == result.metrics.rehash_events
        assert restored.splits == result.metrics.splits


def _topology(runtime):
    """Module-level network hook used by the cacheability test."""


class TestEmptySampleGuards:
    def test_sweep_point_mean_nan_not_raise(self):
        point = SweepPoint(x=1.0, mechanism="hash", per_seed_means=[], runs=[])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert math.isnan(point.mean_ms)
            assert math.isnan(point.ci95_ms)

    def test_run_result_mean_nan_not_raise(self):
        result = RunResult(
            scenario=quick_scenario(),
            mechanism="hash",
            metrics=MetricsCollector(mechanism="hash"),
        )
        with pytest.warns(RuntimeWarning):
            assert math.isnan(result.mean_location_ms)

    def test_warning_mentions_scenario(self):
        point = SweepPoint(x=2.0, mechanism="chord", per_seed_means=[], runs=[])
        with pytest.warns(RuntimeWarning, match="chord"):
            point.mean_ms


class TestReplicateThroughExecutor:
    def test_replicate_unchanged_shape(self):
        point = replicate(quick_scenario(), "hash", seeds=(1, 2), x=6)
        assert point.x == 6
        assert len(point.per_seed_means) == 2
        assert len(point.runs) == 2

    def test_replicate_serial_equals_parallel(self):
        serial = replicate(
            quick_scenario(), "hash", seeds=(1, 2, 3), executor=Executor(jobs=1)
        )
        parallel = replicate(
            quick_scenario(), "hash", seeds=(1, 2, 3), executor=Executor(jobs=3)
        )
        assert serial.per_seed_means == parallel.per_seed_means
