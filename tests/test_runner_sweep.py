"""Tests for the sweep orchestrator: parallel parity, caching, dedup.

The acceptance gate for the runner subsystem lives here: a 4-point
policy-comparison sweep executed with ``jobs=4`` must produce results
identical to the sequential path, and a warm-cache rerun of the same sweep
must complete in under 10 % of the cold-run wall time.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.serialize import experiment_result_to_dict
from repro.runner import (
    RunSpec,
    compare_policies_specs,
    frequency_sweep_specs,
    run_sweep,
    scenario_grid_specs,
)
from repro.scenario import scenario_config
from repro.sim.clock import MS
from repro.system.experiment import run_experiment

SHORT_PS = 2 * MS // 5
TRAFFIC = 0.2
POLICIES = ["fcfs", "round_robin", "frame_rate_qos", "priority_qos"]


def _fingerprints(results):
    return [experiment_result_to_dict(r, include_trace=True) for r in results]


def _sequential(policies):
    """The in-process reference: one direct run_experiment call per policy."""
    return [
        run_experiment(
            scenario="case_b",
            policy=policy,
            duration_ps=SHORT_PS,
            traffic_scale=TRAFFIC,
        )
        for policy in policies
    ]


class TestRunSweep:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_sweep([RunSpec()], jobs=0)

    def test_duplicate_specs_execute_once(self):
        spec = RunSpec(
            scenario="case_b", policy="fcfs", duration_ps=SHORT_PS, traffic_scale=TRAFFIC
        )
        results, stats = run_sweep([spec, spec])
        assert stats.total == 2
        assert stats.executed == 1
        assert stats.cache_hits == 1
        assert results[0] is results[1]

    def test_sweep_frequencies_maps_by_frequency(self):
        frequencies = [1700.0, 1300.0]
        specs = frequency_sweep_specs(
            frequencies,
            scenario="case_b",
            policy="fcfs",
            duration_ps=SHORT_PS,
            traffic_scale=TRAFFIC,
        )
        assert [spec.label for spec in specs] == ["1700", "1300"]
        results, stats = run_sweep(specs)
        assert stats.executed == 2
        assert [result.dram_freq_mhz for result in results] == frequencies


class TestParallelParityAndCache:
    """The ISSUE acceptance criterion, as an executable test."""

    def test_4_jobs_bit_identical_and_warm_cache_under_10_percent(self, tmp_path):
        sequential = _sequential(POLICIES)
        specs = compare_policies_specs(
            POLICIES, scenario="case_b", duration_ps=SHORT_PS, traffic_scale=TRAFFIC
        )

        cold, cold_stats = run_sweep(specs, jobs=4, cache_dir=tmp_path)
        assert cold_stats.executed == len(POLICIES)
        assert cold_stats.cache_hits == 0

        # Worker processes must reproduce the sequential path bit for bit.
        assert _fingerprints(cold) == _fingerprints(sequential)

        warm, warm_stats = run_sweep(specs, jobs=4, cache_dir=tmp_path)
        assert warm_stats.executed == 0
        assert warm_stats.cache_hits == len(POLICIES)
        assert _fingerprints(warm) == _fingerprints(sequential)

        # A warm rerun is served entirely from disk: under 10 % of the cold
        # wall time (in practice a few milliseconds versus seconds).
        assert warm_stats.elapsed_s < 0.10 * cold_stats.elapsed_s

    def test_2_workers_match_sequential_specs_api(self, tmp_path):
        specs = compare_policies_specs(
            POLICIES[:2], scenario="case_b", duration_ps=SHORT_PS, traffic_scale=TRAFFIC
        )
        parallel, stats = run_sweep(specs, jobs=2)
        assert stats.executed == 2
        assert _fingerprints(parallel) == _fingerprints(_sequential(POLICIES[:2]))


class TestResolvedScenarioMemoization:
    """key() + display_label() + execution resolve the scenario exactly once."""

    def test_single_resolution_per_spec(self, monkeypatch):
        import repro.runner.sweep as sweep_module

        calls = []
        real_resolve = sweep_module.resolve_scenario

        def counting_resolve(*args, **kwargs):
            calls.append(args)
            return real_resolve(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "resolve_scenario", counting_resolve)
        spec = RunSpec(
            scenario="case_b",
            policy="fcfs",
            duration_ps=MS // 50,
            traffic_scale=TRAFFIC,
        )
        spec.key()
        spec.display_label()
        spec.key()
        (result,), _ = run_sweep([spec])
        assert result.policy == "fcfs"
        assert len(calls) == 1

    def test_replace_does_not_inherit_stale_resolution(self):
        from dataclasses import replace as dc_replace

        base = RunSpec(scenario="case_b", policy="fcfs", duration_ps=SHORT_PS)
        assert base.resolved_scenario().policy == "fcfs"
        changed = dc_replace(base, policy="round_robin")
        assert changed.resolved_scenario().policy == "round_robin"
        # The original spec's memoized resolution is untouched.
        assert base.resolved_scenario().policy == "fcfs"

    def test_memoized_resolution_survives_pickling(self):
        import pickle

        spec = RunSpec(scenario="case_b", policy="fcfs", duration_ps=SHORT_PS)
        resolved = spec.resolved_scenario()
        clone = pickle.loads(pickle.dumps(spec))
        # The worker-side copy carries the parent's resolution (equal data)
        # and does not need to resolve again.
        assert clone.__dict__.get("_resolved") == resolved
        assert clone == spec


class TestScenarioGrid:
    def test_grid_specs_expand_declared_axes(self):
        specs = scenario_grid_specs("case_b", duration_ps=SHORT_PS)
        # case_b declares one axis: 4 policies.
        assert len(specs) == 4
        policies = {spec.resolved_scenario().policy for spec in specs}
        assert policies == {"fcfs", "round_robin", "frame_rate_qos", "priority_qos"}
        labels = [spec.label for spec in specs]
        assert len(set(labels)) == len(labels)

    def test_settings_participate_in_cache_key(self):
        base = RunSpec(scenario="case_b", duration_ps=SHORT_PS)
        tweaked = RunSpec(
            scenario="case_b",
            duration_ps=SHORT_PS,
            settings=(("platform.sim.seed", 7),),
        )
        assert base.key() != tweaked.key()


class TestColumnarTraceEncoding:
    """Cache entries with keep_trace=True use the compact columnar layout."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            scenario="case_b", policy="fcfs", duration_ps=SHORT_PS, traffic_scale=TRAFFIC
        )

    def test_round_trip_is_lossless(self, result):
        from repro.analysis.serialize import experiment_result_from_dict

        payload = experiment_result_to_dict(result, include_trace=True)
        restored = experiment_result_from_dict(json.loads(json.dumps(payload)))
        for name in result.trace.names():
            original = result.trace.get(name)
            loaded = restored.trace.get(name)
            assert loaded is not None, name
            assert loaded.times_ps == original.times_ps
            assert loaded.values == original.values

    def test_columnar_encoding_shrinks_trace_payload(self, result):
        payload = experiment_result_to_dict(result, include_trace=True)
        compact = len(json.dumps(payload["trace"]))
        # The legacy layout stored one times/values pair per series.
        legacy = len(
            json.dumps(
                {
                    name: {
                        "times_ps": list(result.trace.get(name).times_ps),
                        "values": list(result.trace.get(name).values),
                    }
                    for name in result.trace.names()
                }
            )
        )
        assert compact < 0.7 * legacy, (compact, legacy)


class TestObserver:
    def test_observer_sees_every_spec_exactly_once(self, tmp_path):
        specs = [
            RunSpec(scenario="case_b", policy=p, duration_ps=SHORT_PS, traffic_scale=TRAFFIC)
            for p in ("fcfs", "priority_qos")
        ]
        specs.append(specs[0])  # duplicate: lands as a dedup hit
        seen = []
        results, stats = run_sweep(
            specs,
            cache_dir=str(tmp_path),
            observer=lambda index, result, timings, from_cache, source: seen.append(
                (index, result, timings, from_cache, source)
            ),
        )
        assert sorted(index for index, *_ in seen) == [0, 1, 2]
        by_index = {
            index: (result, timings, from_cache, source)
            for index, result, timings, from_cache, source in seen
        }
        # Executed points carry timings, the duplicate does not.
        assert by_index[0][1] is not None and not by_index[0][2]
        assert by_index[0][3] == "executed"
        assert by_index[2][1] is None and by_index[2][2]
        assert by_index[2][3] == "dedup"
        assert by_index[2][0] is results[0]

        # A second sweep over the same cache reports every point as cached.
        warm_seen = []
        run_sweep(
            specs[:2],
            cache_dir=str(tmp_path),
            observer=lambda index, result, timings, from_cache, source: warm_seen.append(
                (timings, from_cache, source)
            ),
        )
        assert len(warm_seen) == 2
        assert all(
            timings is None and from_cache and source == "cache"
            for timings, from_cache, source in warm_seen
        )


class TestNamedAxisSetGrids:
    def test_scenario_grid_specs_expand_one_named_set(self):
        scenario = scenario_config("case_b")  # noqa: F841 - warm the catalog
        from repro.scenario import Scenario

        named = Scenario(
            name="named_grid",
            sweep={
                "policies": {"policy": ["fcfs", "priority_qos"]},
                "seeds": {"platform.sim.seed": [1, 2, 3]},
            },
        )
        policies = scenario_grid_specs(named, axis_set="policies")
        seeds = scenario_grid_specs(named, axis_set="seeds")
        assert [spec.label for spec in policies] == ["policy=fcfs", "policy=priority_qos"]
        assert len(seeds) == 3
        with pytest.raises(Exception, match="named axis sets"):
            scenario_grid_specs(named)
