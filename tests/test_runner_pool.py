"""Tests for the warm worker pool: batch planning, reuse, parity, phases.

The ISSUE acceptance criterion for the warm-pool engine lives here: a warm
pool must produce results bit-identical to a cold ephemeral pool and to
``jobs=1`` sequential execution (traces included), and reusing the pool
across sweeps must not pay the spawn cost twice.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.serialize import experiment_result_to_dict
from repro.runner import (
    RunSpec,
    WorkerDiedError,
    WorkerPool,
    estimate_cost,
    plan_batches,
    run_sweep,
)
from repro.sim.clock import MS

SHORT_PS = 2 * MS // 5
TRAFFIC = 0.2
POLICIES = ["fcfs", "round_robin", "frame_rate_qos", "priority_qos"]


def _specs(policies=POLICIES, seed=None):
    return [
        RunSpec(
            scenario="case_b",
            policy=policy,
            duration_ps=SHORT_PS,
            traffic_scale=TRAFFIC,
            seed=seed,
            label=policy,
        )
        for policy in policies
    ]


def _fingerprints(results):
    return [experiment_result_to_dict(r, include_trace=True) for r in results]


class TestPlanBatches:
    def test_empty_grid_plans_nothing(self):
        assert plan_batches([], jobs=4) == []

    def test_uniform_costs_pack_contiguously_in_order(self):
        items = [(f"spec{i}", 1.0) for i in range(32)]
        batches = plan_batches(items, jobs=4, oversubscribe=4)
        # ~ jobs x oversubscribe batches of equal size, order preserved.
        assert [item for batch in batches for item in batch] == [
            f"spec{i}" for i in range(32)
        ]
        assert len(batches) == 16
        assert {len(batch) for batch in batches} == {2}

    def test_expensive_item_gets_its_own_batch(self):
        items = [("cheap0", 1.0), ("heavy", 100.0), ("cheap1", 1.0), ("cheap2", 1.0)]
        batches = plan_batches(items, jobs=2)
        assert ["heavy"] in batches
        # Order across batches still follows the input.
        assert [item for batch in batches for item in batch] == [
            "cheap0",
            "heavy",
            "cheap1",
            "cheap2",
        ]

    def test_plan_is_deterministic(self):
        items = [(i, float(1 + i % 3)) for i in range(20)]
        assert plan_batches(items, jobs=3) == plan_batches(items, jobs=3)


class TestEstimateCost:
    def test_cost_scales_with_duration(self):
        short = RunSpec(scenario="case_b", duration_ps=MS // 4)
        long = RunSpec(scenario="case_b", duration_ps=MS)
        assert estimate_cost(long) == pytest.approx(4 * estimate_cost(short))

    def test_cost_scales_with_agent_count(self):
        few = RunSpec(
            scenario="manycore_streaming",
            duration_ps=MS,
            settings=(("workload.params.streams", 4),),
        )
        many = RunSpec(
            scenario="manycore_streaming",
            duration_ps=MS,
            settings=(("workload.params.streams", 16),),
        )
        assert estimate_cost(many) > estimate_cost(few)


class TestWorkerPoolLifecycle:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_construction_is_lazy(self):
        pool = WorkerPool(2)
        assert not pool.started
        assert pool.starts == 0
        pool.close()  # closing an unstarted pool is a no-op
        assert pool.starts == 0

    def test_worker_dying_at_startup_fails_start_fast(self):
        # The plugin exits the worker before it reports ready; start() must
        # say so within seconds, not wait out STARTUP_TIMEOUT_S (120 s).
        pool = WorkerPool(1, plugin_modules=["dying_worker_plugin"])
        began = time.monotonic()
        with pytest.raises(WorkerDiedError) as excinfo:
            pool.start()
        assert time.monotonic() - began < 15.0
        assert excinfo.value.exitcode == 3
        assert "pool start-up" in str(excinfo.value)
        assert not pool.started


class TestWarmPoolParityAndReuse:
    """The ISSUE acceptance criterion, as an executable test."""

    def test_warm_pool_cold_pool_and_sequential_are_bit_identical(self):
        sequential, seq_stats = run_sweep(_specs(), jobs=1)
        assert seq_stats.executed == len(POLICIES)
        assert seq_stats.pool_startup_s == 0.0

        cold, cold_stats = run_sweep(_specs(), jobs=4)
        assert cold_stats.executed == len(POLICIES)
        assert cold_stats.pool_startup_s > 0.0
        assert cold_stats.batches >= 1

        with WorkerPool(4) as pool:
            warm, warm_stats = run_sweep(_specs(), pool=pool)
            assert warm_stats.executed == len(POLICIES)
            assert pool.starts == 1

            # Bit-identical across all three execution paths, traces included.
            assert (
                _fingerprints(sequential)
                == _fingerprints(cold)
                == _fingerprints(warm)
            )

            # Reuse: a second sweep on the same pool pays no spawn cost and
            # spawns no new workers.
            again, again_stats = run_sweep(_specs(seed=7), pool=pool)
            assert again_stats.executed == len(POLICIES)
            assert again_stats.pool_startup_s == 0.0
            assert pool.starts == 1
        assert not pool.started

    def test_unbatched_dispatch_matches_batched(self):
        specs = _specs(POLICIES[:2])
        batched, batched_stats = run_sweep(specs, jobs=2)
        unbatched, unbatched_stats = run_sweep(specs, jobs=2, batching=False)
        assert unbatched_stats.batches == len(specs)
        assert _fingerprints(batched) == _fingerprints(unbatched)


class TestSweepPhases:
    def test_sequential_phases_are_measured(self, tmp_path):
        results, stats = run_sweep(_specs(POLICIES[:2]), jobs=1, cache_dir=tmp_path)
        assert stats.executed == 2
        assert stats.sim_cpu_s > 0.0
        # One chain when jobs=1: wall == cpu.
        assert stats.sim_wall_s == stats.sim_cpu_s
        assert stats.build_s > 0.0
        assert stats.resolve_s >= 0.0
        assert stats.serialize_s > 0.0  # two cache writes
        assert stats.pool_startup_s == 0.0
        assert set(stats.phases()) == {
            "resolve",
            "build",
            "sim_cpu",
            "serialize",
            "index_lookup",
            "pool_startup",
        }
        assert "sim_cpu " in stats.summary()

        # A warm-cache rerun is all serialize, no simulate.
        rerun, rerun_stats = run_sweep(_specs(POLICIES[:2]), jobs=1, cache_dir=tmp_path)
        assert rerun_stats.cache_hits == 2
        assert rerun_stats.sim_cpu_s == 0.0
        assert rerun_stats.serialize_s > 0.0
        assert _fingerprints(results) == _fingerprints(rerun)

    def test_progress_callback_streams_in_order_of_completion(self):
        seen = []
        run_sweep(
            _specs(POLICIES[:2]),
            jobs=1,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]
