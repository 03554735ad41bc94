"""Tests for the campaign scheduler: planning, parity, per-sub-grid stats."""

from __future__ import annotations

import pytest

from repro.analysis.serialize import experiment_result_to_dict
from repro.campaign import Campaign, CampaignScheduler, CheckSpec, SubGrid
from repro.runner import (
    WorkerPool,
    compare_policies_specs,
    frequency_sweep_specs,
    run_sweep,
)
from repro.sim.clock import MS

SHORT_MS = 0.4
SHORT_PS = int(SHORT_MS * MS)
TRAFFIC = 0.2
POLICIES = ["fcfs", "priority_qos"]
# Neither matches case_b's native 1700 MHz: a 1700 point would (correctly)
# deduplicate against the "policies" fcfs point and blur the counts below.
FREQUENCIES = [1300.0, 1500.0]


def _fingerprint(result):
    return experiment_result_to_dict(result, include_trace=True)


@pytest.fixture(scope="module")
def campaign() -> Campaign:
    return Campaign(
        name="mini",
        duration_ms=SHORT_MS,
        traffic_scale=TRAFFIC,
        subgrids=(
            SubGrid(
                name="policies",
                scenario="case_b",
                axes={"policy": list(POLICIES)},
                columns=("bandwidth", "min_npi", "failing"),
                checks=(CheckSpec(kind="policy_failures"),),
            ),
            SubGrid(
                name="freqs",
                scenario="case_b",
                axes={"platform.sim.dram.io_freq_mhz": list(FREQUENCIES)},
                settings={"policy": "fcfs"},
            ),
            # Deliberately identical to one "policies" point: the scheduler
            # must execute the shared point once and attribute a hit here.
            SubGrid(
                name="overlap",
                scenario="case_b",
                axes={"policy": ["fcfs"]},
            ),
        ),
    )


@pytest.fixture(scope="module")
def outcome(campaign):
    return CampaignScheduler(campaign).run()


class TestPlan:
    def test_plan_flattens_every_point_cost_ordered(self, campaign):
        plan = CampaignScheduler(campaign).plan()
        assert len(plan) == 5
        costs = [run.cost for run in plan]
        assert costs == sorted(costs, reverse=True)
        assert {run.subgrid for run in plan} == {"policies", "freqs", "overlap"}

    def test_plan_is_deterministic(self, campaign):
        scheduler = CampaignScheduler(campaign)
        first = [(run.subgrid, run.label) for run in scheduler.plan()]
        second = [(run.subgrid, run.label) for run in scheduler.plan()]
        assert first == second

    def test_plan_subset_selects_subgrids(self, campaign):
        plan = CampaignScheduler(campaign).plan(["freqs"])
        assert [run.subgrid for run in plan] == ["freqs", "freqs"]

    def test_unknown_subgrid_rejected(self, campaign):
        from repro.campaign import CampaignError

        with pytest.raises(CampaignError, match="no sub-grid 'nope'"):
            CampaignScheduler(campaign).plan(["nope"])


class TestRun:
    def test_results_grouped_in_declared_point_order(self, campaign, outcome):
        assert list(outcome.points) == ["policies", "freqs", "overlap"]
        assert list(outcome.results("policies")) == [
            "policy=fcfs", "policy=priority_qos",
        ]
        assert list(outcome.results("freqs")) == [
            "io_freq_mhz=1300.0", "io_freq_mhz=1500.0",
        ]

    def test_shared_point_executes_once(self, campaign, outcome):
        # 5 planned points, but overlap/policy=fcfs duplicates policies'.
        assert outcome.stats.total == 5
        assert outcome.stats.executed == 4
        assert outcome.stats.cache_hits == 1
        overlap = outcome.subgrid_stats["overlap"]
        assert (overlap.cache_hits, overlap.executed) in {(1, 0), (0, 1)}
        fcfs_a = outcome.results("policies")["policy=fcfs"]
        fcfs_b = outcome.results("overlap")["policy=fcfs"]
        assert fcfs_a is fcfs_b

    def test_subgrid_stats_partition_campaign_totals(self, campaign, outcome):
        per_grid = outcome.subgrid_stats.values()
        assert sum(stats.total for stats in per_grid) == outcome.stats.total
        assert sum(stats.executed for stats in per_grid) == outcome.stats.executed
        assert sum(stats.cache_hits for stats in per_grid) == outcome.stats.cache_hits
        # Executed sub-grids carry their own sim time; the campaign-level
        # pool_startup phase is not attributed to any sub-grid.
        assert outcome.subgrid_stats["policies"].sim_cpu_s > 0.0
        assert all(stats.pool_startup_s == 0.0 for stats in per_grid)

    def test_scheduler_matches_existing_sweep_paths_bit_identically(
        self, campaign, outcome
    ):
        compare, _ = run_sweep(
            compare_policies_specs(
                POLICIES,
                scenario="case_b",
                duration_ps=SHORT_PS,
                traffic_scale=TRAFFIC,
                keep_trace=False,
            )
        )
        for policy, result in zip(POLICIES, compare):
            assert _fingerprint(
                outcome.results("policies")[f"policy={policy}"]
            ) == _fingerprint(result)
        freqs, _ = run_sweep(
            frequency_sweep_specs(
                FREQUENCIES,
                scenario="case_b",
                policy="fcfs",
                duration_ps=SHORT_PS,
                traffic_scale=TRAFFIC,
            )
        )
        for freq, result in zip(FREQUENCIES, freqs):
            assert _fingerprint(
                outcome.results("freqs")[f"io_freq_mhz={freq}"]
            ) == _fingerprint(result)

    def test_disk_cache_skips_materialized_runs(self, campaign, tmp_path):
        scheduler = CampaignScheduler(campaign)
        cold = scheduler.run(cache_dir=str(tmp_path))
        assert cold.stats.executed == 4
        warm = scheduler.run(cache_dir=str(tmp_path))
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == warm.stats.total == 5
        for name in ("policies", "freqs", "overlap"):
            for label, (_, _, result) in zip(
                warm.results(name), warm.points[name]
            ):
                assert _fingerprint(result) == _fingerprint(cold.results(name)[label])

    def test_duration_override_beats_campaign_default(self, campaign):
        scheduler = CampaignScheduler(campaign, duration_ms=0.2)
        outcome = scheduler.run(subgrids=["overlap"])
        (_, _, result) = outcome.points["overlap"][0]
        assert result.duration_ps <= int(0.2 * MS)

    def test_single_pool_serves_the_whole_campaign(self, campaign):
        with WorkerPool(2) as pool:
            outcome = CampaignScheduler(campaign).run(jobs=2, pool=pool)
            assert pool.starts == 1
            assert outcome.stats.executed == 4
            sequential = CampaignScheduler(campaign).run()
        for name in outcome.points:
            for label in outcome.results(name):
                assert _fingerprint(outcome.results(name)[label]) == _fingerprint(
                    sequential.results(name)[label]
                )


def test_regroup_survives_label_colliding_string_axes():
    # Two distinct points whose labels render identically must still each
    # keep their own result (the scheduler regroups by settings, not label).
    campaign = Campaign(
        name="colliding",
        duration_ms=0.25,
        traffic_scale=0.2,
        subgrids=(
            SubGrid(
                name="g",
                scenario="case_b",
                axes={
                    "description": ["x, name=y", "x"],
                    "name": ["y", "y, name=y"],
                },
            ),
        ),
    )
    outcome = CampaignScheduler(campaign).run()
    points = outcome.points["g"]
    assert len(points) == 4
    settings_seen = {tuple(sorted(settings.items())) for settings, _, _ in points}
    assert len(settings_seen) == 4
