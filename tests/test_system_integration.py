"""Integration tests: full system builds and short end-to-end runs.

These use short durations and reduced traffic so the whole file runs in tens
of seconds; the benchmark harness exercises the full-scale configurations.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import (
    bandwidth_ordering,
    fraction_of_time_failing,
    mean_priority,
    qos_satisfied,
)
from repro.campaign import format_points_table, priority_residency_md, render_markdown_table
from repro.runner import compare_policies_specs, frequency_sweep_specs, run_sweep
from repro.sim.clock import MS
from repro.system.builder import build_system
from repro.system.experiment import critical_core_minimums, run_experiment
from repro.system.platform import table1_settings

SHORT = 3 * MS
SCALE = 0.3


@pytest.fixture(scope="module")
def priority_result():
    return run_experiment(
        scenario="case_a", policy="priority_qos", duration_ps=SHORT, traffic_scale=SCALE
    )


@pytest.fixture(scope="module")
def fcfs_result():
    return run_experiment(
        scenario="case_a", policy="fcfs", duration_ps=SHORT, traffic_scale=SCALE
    )


class TestBuildSystem:
    def test_case_a_builds_all_cores(self):
        system = build_system(scenario="case_a", policy="priority_qos", traffic_scale=SCALE)
        assert len(system.cores) == 14
        assert len(system.dmas) == len(system.workload.dmas)
        assert system.adaptation_enabled is True

    def test_case_b_omits_inactive_cores(self):
        system = build_system(scenario="case_b", policy="fcfs", traffic_scale=SCALE)
        assert "camera" not in system.cores
        assert "gps" not in system.cores
        assert system.adaptation_enabled is False
        assert system.dram.config.io_freq_mhz == 1700.0

    def test_adaptation_override(self):
        system = build_system(
            scenario="case_a", policy="fcfs", adaptation_enabled=True, traffic_scale=SCALE
        )
        assert system.adaptation_enabled is True

    def test_dram_frequency_override(self):
        system = build_system(scenario="case_a", policy="priority_qos", dram_freq_mhz=1300.0)
        assert system.dram.config.io_freq_mhz == 1300.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            build_system(scenario="case_a", policy="not_a_policy")


class TestRunExperiment:
    def test_result_contains_every_core(self, priority_result):
        assert set(priority_result.min_core_npi) == {
            "camera", "image_processor", "video_codec", "rotator", "jpeg",
            "display", "gpu", "dsp", "cpu", "gps", "modem", "wifi", "usb", "audio",
        }
        assert priority_result.policy == "priority_qos"
        assert priority_result.served_transactions > 0
        assert priority_result.dram_bandwidth_bytes_per_s > 0
        assert 0 <= priority_result.dram_row_hit_rate <= 1
        assert priority_result.average_latency_ps > 0

    def test_traces_recorded_per_core(self, priority_result):
        series = priority_result.npi_series("display")
        assert len(series) > 10
        assert series.times_ps[-1] <= priority_result.duration_ps

    def test_priority_distributions_present(self, priority_result):
        assert "display.read" in priority_result.priority_distributions
        fractions = priority_result.priority_distributions["display.read"]
        assert sum(fractions.values()) == pytest.approx(1.0, abs=0.01)

    def test_baseline_does_not_adapt(self, fcfs_result):
        assert fcfs_result.adaptation_enabled is False
        for distribution in fcfs_result.priority_distributions.values():
            assert distribution.get(0, 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_keep_trace_false_drops_traces(self):
        result = run_experiment(
            scenario="case_a",
            policy="fcfs",
            duration_ps=SHORT,
            traffic_scale=SCALE,
            keep_trace=False,
        )
        with pytest.raises(RuntimeError):
            result.npi_series("display")

    def test_failing_cores_uses_threshold(self, fcfs_result):
        assert fcfs_result.failing_cores(threshold=0.01) == []
        assert set(fcfs_result.failing_cores(threshold=10.0)) == set(
            fcfs_result.min_core_npi
        )

    def test_critical_core_minimums_subset(self, priority_result):
        minimums = critical_core_minimums(priority_result)
        assert set(minimums).issubset(set(priority_result.min_core_npi))
        assert "display" in minimums


class TestSweeps:
    def test_compare_policies_returns_one_result_each(self):
        policies = ["fcfs", "priority_qos"]
        ordered, _ = run_sweep(
            compare_policies_specs(
                policies, scenario="case_a", duration_ps=SHORT, traffic_scale=SCALE
            )
        )
        results = dict(zip(policies, ordered))
        assert [result.policy for result in ordered] == policies
        ordering = bandwidth_ordering(results)
        assert len(ordering) == 2

    def test_frequency_sweep_slower_dram_is_not_faster(self):
        fast, slow = run_sweep(
            frequency_sweep_specs(
                [1866.0, 1300.0],
                scenario="case_a",
                policy="priority_qos",
                duration_ps=SHORT,
                traffic_scale=SCALE,
            )
        )[0]
        assert slow.dram_bandwidth_bytes_per_s <= fast.dram_bandwidth_bytes_per_s * 1.05
        assert fast.dram_freq_mhz == 1866.0
        assert slow.dram_freq_mhz == 1300.0


class TestAnalysis:
    def test_qos_satisfied_and_summary(self, priority_result):
        assert {"display", "dsp"} <= set(priority_result.min_core_npi)
        assert qos_satisfied(priority_result, cores=["rotator"], threshold=0.01)

    def test_fraction_of_time_failing_in_range(self, fcfs_result):
        fraction = fraction_of_time_failing(fcfs_result, "dsp")
        assert 0.0 <= fraction <= 1.0

    def test_mean_priority(self):
        assert mean_priority({0: 0.5, 7: 0.5}) == pytest.approx(3.5)
        assert mean_priority({}) == 0.0

    def test_reports_render_as_text(self, priority_result, fcfs_result):
        results = {"priority_qos": priority_result, "fcfs": fcfs_result}
        npi_table = format_points_table(results, ("min_npi",), ["display", "dsp", "gpu"])
        assert "display" in npi_table and "priority_qos" in npi_table
        bandwidth_table = format_points_table(results, ("bandwidth", "row_hit"))
        assert "GB/s" in bandwidth_table
        settings = table1_settings("A")
        settings_table = render_markdown_table(
            ["setting", "value"], [[key, str(value)] for key, value in settings.items()]
        )
        assert "dram_io_freq_mhz" in settings_table
        distribution = priority_residency_md({1866.0: priority_result}, "display.read")
        assert "| 1866 |" in distribution and "mean priority" in distribution
        summary = format_points_table(
            {"priority_qos": priority_result}, ("min_npi", "mean_npi", "bandwidth"), ["display"]
        )
        assert "bandwidth" in summary
