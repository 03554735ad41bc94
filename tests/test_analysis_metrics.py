"""Unit tests for analysis metrics that do not need a full simulation run."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import (
    bandwidth_gain,
    bandwidth_ordering,
    mean_priority,
    qos_satisfied,
)
from repro.sim.trace import TraceRecorder
from repro.system.experiment import ExperimentResult


def make_result(
    policy: str,
    min_npi: dict,
    bandwidth: float,
) -> ExperimentResult:
    return ExperimentResult(
        scenario="case_a",
        policy=policy,
        adaptation_enabled=True,
        duration_ps=1_000_000,
        dram_freq_mhz=1866.0,
        min_core_npi=dict(min_npi),
        mean_core_npi=dict(min_npi),
        dram_bandwidth_bytes_per_s=bandwidth,
        dram_row_hit_rate=0.5,
        served_transactions=100,
        average_latency_ps=1000.0,
        priority_distributions={},
        trace=TraceRecorder(),
    )


class TestQosSatisfied:
    def test_all_cores_above_threshold(self):
        result = make_result("p", {"a": 1.2, "b": 1.0}, 1e9)
        assert qos_satisfied(result)

    def test_one_core_below_threshold(self):
        result = make_result("p", {"a": 1.2, "b": 0.9}, 1e9)
        assert not qos_satisfied(result)
        assert qos_satisfied(result, cores=["a"])

    def test_missing_core_counts_as_failure(self):
        result = make_result("p", {"a": 1.2}, 1e9)
        assert not qos_satisfied(result, cores=["zzz"])


class TestBandwidthHelpers:
    def test_ordering_sorted_ascending(self):
        results = {
            "slow": make_result("slow", {}, 1e9),
            "fast": make_result("fast", {}, 3e9),
            "mid": make_result("mid", {}, 2e9),
        }
        assert bandwidth_ordering(results) == ["slow", "mid", "fast"]

    def test_gain(self):
        results = {
            "a": make_result("a", {}, 1.2e9),
            "b": make_result("b", {}, 1.0e9),
        }
        assert bandwidth_gain(results, "a", "b") == pytest.approx(0.2)

    def test_gain_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            bandwidth_gain({"a": make_result("a", {}, 1e9)}, "a", "missing")

    def test_gain_zero_baseline_rejected(self):
        results = {
            "a": make_result("a", {}, 1e9),
            "b": make_result("b", {}, 0.0),
        }
        with pytest.raises(ValueError):
            bandwidth_gain(results, "a", "b")


class TestSummaries:
    def test_mean_priority_weighted(self):
        assert mean_priority({0: 0.25, 4: 0.75}) == pytest.approx(3.0)

    def test_failing_cores_sorted(self):
        result = make_result("p", {"b": 0.5, "a": 0.2, "c": 1.5}, 1e9)
        assert result.failing_cores() == ["a", "b"]
        assert result.dram_bandwidth_gb_per_s() == pytest.approx(1.0)
