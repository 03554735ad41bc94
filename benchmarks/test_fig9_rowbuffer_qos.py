"""Fig. 9 — QoS under row-buffer optimisation: QoS-RB versus FR-FCFS.

The paper's point: FR-FCFS buys its bandwidth by postponing urgent
transactions whenever a streaming core keeps a row open, so real-time cores
(GPS, display) degrade; QoS-RB (Policy 2) optimises row hits only while no
transaction is urgent (priority below delta) and therefore keeps every core
at its target while giving up almost no bandwidth.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import cached_run, figure_axis, policy_grid, prefetch
from repro.campaign import format_points_table
from repro.scenario import critical_cores_for

POLICIES = figure_axis("fig9", "policy")
REPORTED_CORES = list(critical_cores_for("case_a")) + ["dsp", "audio"]


@pytest.fixture(scope="module", autouse=True)
def _prefetch_grid():
    """Batch the whole grid through one sweep so cold runs can parallelise."""
    prefetch(policy_grid("case_a", POLICIES))


@pytest.mark.parametrize("policy", POLICIES)
def test_fig9_policy_run(policy):
    result = cached_run("case_a", policy)
    assert result.served_transactions > 0


def test_fig9_shape():
    results = {policy: cached_run("case_a", policy) for policy in POLICIES}

    print("\nFig. 9 — minimum NPI under QoS-RB vs FR-FCFS (test case A)")
    print(format_points_table(results, ("min_npi",), REPORTED_CORES))

    qos_rb = results["priority_rowbuffer"]
    fr_fcfs = results["fr_fcfs"]

    # QoS-RB: row-buffer optimisation without QoS degradation.
    assert qos_rb.failing_cores() == []

    # FR-FCFS: highest row-hit rate but at least one real-time or
    # latency-sensitive core below target (paper: GPS and display).
    assert fr_fcfs.failing_cores(), "FR-FCFS is expected to degrade some core's QoS"
    assert any(
        fr_fcfs.min_core_npi[core] < 1.0
        for core in ("display", "gps", "dsp", "audio")
    )

    # And QoS-RB pays almost nothing for it in bandwidth (within a few %).
    assert (
        qos_rb.dram_bandwidth_bytes_per_s
        >= 0.97 * fr_fcfs.dram_bandwidth_bytes_per_s
    )
