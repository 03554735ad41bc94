"""Fig. 6 — NPI of critical cores over a frame period, test case B.

Test case B switches off the GPS, camera, rotator and JPEG cores and lowers
the DRAM frequency to 1700 MHz (Table 1).  The paper's observations: the
latency-sensitive DSP suffers under FCFS, suffers less under round-robin
(it has its own transaction queue) while the display fails instead, the
frame-rate baseline still fails the non-media cores, and the priority-based
policy delivers target performance to every core.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import cached_run, figure_axis, policy_grid, prefetch
from repro.campaign import format_points_table
from repro.scenario import critical_cores_for

POLICIES = figure_axis("fig6", "policy")
REPORTED_CORES = list(critical_cores_for("case_b")) + ["audio", "gpu"]


@pytest.fixture(scope="module", autouse=True)
def _prefetch_grid():
    """Batch the whole grid through one sweep so cold runs can parallelise."""
    prefetch(policy_grid("case_b", POLICIES))


@pytest.mark.parametrize("policy", POLICIES)
def test_fig6_policy_run(policy):
    result = cached_run("case_b", policy)
    assert result.served_transactions > 0
    assert result.dram_freq_mhz == 1700.0


def test_fig6_shape():
    results = {policy: cached_run("case_b", policy) for policy in POLICIES}

    print("\nFig. 6 — minimum NPI of critical cores, test case B")
    print(format_points_table(results, ("min_npi",), REPORTED_CORES))

    sara = results["priority_qos"]
    assert sara.failing_cores() == [], (
        "the SARA priority policy must deliver target performance to all cores"
    )

    fcfs = results["fcfs"]
    round_robin = results["round_robin"]
    # The DSP suffers under FCFS and suffers less under round-robin, where it
    # owns a transaction queue (paper Sec. 4.1).
    assert fcfs.min_core_npi["dsp"] < 1.0
    assert round_robin.min_core_npi["dsp"] > fcfs.min_core_npi["dsp"]
    # The display still fails under round-robin due to media interference.
    assert round_robin.min_core_npi["display"] < 1.0

    # The frame-rate baseline fails at least one non-frame-rate core.
    frame_rate = results["frame_rate_qos"]
    assert any(
        frame_rate.min_core_npi[core] < 1.0
        for core in ("dsp", "audio", "display", "usb", "wifi")
    )
