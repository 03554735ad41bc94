"""Fig. 5 — NPI of critical cores over a frame period, test case A.

The paper compares four arbitration policies (FCFS, round-robin, the
frame-rate-based QoS baseline and the priority-based Policy 1) and shows that
only the priority-based policy delivers the target performance to every core,
while each baseline starves some class of cores (the display drops to 13 % of
its target under FCFS, display and camera fail under round-robin, and the
non-media cores fail under the frame-rate baseline).

This benchmark regenerates the per-core minimum-NPI summary of that figure.
Assertions check the qualitative shape: the SARA policy keeps every core at
or above target while every baseline leaves at least one real-time or
latency-sensitive core below target.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import cached_run, figure_axis, policy_grid, prefetch
from repro.campaign import format_points_table
from repro.scenario import critical_cores_for

POLICIES = figure_axis("fig5", "policy")
REPORTED_CORES = list(critical_cores_for("case_a")) + ["dsp", "audio", "gpu"]


@pytest.fixture(scope="module", autouse=True)
def _prefetch_grid():
    """Batch the whole grid through one sweep so cold runs can parallelise."""
    prefetch(policy_grid("case_a", POLICIES))


@pytest.mark.parametrize("policy", POLICIES)
def test_fig5_policy_run(policy):
    """Run test case A under one policy (results shared via the session cache)."""
    result = cached_run("case_a", policy)
    assert result.served_transactions > 0
    assert result.dram_bandwidth_bytes_per_s > 0


def test_fig5_shape():
    results = {policy: cached_run("case_a", policy) for policy in POLICIES}

    print("\nFig. 5 — minimum NPI of critical cores, test case A")
    print(format_points_table(results, ("min_npi",), REPORTED_CORES))

    sara = results["priority_qos"]
    assert sara.failing_cores() == [], (
        "the SARA priority policy must deliver target performance to all cores"
    )

    # FCFS starves latency-sensitive traffic and under-serves the display.
    fcfs = results["fcfs"]
    assert fcfs.min_core_npi["dsp"] < 1.0
    assert fcfs.min_core_npi["display"] < 1.0

    # Round-robin lets bursty media cores crush the constant-rate display
    # sharing their transaction queue (paper: display and camera fail).
    round_robin = results["round_robin"]
    assert round_robin.min_core_npi["display"] < 1.0

    # The frame-rate baseline protects the frame-rate media cores but not the
    # cores whose QoS is not a frame rate.
    frame_rate = results["frame_rate_qos"]
    media = ["image_processor", "video_codec", "rotator", "jpeg", "gpu"]
    assert all(frame_rate.min_core_npi[core] >= 1.0 for core in media)
    non_media_failures = [
        core for core in ("dsp", "audio", "display", "gps", "usb", "wifi")
        if frame_rate.min_core_npi[core] < 1.0
    ]
    assert non_media_failures, "the frame-rate baseline must fail some non-frame-rate core"

    # The worst observed starvation should be dramatic, as in the paper
    # (display at 0.13 of target under FCFS).
    worst_baseline_display = min(
        results[p].min_core_npi["display"] for p in ("fcfs", "round_robin")
    )
    assert worst_baseline_display < 0.7
