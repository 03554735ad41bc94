"""Extended baseline comparison — CPU-centric schedulers on the camcorder workload.

The paper compares against FCFS, round-robin and a frame-rate-based QoS
policy.  This extended benchmark adds the CPU-centric schedulers discussed in
its related-work section (ATLAS, TCM, SMS-style batching and EDF) and runs
them on the same case-A camcorder traffic.  The reproduction's claim mirrors
the paper's argument: schedulers without a channel for heterogeneous QoS
targets may do well on fairness or bandwidth, but only the priority-based
policy meets every core's target.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import cached_run, policy_grid, prefetch
from repro.analysis.metrics import qos_satisfied
from repro.campaign import format_points_table
from repro.scenario import critical_cores_for
from repro.sim.clock import MS

DURATION_PS = 8 * MS
POLICIES = ["atlas", "tcm", "sms", "edf", "priority_qos"]


@pytest.fixture(scope="module", autouse=True)
def _prefetch_grid():
    """Batch the whole grid through one sweep so cold runs can parallelise."""
    prefetch(policy_grid("case_a", POLICIES, duration_ps=DURATION_PS))


@pytest.mark.parametrize("policy", POLICIES)
def test_extended_policy_run(policy):
    result = cached_run("case_a", policy, duration_ps=DURATION_PS)
    assert result.served_transactions > 0


def test_extended_policy_shape():
    results = {policy: cached_run("case_a", policy, duration_ps=DURATION_PS) for policy in POLICIES}
    critical = critical_cores_for("case_a")

    print("\nExtended baselines — minimum NPI per critical core (case A)")
    print(format_points_table(results, ("min_npi",), critical))
    print()
    print(format_points_table(results, ("bandwidth", "row_hit")))

    # The SARA policy still meets every critical core's target.
    assert qos_satisfied(results["priority_qos"], cores=critical)
    # Every baseline at least keeps the memory system busy.
    for policy in POLICIES:
        assert results[policy].dram_bandwidth_bytes_per_s > 0
    # Report (not assert) which QoS-agnostic baselines leave cores failing —
    # absolute failure patterns depend on traffic intensity.
    for policy in ("atlas", "tcm", "sms", "edf"):
        failing = [core for core in results[policy].failing_cores() if core in critical]
        print(f"{policy}: failing critical cores = {failing or 'none'}")
