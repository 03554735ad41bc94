"""Policy comparison on the camcorder use case (Figs. 5 and 8 in miniature).

Runs test case A under the four arbitration policies the paper compares in
Fig. 5 — FCFS, round-robin, the frame-rate-based QoS baseline and the SARA
priority-based policy — and prints (a) the minimum NPI of the paper's
critical cores under each policy and (b) the average DRAM bandwidth each
policy delivered.

Run with:  python examples/camcorder_policy_comparison.py
"""

from __future__ import annotations

from repro.campaign import format_points_table
from repro.runner import compare_policies_specs, run_sweep
from repro.scenario import critical_cores_for
from repro.sim.clock import MS

POLICIES = ["fcfs", "round_robin", "frame_rate_qos", "priority_qos"]


def main() -> None:
    specs = compare_policies_specs(
        POLICIES,
        scenario="case_a",
        duration_ps=8 * MS,
        traffic_scale=0.8,
    )
    ordered, _ = run_sweep(specs)
    results = dict(zip(POLICIES, ordered))

    print("Minimum NPI of the critical cores during the run (Fig. 5 analogue)\n")
    cores = list(critical_cores_for("case_a")) + ["dsp", "audio"]
    print(format_points_table(results, ("min_npi",), cores))
    print()
    print("Average DRAM bandwidth per policy (Fig. 8 analogue)\n")
    print(format_points_table(results, ("bandwidth", "row_hit")))
    print()
    sara = results["priority_qos"]
    print(
        "SARA (priority_qos) failing cores:",
        sara.failing_cores() or "none — every core met its target",
    )


if __name__ == "__main__":
    main()
